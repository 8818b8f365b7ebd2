package client

import (
	"context"
	"testing"

	bst "repro"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/wal"
)

// serveLoopback serves store on an ephemeral port and dials one pooled
// connection to it, so every measured call reuses the same socket and
// the same server-side accessor.
func serveLoopback(t *testing.T, store server.Store) *Client {
	t.Helper()
	srv := server.New(server.Config{Store: store})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(Config{Addr: srv.Addr().String(), Conns: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestRequestPathAllocs holds the whole loopback request path — client
// encode, exchange and retry loop, server admission, execute and response
// window, store — to allocation ceilings per call. AllocsPerRun counts
// every goroutine's allocations, so the server's share is included.
func TestRequestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and sync.Pool drops items under it")
	}
	ctx := context.Background()
	check := func(name string, ceiling float64, call func() error) {
		t.Helper()
		var err error
		got := testing.AllocsPerRun(200, func() {
			if e := call(); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: %.1f allocs/call (ceiling %.0f)", name, got, ceiling)
		if got > ceiling {
			t.Errorf("%s allocates %.1f per call, ceiling %.0f", name, got, ceiling)
		}
	}

	store, err := durable.Open(t.TempDir(), durable.Options{Sync: wal.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for k := int64(0); k < 1024; k += 2 {
		store.Insert(k)
	}
	cl := serveLoopback(t, store)

	var n int64
	check("Lookup", 5, func() error {
		n++
		_, err := cl.Lookup(ctx, n%1024)
		return err
	})
	// Each Insert adds a key the next Delete removes, so every call
	// changes the set and logs one WAL record.
	check("Insert/Delete", 13, func() error {
		n++
		var err error
		if n%2 == 0 {
			_, err = cl.Insert(ctx, 1<<20)
		} else {
			_, err = cl.Delete(ctx, 1<<20)
		}
		return err
	})
	// 70/20/10 lookups, inserts and deletes over 64 distinct keys; the
	// mutations flip between two key sets, so every one changes the set.
	ops := make([]Op, 64)
	check("Do(64 mixed)", 36, func() error {
		n++
		for i := range ops {
			k := int64(2048 + i)
			switch {
			case i%10 < 7:
				ops[i] = LookupOp(k)
			case (i%10 < 9) == (n%2 == 0):
				ops[i] = InsertOp(k)
			default:
				ops[i] = DeleteOp(k)
			}
		}
		out, err := cl.Do(ctx, ops)
		for _, r := range out {
			if err == nil {
				err = r.Err
			}
		}
		return err
	})

	tree := bst.New(bst.WithOrderStatistics())
	t.Cleanup(func() { tree.Close() })
	for k := int64(0); k < 1024; k++ {
		tree.Insert(k)
	}
	acl := serveLoopback(t, tree)
	check("CountRange(BoundedStale)", 5, func() error {
		n++
		_, err := acl.CountRange(ctx, n%512, n%512+256, Consistency{MaxDirty: 64})
		return err
	})
}
