package client

import (
	"context"
	"errors"
	"testing"
	"time"

	bst "repro"
	"repro/internal/durable"
	"repro/internal/rtrace"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

func TestBackoffEqualJitter(t *testing.T) {
	cl, err := Dial(Config{Addr: "x", Backoff: 2 * time.Millisecond, MaxBackoff: 500 * time.Millisecond, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Attempt n draws uniformly from [d/2, d], d = min(base<<n, MaxBackoff).
	for attempt := 0; attempt < 12; attempt++ {
		d := 2 * time.Millisecond << uint(attempt)
		if d > 500*time.Millisecond || d <= 0 {
			d = 500 * time.Millisecond
		}
		for i := 0; i < 100; i++ {
			got := cl.backoff(2*time.Millisecond, attempt)
			if got < d/2 || got > d {
				t.Fatalf("backoff(attempt=%d) = %v outside [%v, %v]", attempt, got, d/2, d)
			}
		}
	}
	// Huge attempt numbers must not overflow into negatives.
	if got := cl.backoff(2*time.Millisecond, 63); got < 0 || got > 500*time.Millisecond {
		t.Fatalf("backoff(attempt=63) = %v", got)
	}
}

func TestBackoffJitterVaries(t *testing.T) {
	cl, _ := Dial(Config{Addr: "x", Seed: 7, MaxBackoff: time.Second})
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[cl.backoff(time.Millisecond, 4)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitter produced %d distinct delays in 50 draws, want ≥ 2", len(seen))
	}
}

func TestDeadlineMS(t *testing.T) {
	if got := deadlineMS(context.Background()); got != 0 {
		t.Fatalf("no-deadline ctx → %d, want 0 (server default)", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	if got := deadlineMS(ctx); got < 1 || got > 250 {
		t.Fatalf("250ms ctx → %d, want in [1, 250]", got)
	}

	// A sub-millisecond (even already-expired) deadline still reports ≥ 1:
	// the server must see *a* deadline, not fall back to its default.
	tight, cancel2 := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel2()
	time.Sleep(2 * time.Millisecond)
	if got := deadlineMS(tight); got != 1 {
		t.Fatalf("expired ctx → %d, want 1", got)
	}

	// A deadline beyond uint32 milliseconds is effectively unbounded.
	far, cancel3 := context.WithDeadline(context.Background(), time.Now().Add(200*24*365*time.Hour))
	defer cancel3()
	if got := deadlineMS(far); got != 0 {
		t.Fatalf("far-future ctx → %d, want 0", got)
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(Config{}); err == nil {
		t.Fatal("Dial without Addr succeeded")
	}
	cl, err := Dial(Config{Addr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if cl.cfg.Conns != 4 || cl.cfg.MaxAttempts != 8 {
		t.Fatalf("defaults not applied: %+v", cl.cfg)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
}

// TestStatusTable: every status the wire defines has a row, the
// retryable set is the one the protocol documents (overloaded, capacity
// and draining back off; redirects follow the leader; the rest are
// permanent), only draining and internal responses drop the connection
// (the server closes it after them), and a status the table does not know
// fails permanently as ErrBadRequest.
func TestStatusTable(t *testing.T) {
	cl, err := Dial(Config{Addr: "x"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[wire.Status]retryClass{
		wire.StatusOverloaded:       backoff,
		wire.StatusCapacity:         capacityBackoff,
		wire.StatusKeyOutOfRange:    permanent,
		wire.StatusDeadlineExceeded: permanent,
		wire.StatusDraining:         backoff,
		wire.StatusBadRequest:       permanent,
		wire.StatusInternal:         permanent,
		wire.StatusNotLeader:        redirect,
		wire.StatusReplLag:          backoff,
		wire.StatusFenced:           redirect,
		wire.StatusNoIndex:          permanent,
	}
	if len(statusTable) != int(wire.StatusNoIndex)+1 {
		t.Fatalf("status table has %d rows, the wire defines %d statuses", len(statusTable), wire.StatusNoIndex+1)
	}
	for st := wire.StatusOverloaded; st <= wire.StatusNoIndex; st++ {
		class, err := cl.fail(st, "", rtrace.Context{}, 0)
		if class != want[st] || err == nil || !errors.Is(err, statusTable[st].err) {
			t.Errorf("%v → (%d, %v), want class %d and an error matching %v", st, class, err, want[st], statusTable[st].err)
		}
		if closes := st == wire.StatusDraining || st == wire.StatusInternal; statusTable[st].closes != closes {
			t.Errorf("%v closes the connection = %v, want %v", st, statusTable[st].closes, closes)
		}
	}
	if class, err := cl.fail(wire.StatusNoIndex+1, "", rtrace.Context{}, 0); class != permanent || !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown status → (%d, %v), want a permanent ErrBadRequest", class, err)
	}
}

// TestFencedStoreEveryPath: a write refused by a fenced store surfaces as
// ErrFenced on every client path — single op, batch slot, pipelined
// future — and a pipelined operation that falls back to the pooled path
// counts as one request whose fallback is its retry.
func TestFencedStoreEveryPath(t *testing.T) {
	store, err := durable.Open(t.TempDir(), durable.Options{Sync: wal.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	store.Fence(7)
	srv := server.New(server.Config{Store: store})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ctx := context.Background()

	for _, attempts := range []int{1, 2} {
		cl, err := Dial(Config{Addr: srv.Addr().String(), MaxAttempts: attempts, Backoff: time.Millisecond, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Insert(ctx, 1); !errors.Is(err, ErrFenced) {
			t.Errorf("MaxAttempts %d: Insert err = %v, want ErrFenced", attempts, err)
		}
		res, err := cl.Do(ctx, []Op{InsertOp(2), LookupOp(2)})
		if err != nil || !errors.Is(res[0].Err, ErrFenced) || res[1].Err != nil {
			t.Errorf("MaxAttempts %d: Do = (%+v, %v), want the insert slot ErrFenced and the lookup OK", attempts, res, err)
		}

		p, err := cl.NewPipeline(ctx)
		if err != nil {
			t.Fatal(err)
		}
		before := cl.Stats()
		f, err := p.Submit(ctx, InsertOp(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(ctx); !errors.Is(err, ErrFenced) {
			t.Errorf("MaxAttempts %d: pipelined insert err = %v, want ErrFenced", attempts, err)
		}
		p.Close()
		after := cl.Stats()
		if got := after.Requests - before.Requests; got != 1 {
			t.Errorf("MaxAttempts %d: a fallen-back pipelined op added %d requests, want 1", attempts, got)
		}
		if got := after.Retries - before.Retries; got != uint64(attempts-1) {
			t.Errorf("MaxAttempts %d: the fallback added %d retries, want %d", attempts, got, attempts-1)
		}
		if got := after.FencedSeen - before.FencedSeen; got != uint64(attempts) {
			t.Errorf("MaxAttempts %d: %d fenced responses counted, want %d", attempts, got, attempts)
		}
	}
	if store.Contains(1) || store.Contains(2) || store.Contains(3) {
		t.Fatal("a fenced store applied a write")
	}
}

// TestNoBackoffAfterLastAttempt: when the last allowed attempt fails with
// a retryable status, the call returns at once instead of sleeping a
// backoff no attempt follows. With one attempt, 30 s backoffs and a 2 s
// context, a full tree's capacity refusal must surface as bst.ErrCapacity
// — in Insert's error and in Do's slot — well before the context ends.
func TestNoBackoffAfterLastAttempt(t *testing.T) {
	tree := bst.New(bst.WithCapacity(64))
	t.Cleanup(func() { tree.Close() })
	for k := int64(0); ; k++ {
		if _, err := tree.TryInsert(k); err != nil {
			if !errors.Is(err, bst.ErrCapacity) {
				t.Fatal(err)
			}
			break
		}
	}
	srv := server.New(server.Config{Store: tree})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(Config{Addr: srv.Addr().String(), MaxAttempts: 1, Seed: 1,
		Backoff: 30 * time.Second, CapacityBackoff: 30 * time.Second, MaxBackoff: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	start := time.Now()
	if _, err := cl.Insert(ctx, 1<<40); !errors.Is(err, bst.ErrCapacity) {
		t.Errorf("Insert err = %v, want bst.ErrCapacity", err)
	}
	res, err := cl.Do(ctx, []Op{InsertOp(1<<40 + 1)})
	if err != nil || !errors.Is(res[0].Err, bst.ErrCapacity) {
		t.Errorf("Do = (%+v, %v), want its slot bst.ErrCapacity", res, err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("two one-attempt calls took %v; the last attempt must not back off", el)
	}
}
