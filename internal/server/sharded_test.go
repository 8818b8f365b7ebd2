package server

import (
	"context"
	"errors"
	"testing"

	bst "repro"
	"repro/internal/client"
	"repro/internal/durable"
	"repro/internal/wal"
)

// TestShardedBatchPartialFailureOverWire pins the sharded partial-failure
// contract on the wire: with the key space partitioned across four trees,
// one shard exhausting its arena must fail only the batch slots whose keys
// route to it — sibling shards' slots in the same frame are acknowledged
// normally, and the per-op statuses round-trip through the batch protocol.
func TestShardedBatchPartialFailureOverWire(t *testing.T) {
	tree, srv, cl0 := startServer(t, []bst.Option{
		bst.WithCapacity(256), // total budget: 64 nodes per shard
		bst.WithShards(4),
		// Inclusive bounds: [0, 2^20-1] spans exactly 2^20 keys, giving a
		// balanced 2^18-wide slice per shard.
		bst.WithShardRange(0, 1<<20-1),
	}, Config{})
	defer cl0.Close()
	defer shutdown(t, srv)
	if tree.Shards() != 4 {
		t.Fatalf("Shards = %d", tree.Shards())
	}
	// One-attempt client: capacity errors surface raw instead of retried.
	cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), MaxAttempts: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Exhaust shard 0 (keys below 1<<18) over the wire.
	var filled []int64
	for k := int64(0); ; k++ {
		ok, err := cl.Insert(ctx, k)
		if err != nil {
			if !errors.Is(err, bst.ErrCapacity) {
				t.Fatalf("fill: err = %v, want ErrCapacity", err)
			}
			break
		}
		if !ok {
			t.Fatalf("fill: Insert(%d) = false on a fresh key", k)
		}
		filled = append(filled, k)
		if k > 1<<17 {
			t.Fatal("shard 0 arena never filled; capacity not partitioned")
		}
	}

	// One frame spanning the exhausted shard and all three healthy ones,
	// plus a delete on the exhausted shard (deletes allocate nothing and
	// must keep working there).
	sh0a, sh0b := int64(1<<17), int64(1<<17+1) // shard 0, fresh
	ops := []client.Op{
		client.InsertOp(sh0a),      // shard 0: exhausted
		client.InsertOp(1<<18 + 5), // shard 1
		client.InsertOp(sh0b),      // shard 0: exhausted
		client.InsertOp(2<<18 + 5), // shard 2
		client.InsertOp(3<<18 + 5), // shard 3
		client.DeleteOp(filled[0]), // shard 0: delete still fine
		client.LookupOp(filled[1]), // shard 0: read still fine
	}
	res, err := cl.Do(ctx, ops)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for _, i := range []int{0, 2} {
		if !errors.Is(res[i].Err, bst.ErrCapacity) {
			t.Fatalf("op %d (exhausted shard): err = %v, want ErrCapacity", i, res[i].Err)
		}
	}
	for _, i := range []int{1, 3, 4, 5, 6} {
		if res[i].Err != nil || !res[i].OK {
			t.Fatalf("op %d poisoned by sibling shard's exhaustion: (%v, %v)", i, res[i].OK, res[i].Err)
		}
	}

	// The wire statuses must agree with the tree.
	for _, i := range []int{1, 3, 4} {
		if !tree.Contains(ops[i].Key) {
			t.Fatalf("acked insert %d missing", ops[i].Key)
		}
	}
	if tree.Contains(sh0a) || tree.Contains(sh0b) {
		t.Fatal("capacity-refused keys present in the tree")
	}
	if tree.Contains(filled[0]) {
		t.Fatal("acked delete did not stick")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if srv.Counters().CapacityErrs == 0 {
		t.Fatal("Counters.CapacityErrs = 0 after per-shard capacity failures")
	}
}

// TestShardedOutOfRangeOverWire: a key above MaxKey sent to a 4-shard
// durable store answers ErrKeyOutOfRange exactly as a one-shard store
// does — no recovered panic, no poisoned connection, and the client's next
// call on the same connection succeeds.
func TestShardedOutOfRangeOverWire(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dur, err := durable.Open(t.TempDir(), durable.Options{Sync: wal.SyncNone,
			TreeOptions: []bst.Option{bst.WithShards(shards)}})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Store: dur})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), Conns: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := cl.Insert(ctx, bst.MaxKey+1); !errors.Is(err, bst.ErrKeyOutOfRange) {
			t.Errorf("shards=%d: Insert(MaxKey+1) err = %v, want ErrKeyOutOfRange", shards, err)
		}
		if ok, err := cl.Insert(ctx, 42); err != nil || !ok {
			t.Errorf("shards=%d: the next Insert = (%v, %v), want (true, nil)", shards, ok, err)
		}
		if c := srv.Counters(); c.Panics != 0 || c.OutOfRange != 1 {
			t.Errorf("shards=%d: Panics = %d, OutOfRange = %d, want 0 and 1", shards, c.Panics, c.OutOfRange)
		}
		cl.Close()
		shutdown(t, srv)
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
