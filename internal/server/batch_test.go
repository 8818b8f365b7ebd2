package server

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"testing"
	"time"

	bst "repro"
	"repro/internal/client"
	"repro/internal/wire"
)

// TestBatchOverWire drives a mixed batch — inserts, lookups, deletes, an
// out-of-range key in the middle — through one OpBatch frame and checks
// per-op results, sentinel identity across the wire, and that the tree
// stays auditable.
func TestBatchOverWire(t *testing.T) {
	tree, srv, cl := startServer(t, nil, Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	ctx := context.Background()

	ops := []client.Op{
		client.InsertOp(10),
		client.InsertOp(20),
		client.InsertOp(bst.MaxKey + 1), // must fail alone, mid-batch
		client.InsertOp(30),
		client.LookupOp(20),
		client.DeleteOp(10),
		client.LookupOp(10),
		client.DeleteOp(99), // never inserted
	}
	res, err := cl.Do(ctx, ops)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	want := []struct {
		ok  bool
		err error
	}{
		{true, nil},
		{true, nil},
		{false, bst.ErrKeyOutOfRange},
		{true, nil},
		{true, nil},
		{true, nil},
		{false, nil},
		{false, nil},
	}
	for i, w := range want {
		r := res[i]
		if w.err != nil {
			if !errors.Is(r.Err, w.err) {
				t.Fatalf("op %d: err = %v, want %v", i, r.Err, w.err)
			}
			continue
		}
		if r.Err != nil || r.OK != w.ok {
			t.Fatalf("op %d: = (%v, %v), want (%v, nil)", i, r.OK, r.Err, w.ok)
		}
	}
	if tree.Contains(10) || !tree.Contains(20) || !tree.Contains(30) {
		t.Fatal("tree contents disagree with batch results")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	c := srv.Counters()
	if c.BatchOps != uint64(len(ops)) {
		t.Fatalf("Counters.BatchOps = %d, want %d", c.BatchOps, len(ops))
	}
	if c.OutOfRange != 1 {
		t.Fatalf("Counters.OutOfRange = %d, want 1", c.OutOfRange)
	}
}

// TestBatchCapacityMidBatchOverWire exhausts a tiny arena mid-batch: the
// overflowing slots answer StatusCapacity — surfacing as bst.ErrCapacity
// through errors.Is — while the ops that fit succeed, and the tree remains
// valid and consistent with the reported results.
func TestBatchCapacityMidBatchOverWire(t *testing.T) {
	tree, srv, cl0 := startServer(t, []bst.Option{bst.WithCapacity(64)}, Config{})
	defer cl0.Close()
	defer shutdown(t, srv)
	// A dedicated one-attempt client sees raw per-op outcomes instead of
	// retried ones.
	cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), MaxAttempts: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	ops := make([]client.Op, 64)
	for i := range ops {
		ops[i] = client.InsertOp(int64(i))
	}
	res, err := cl.Do(ctx, ops)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	okN, capN := 0, 0
	for i, r := range res {
		switch {
		case r.Err == nil && r.OK:
			okN++
		case errors.Is(r.Err, bst.ErrCapacity):
			capN++
		default:
			t.Fatalf("op %d: unexpected result (%v, %v)", i, r.OK, r.Err)
		}
	}
	if okN == 0 || capN == 0 {
		t.Fatalf("want mixed outcomes, got ok=%d capacity=%d", okN, capN)
	}
	// The reported outcomes must agree with the tree, and the tree must
	// still satisfy its structural invariants.
	lookups := make([]client.Op, len(ops))
	for i := range ops {
		lookups[i] = client.LookupOp(ops[i].Key)
	}
	chk, err := cl.Do(ctx, lookups)
	if err != nil {
		t.Fatalf("lookup batch: %v", err)
	}
	for i := range res {
		if chk[i].Err != nil {
			t.Fatalf("lookup %d: %v", i, chk[i].Err)
		}
		if chk[i].OK != res[i].OK {
			t.Fatalf("key %d: present=%v but insert reported (%v, %v)", ops[i].Key, chk[i].OK, res[i].OK, res[i].Err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if srv.Counters().CapacityErrs == 0 {
		t.Fatal("Counters.CapacityErrs = 0 after capacity failures")
	}
}

// TestBatchChunksAcrossFrames: Do transparently splits operation lists
// larger than wire.MaxBatchOps into several frames; results still land in
// caller order.
func TestBatchChunksAcrossFrames(t *testing.T) {
	tree, srv, cl := startServer(t, nil, Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	ops := make([]client.Op, wire.MaxBatchOps+500)
	for i := range ops {
		ops[i] = client.InsertOp(int64(i))
	}
	res, err := cl.Do(ctx, ops)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || !r.OK {
			t.Fatalf("op %d: (%v, %v), want (true, nil)", i, r.OK, r.Err)
		}
	}
	if got := tree.Len(); got != len(ops) {
		t.Fatalf("Len = %d, want %d", got, len(ops))
	}
}

// TestPipelineOverWire exercises the asynchronous client: a window of
// inserts submitted without waiting, then lookups, with every future
// resolving to the synchronous call's answer.
func TestPipelineOverWire(t *testing.T) {
	tree, srv, cl := startServer(t, nil, Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	ctx := context.Background()

	p, err := cl.NewPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 200
	futs := make([]*client.Future, 0, n)
	for i := 0; i < n; i++ {
		f, err := p.Submit(ctx, client.InsertOp(int64(i)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		futs = append(futs, f)
	}
	for i, f := range futs {
		ok, err := f.Wait(ctx)
		if err != nil || !ok {
			t.Fatalf("insert future %d = (%v, %v), want (true, nil)", i, ok, err)
		}
	}
	// Mixed kinds in one window, including a permanent per-op failure.
	fl, _ := p.Submit(ctx, client.LookupOp(7))
	fd, _ := p.Submit(ctx, client.DeleteOp(7))
	fbad, _ := p.Submit(ctx, client.LookupOp(bst.MaxKey+1))
	fl2, _ := p.Submit(ctx, client.LookupOp(7))
	if ok, err := fl.Wait(ctx); err != nil || !ok {
		t.Fatalf("lookup(7) = (%v, %v)", ok, err)
	}
	if ok, err := fd.Wait(ctx); err != nil || !ok {
		t.Fatalf("delete(7) = (%v, %v)", ok, err)
	}
	if _, err := fbad.Wait(ctx); !errors.Is(err, bst.ErrKeyOutOfRange) {
		t.Fatalf("lookup(MaxKey+1) err = %v, want ErrKeyOutOfRange", err)
	}
	if ok, err := fl2.Wait(ctx); err != nil || ok {
		t.Fatalf("lookup(7) after delete = (%v, %v), want (false, nil)", ok, err)
	}
	if got := tree.Len(); got != n-1 {
		t.Fatalf("Len = %d, want %d", got, n-1)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestPipelineThroughputFloor: on one connection, the pipelined client
// must run at least 2x the inserts per second of request-per-round-trip.
// Both phases insert 4,000 fresh keys from one shuffled sequence: random
// order keeps the external tree near log depth, so both do the same work
// (ascending keys would build a spine in the first phase and bill its
// traversal to the second). Opt-in via BST_PIPELINE_FLOOR=1, because it is
// a wall-clock measurement; `make serve-smoke` runs it and logs the ratio.
func TestPipelineThroughputFloor(t *testing.T) {
	if os.Getenv("BST_PIPELINE_FLOOR") == "" {
		t.Skip("set BST_PIPELINE_FLOOR=1 (or run `make serve-smoke`) to run the pipelining floor")
	}
	_, srv, cl := startServer(t, []bst.Option{bst.WithReclamation()}, Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	ctx := context.Background()

	const n = 4000
	keys := make([]int64, 2*n)
	for i := range keys {
		keys[i] = int64(i)
	}
	rand.New(rand.NewSource(42)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	start := time.Now()
	for _, k := range keys[:n] {
		if ok, err := cl.Insert(ctx, k); err != nil || !ok {
			t.Fatalf("round-trip Insert(%d) = (%v, %v), want (true, nil)", k, ok, err)
		}
	}
	roundTrip := time.Since(start)

	p, err := cl.NewPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	futs := make([]*client.Future, n)
	start = time.Now()
	for i, k := range keys[n:] {
		if futs[i], err = p.Submit(ctx, client.InsertOp(k)); err != nil {
			t.Fatalf("Submit(%d): %v", k, err)
		}
	}
	for i, f := range futs {
		if ok, err := f.Wait(ctx); err != nil || !ok {
			t.Fatalf("pipelined Insert(%d) = (%v, %v), want (true, nil)", keys[n+i], ok, err)
		}
	}
	pipelined := time.Since(start)

	ratio := float64(roundTrip) / float64(pipelined)
	t.Logf("pipelined %.2fx over round-trip (%d inserts each: round-trip %v, pipelined %v)",
		ratio, n, roundTrip.Round(time.Millisecond), pipelined.Round(time.Millisecond))
	if ratio < 2 {
		t.Fatalf("pipelined throughput is %.2fx of round-trip; want >= 2x", ratio)
	}
}

// TestPipelineFallbackAfterClose: futures stranded by a dead pipeline
// resolve through the pooled retry path instead of failing.
func TestPipelineFallbackAfterClose(t *testing.T) {
	_, srv, cl := startServer(t, nil, Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	ctx := context.Background()

	p, err := cl.NewPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Submit(ctx, client.InsertOp(123))
	if err != nil {
		t.Fatal(err)
	}
	p.Close() // flushes first, but the future may or may not be answered
	// If the flushed request executed before the teardown, the fallback
	// re-runs the insert and sees the key already present (OK=false) — the
	// usual at-least-once retry ambiguity. Either way no error surfaces and
	// the key must be in the tree.
	if _, err := f.Wait(ctx); err != nil {
		t.Fatalf("future after Close: %v", err)
	}
	if ok, err := cl.Lookup(ctx, 123); err != nil || !ok {
		t.Fatalf("lookup(123) after fallback = (%v, %v), want (true, nil)", ok, err)
	}
	// Stats.Requests counts only operations that reach the wire: neither a
	// Submit refused by the closed pipeline nor a Do slot refused locally
	// for its unknown kind counts.
	before := cl.Stats().Requests
	if _, err := p.Submit(ctx, client.InsertOp(1)); !errors.Is(err, client.ErrPipelineClosed) {
		t.Fatalf("Submit after Close err = %v, want ErrPipelineClosed", err)
	}
	if got := cl.Stats().Requests - before; got != 0 {
		t.Fatalf("a refused Submit counted %d requests, want 0", got)
	}
	res, err := cl.Do(ctx, []client.Op{{Kind: 99, Key: 1}, client.LookupOp(123)})
	if err != nil || !errors.Is(res[0].Err, client.ErrBadRequest) || res[1].Err != nil || !res[1].OK {
		t.Fatalf("Do with an unknown kind = (%+v, %v), want slot 0 ErrBadRequest and slot 1 found", res, err)
	}
	if got := cl.Stats().Requests - before; got != 1 {
		t.Fatalf("Do with one unknown kind of two counted %d requests, want 1", got)
	}
}

// slowInsertStore hands out accessors whose InsertBatch sleeps for pause
// before it runs, so a batch's insert run outlives a short budget.
type slowInsertStore struct {
	Store
	pause time.Duration
}

func (s slowInsertStore) NewAccessor() bst.Accessor {
	return slowInsertAccessor{s.Store.NewAccessor(), s.pause}
}

type slowInsertAccessor struct {
	bst.Accessor
	pause time.Duration
}

func (a slowInsertAccessor) InsertBatch(keys []int64, out []bst.OpResult) {
	time.Sleep(a.pause)
	a.Accessor.InsertBatch(keys, out)
}

// TestBatchDeadlineBetweenRuns: the budget is checked between a batch's
// runs. A run that started completes and is acknowledged; the runs after
// an expired budget answer StatusDeadlineExceeded without touching the
// tree, and the frame counts one timeout.
func TestBatchDeadlineBetweenRuns(t *testing.T) {
	tree := bst.New()
	defer tree.Close()
	srv := New(Config{Store: slowInsertStore{tree, 250 * time.Millisecond}, DefaultDeadline: 100 * time.Millisecond})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv)
	cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// No context deadline: the request carries none, so the server's
	// 100ms default is its budget.
	res, err := cl.Do(context.Background(), []client.Op{
		client.InsertOp(1), client.InsertOp(2), // one run, 250ms
		client.LookupOp(1),
		client.DeleteOp(2),
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res[0].Err != nil || !res[0].OK || res[1].Err != nil || !res[1].OK {
		t.Fatalf("first run = %+v, %+v; want both inserts acknowledged", res[0], res[1])
	}
	for i := 2; i < 4; i++ {
		if !errors.Is(res[i].Err, client.ErrDeadline) {
			t.Fatalf("op %d after the budget = %+v, want ErrDeadline", i, res[i])
		}
	}
	if !tree.Contains(1) || !tree.Contains(2) {
		t.Fatal("the acknowledged run is not in the tree, or the expired delete ran")
	}
	if got := srv.Counters().Timeouts; got != 1 {
		t.Fatalf("Timeouts = %d, want 1", got)
	}
}
