package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"

	bst "repro"
	"repro/internal/client"
	"repro/internal/wire"
)

// TestAggregatesOverWire drives the order-statistics queries end to end:
// client frames → server dispatch → indexed tree → value tail back.
func TestAggregatesOverWire(t *testing.T) {
	tree, srv, cl := startServer(t, []bst.Option{bst.WithOrderStatistics()}, Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	ctx := context.Background()

	for k := int64(0); k < 1000; k++ {
		if ok, err := cl.Insert(ctx, k*2); err != nil || !ok {
			t.Fatalf("Insert(%d) = (%v, %v)", k*2, ok, err)
		}
	}
	exact := client.Consistency{Exact: true}

	if got, err := cl.Rank(ctx, 100, exact); err != nil || got != 50 {
		t.Fatalf("Rank(100) = (%d, %v), want 50", got, err)
	}
	if got, err := cl.Select(ctx, 10, exact); err != nil || got != 20 {
		t.Fatalf("Select(10) = (%d, %v), want 20", got, err)
	}
	if got, err := cl.CountRange(ctx, 0, 1998, exact); err != nil || got != 1000 {
		t.Fatalf("CountRange(0,1998) = (%d, %v), want 1000", got, err)
	}
	if got, err := cl.SumRange(ctx, 0, 10, exact); err != nil || got != 0+2+4+6+8+10 {
		t.Fatalf("SumRange(0,10) = (%d, %v), want 30", got, err)
	}
	// Stale answers remain inside the documented bound (quiescent here, so
	// they must agree exactly once a wave has run).
	if got, err := cl.CountRange(ctx, 0, 1998, client.Consistency{MaxDirty: 1 << 20}); err != nil || got > 1000 {
		t.Fatalf("stale CountRange = (%d, %v), want ≤ 1000", got, err)
	}
	if _, err := cl.Select(ctx, 1000, exact); !errors.Is(err, bst.ErrSelectOutOfRange) {
		t.Fatalf("Select(1000) err = %v, want ErrSelectOutOfRange", err)
	}

	// The mutation is visible to the next exact aggregate — the refresh
	// wave linearizes against completed wire mutations.
	if ok, err := cl.Insert(ctx, 1); err != nil || !ok {
		t.Fatalf("Insert(1): (%v, %v)", ok, err)
	}
	if got, err := cl.Rank(ctx, 2, exact); err != nil || got != 2 {
		t.Fatalf("Rank(2) after insert = (%d, %v), want 2", got, err)
	}

	if n := srv.Counters().Aggregates; n == 0 {
		t.Fatal("Counters.Aggregates stayed zero")
	}
	_ = tree
}

// TestAggregateNoIndex: a store without the order-statistics capability
// answers StatusNoIndex, which the client surfaces as ErrNoOrderStats
// without burning retries.
func TestAggregateNoIndex(t *testing.T) {
	_, srv, cl := startServer(t, nil, Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	ctx := context.Background()

	if _, err := cl.Rank(ctx, 1, client.Consistency{Exact: true}); !errors.Is(err, bst.ErrNoOrderStats) {
		t.Fatalf("Rank err = %v, want ErrNoOrderStats", err)
	}
	if got := srv.Counters().NoIndex; got != 1 {
		t.Fatalf("Counters.NoIndex = %d, want 1 (no retries on a permanent status)", got)
	}
}

// TestAggregateBadTail: a malformed aggregate tail answers
// StatusBadRequest but keeps the connection alive (the frame boundary
// held), matching the batch decoder's contract.
func TestAggregateBadTail(t *testing.T) {
	_, srv, cl := startServer(t, []bst.Option{bst.WithOrderStatistics()}, Config{})
	defer cl.Close()
	defer shutdown(t, srv)

	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bw := bufio.NewWriter(c)
	br := bufio.NewReader(c)

	// Base header says OpAggregate, but the 18-byte tail is missing.
	bad := wire.AppendRequest(nil, &wire.Request{ID: 7, Op: wire.OpAggregate, Key: 3})
	if err := wire.WriteFrame(bw, bad); err != nil || bw.Flush() != nil {
		t.Fatalf("write bad frame: %v", err)
	}
	payload, _, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var resp wire.Response
	err = wire.DecodeResponse(payload, wire.OpAggregate, &resp)
	if err != nil || resp.ID != 7 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("bad-tail response = (%+v, %v), want id 7 StatusBadRequest", resp, err)
	}

	// The connection survived: a well-formed aggregate on the same conn
	// still answers.
	good := wire.AppendRequest(nil, &wire.Request{
		ID: 8, Op: wire.OpAggregate, Kind: wire.AggRank, Mode: wire.AggModeExact, Key: 0,
	})
	if err := wire.WriteFrame(bw, good); err != nil || bw.Flush() != nil {
		t.Fatalf("write good frame: %v", err)
	}
	payload, _, err = wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("read second response: %v", err)
	}
	err = wire.DecodeResponse(payload, wire.OpAggregate, &resp)
	if err != nil || resp.ID != 8 || resp.Status != wire.StatusOK || resp.Value != 0 {
		t.Fatalf("good response = (%+v, %v), want id 8 OK value 0", resp, err)
	}
}
