package client

// Batched requests: Client.Do packs many point operations into OpBatch
// frames (internal/wire), so one round trip — and one server admission
// slot — covers up to wire.MaxBatchOps operations, and the server executes
// them through the tree's batched seeks. The status table that classifies
// single ops classifies batches too: a frame refused as a whole (shed,
// drained, redirected) retries wholesale, while per-op retryable failures
// (capacity, a fenced store) retry as a shrinking sub-batch, and permanent
// per-op failures (key out of range) surface in their own slot without
// disturbing their neighbours.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/rtrace"
	"repro/internal/wire"
)

// Op is one point operation inside a batched call.
type Op struct {
	Kind uint8 // wire.OpInsert, wire.OpDelete or wire.OpLookup
	Key  int64
}

// InsertOp, DeleteOp and LookupOp build batch operations.
func InsertOp(key int64) Op { return Op{Kind: wire.OpInsert, Key: key} }
func DeleteOp(key int64) Op { return Op{Kind: wire.OpDelete, Key: key} }
func LookupOp(key int64) Op { return Op{Kind: wire.OpLookup, Key: key} }

// OpResult is one operation's outcome from a batched call. OK mirrors the
// single-op return (set changed / key present); Err is nil or the same
// error the single-op method would have returned (bst.ErrCapacity,
// bst.ErrKeyOutOfRange, ErrOverloaded, ... — errors.Is works identically).
type OpResult struct {
	OK  bool
	Err error
}

// Do executes ops against the server in batch frames, one result per
// operation in order. Operations are individually linearizable, not
// atomic as a group, matching the tree's batch semantics. The returned
// error is nil unless the context expired or a whole chunk could never be
// delivered; per-operation failures live in their slots, so callers must
// check both.
func (cl *Client) Do(ctx context.Context, ops []Op) ([]OpResult, error) {
	out := make([]OpResult, len(ops))
	for start := 0; start < len(ops); start += wire.MaxBatchOps {
		end := min(start+wire.MaxBatchOps, len(ops))
		if err := cl.doChunk(ctx, ops[start:end], out[start:end]); err != nil {
			return out, err
		}
	}
	return out, nil
}

// doChunk runs one ≤MaxBatchOps slice of operations through the retry
// loop. Only the sub-batch bookkeeping is its own: a frame refused as a
// whole is classified through the status table like a single op, and
// every pending operation shares its fate; otherwise each per-op status
// is classified, and only the retryable operations ride the next, smaller
// frame. out slots for operations that exhaust their attempts keep the
// error of their last attempt.
func (cl *Client) doChunk(ctx context.Context, ops []Op, out []OpResult) error {
	// pending holds the indices still awaiting a definitive outcome. An
	// unknown kind is refused here and never reaches the wire, so only the
	// operations sent count as requests.
	pending := make([]int, 0, len(ops))
	for i, op := range ops {
		if op.Kind != wire.OpInsert && op.Kind != wire.OpDelete && op.Kind != wire.OpLookup {
			out[i] = OpResult{Err: fmt.Errorf("%w: unknown op kind %d", ErrBadRequest, op.Kind)}
			continue
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return nil
	}
	cl.stats[statRequests].Add(uint64(len(pending)))

	// One trace context covers the whole chunk, surviving every retry and
	// redirect (KClientSend's Arg carries the op count, not a key).
	x := call{
		req:  wire.Request{Op: wire.OpBatch, Trace: cl.cfg.Trace.SampleNext(), Ops: make([]wire.BatchOp, 0, len(pending))},
		resp: wire.Response{Results: make([]wire.BatchResult, 0, len(pending))},
	}
	if x.req.Trace.Sampled() {
		start := time.Now()
		defer cl.cfg.Trace.Span(x.req.Trace, rtrace.KClientSend, start, int64(len(pending)))
	}

	for attempt := 0; attempt < cl.cfg.MaxAttempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			cl.stats[statRetries].Add(uint64(len(pending)))
			cl.cfg.Trace.Event(x.req.Trace, rtrace.KRetry, int64(attempt))
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		x.req.Ops = x.req.Ops[:0]
		for _, idx := range pending {
			x.req.Ops = append(x.req.Ops, wire.BatchOp{Op: ops[idx].Kind, Key: ops[idx].Key})
		}
		x.req.ID = cl.id.Add(1)
		x.req.DeadlineMS = deadlineMS(ctx)

		class := backoff
		err := cl.exchange(ctx, &x)
		switch {
		case err != nil:
			cl.stats[statTransport].Add(1)
		case x.resp.Status != wire.StatusOK:
			class, err = cl.fail(x.resp.Status, x.resp.Leader, x.req.Trace, attempt)
		case len(x.resp.Results) != len(pending):
			return fmt.Errorf("%w: batch response carries %d results for %d ops", ErrBadRequest, len(x.resp.Results), len(pending))
		}
		if err != nil {
			for _, idx := range pending {
				out[idx] = OpResult{Err: err}
			}
			if class == permanent {
				return nil
			}
		} else {
			cl.noteSuccess()
			next := pending[:0]
			class = permanent
			for k, idx := range pending {
				r := x.resp.Results[k]
				if r.Status == wire.StatusOK {
					out[idx] = OpResult{OK: r.OK}
					continue
				}
				// A per-op status names no leader and records no event.
				c, err := cl.fail(r.Status, "", rtrace.Context{}, attempt)
				out[idx] = OpResult{Err: err}
				if c != permanent {
					next = append(next, idx)
					class = max(class, c)
				}
			}
			if pending = next; len(pending) == 0 {
				return nil
			}
		}
		if !cl.pause(ctx, class, x.resp.Leader, attempt) {
			return fmt.Errorf("%w retrying %d batched ops", context.Cause(ctx), len(pending))
		}
	}
	// Attempts exhausted: the pending slots keep their last per-op error.
	return nil
}
