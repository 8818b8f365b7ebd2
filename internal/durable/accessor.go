package durable

import (
	"fmt"

	bst "repro"
	"repro/internal/wal"
)

// Accessor is the durable per-goroutine fast path: every mutation follows
// the same stripe-serialized log-before-ack protocol as the Tree-level
// methods, and batches amortize the fsync wait — all of a batch's records
// are enqueued while the stripes are held, then one Wait per touched WAL
// lane covers the whole batch (group commits fsync in sequence order
// within a lane, so a lane's last record durable implies every earlier
// one is; an unsharded store has one lane and pays exactly one wait).
type accessor struct {
	d     *Tree
	inner bst.Accessor

	// Batch scratch, reused across calls: the newest ticket and an error
	// slot per lane. laneErr is nil-filled after each use.
	lastTickets []wal.Ticket
	laneErr     []error
}

// NewAccessor returns a durable per-goroutine fast path. Like
// bst.Tree.NewAccessor, the result must not be shared between goroutines.
func (d *Tree) NewAccessor() bst.Accessor {
	return &accessor{d: d, inner: d.tree.NewAccessor()}
}

func (a *accessor) Insert(key int64) bool { return a.d.mustApply(a.inner, opInsert, key) }

func (a *accessor) TryInsert(key int64) (bool, error) { return a.d.apply(a.inner, opInsert, key) }

func (a *accessor) Delete(key int64) bool { return a.d.mustApply(a.inner, opDelete, key) }

func (a *accessor) Contains(key int64) bool { return a.inner.Contains(key) }

// TryInsertTicket is TryInsert without the durability wait: the mutation
// is applied and its WAL record enqueued, and the returned ticket lets the
// caller batch one Wait over a whole window of operations (group commits
// fsync in sequence order, so waiting on a window's last ticket covers
// every earlier one). The caller must not acknowledge the operation before
// the ticket resolves.
func (a *accessor) TryInsertTicket(key int64) (bool, wal.Ticket, error) {
	return a.d.write(a.inner, opInsert, key)
}

// DeleteTicket is Delete without the durability wait; see TryInsertTicket.
func (a *accessor) DeleteTicket(key int64) (bool, wal.Ticket, error) {
	return a.d.write(a.inner, opDelete, key)
}

func (a *accessor) ContainsBatch(keys []int64, out []bst.OpResult) {
	a.inner.ContainsBatch(keys, out)
}

func (a *accessor) InsertBatch(keys []int64, out []bst.OpResult) {
	a.mutateBatch(opInsert, keys, out, a.inner.InsertBatch)
}

func (a *accessor) DeleteBatch(keys []int64, out []bst.OpResult) {
	a.mutateBatch(opDelete, keys, out, a.inner.DeleteBatch)
}

// mutateBatch applies one durable batch: lock every stripe the batch
// touches (in index order — deadlock-free by construction), run the inner
// batch, enqueue a WAL record per set-changing slot into its key's lane,
// release the stripes, then wait once per touched lane on that lane's
// newest ticket. Per-op linearizability is preserved (each slot is
// individually linearizable inside the inner batch, and its WAL record is
// ordered against all other ops on the same key by the stripe); the batch
// is still not atomic, exactly like the non-durable batch contract.
//
// Failure isolation: a WAL failure on one lane marks failed ONLY the
// set-changing slots whose keys route to that lane — sibling lanes' slots
// keep their acks (their group commits are independent), matching the
// per-op failure contract of the tree batches (ErrCapacity on one shard
// never poisons another shard's ops).
func (a *accessor) mutateBatch(op uint8, keys []int64, out []bst.OpResult, inner func([]int64, []bst.OpResult)) {
	if len(keys) == 0 || len(out) != len(keys) {
		inner(keys, out) // the inner batch enforces len(out) == len(keys), with no stripe held
		return
	}
	if a.d.fenceTerm.Load() != 0 {
		for i := range out {
			out[i] = bst.OpResult{Err: ErrFenced}
		}
		return
	}
	var touched [numStripes]bool
	for _, k := range keys {
		touched[stripeOf(k)] = true
	}
	for i := range touched {
		if touched[i] {
			a.d.stripes[i].Lock()
		}
	}
	inner(keys, out)
	nl := len(a.d.lanes)
	if cap(a.lastTickets) < nl {
		a.lastTickets = make([]wal.Ticket, nl)
		a.laneErr = make([]error, nl)
	}
	last := a.lastTickets[:nl]
	var logged int64
	for i, k := range keys {
		if out[i].Err == nil && out[i].OK {
			l := a.d.laneOf(k)
			last[l] = a.d.lanes[l].log.Enqueue(op, k)
			logged++
		}
	}
	for i := range touched {
		if touched[i] {
			a.d.stripes[i].Unlock()
		}
	}
	if logged == 0 {
		return
	}
	laneErr := a.laneErr[:nl]
	anyErr := false
	for l := range last {
		if last[l].Empty() {
			continue
		}
		if _, err := last[l].Wait(); err != nil {
			// Durability unknown for this lane's set-changing slots: report
			// them failed, matching the single-op behavior on WAL failure.
			laneErr[l] = fmt.Errorf("%w: %w", ErrNotDurable, err)
			anyErr = true
		}
		last[l] = wal.Ticket{}
	}
	if anyErr {
		for i, k := range keys {
			if out[i].Err == nil && out[i].OK {
				if werr := laneErr[a.d.laneOf(k)]; werr != nil {
					out[i].OK = false
					out[i].Err = werr
					logged--
				}
			}
		}
		for l := range laneErr {
			laneErr[l] = nil
		}
	}
	if logged > 0 {
		a.d.noteMutations(logged)
	}
}

func (a *accessor) Close() error { return a.inner.Close() }
