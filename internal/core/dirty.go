package core

import (
	"sync"
	"sync/atomic"
)

// The dirty counter is the only thing the lock-free write paths contribute
// to the order-statistics subsystem (internal/orderstat): one per-handle,
// cache-line-padded, single-writer counter bumped after every successful
// insert or delete, exactly the internal/metrics sharding pattern. Writers
// never CAS a shared summary word — the whole point of the lazy
// augmentation design is that the paper's one-CAS insert and three-atomic
// delete stay untouched — so the counter is an atomic load and store on a
// line owned by one goroutine (on amd64 the store is an XCHGQ: one
// uncontended locked exchange that never fails, and not one of the CAS/BTS
// instructions Table 1 counts), and reading the total is a sum over shards
// that is exact once the tree is quiescent and monotonically
// under-approximate while it is not.
//
// Each shard also logs the mapped key of every mutation it counts, in a
// fixed ring the handle owns: the key is stored at ring[n&mask] before the
// count moves to n+1. That lets the refresher learn which keys changed
// (Drain) and probe only those, again without a CAS or BTS on the writer
// side.
//
// The ordering contract the orderstat layer depends on: a mutation's bump
// happens before the mutating call returns. Any mutation whose caller has
// been acknowledged is therefore visible in Total() — which is what lets a
// cached summary whose CleanDirty equals Total() answer exactly — and,
// because the key is stored before the count, a Drain that counts the
// mutation also returns its key.

// DirtyRing is the number of keys a shard's log holds. A handle that
// mutates more than DirtyRing-1 times between two drains laps its ring,
// and the drain reports overflow instead of a partial key set.
const DirtyRing = 256

// maxRetiredLogs bounds how many closed shards may wait for the next Drain
// with undrained keys. Past it a closed shard's log is dropped and the next
// Drain reports overflow, so no key is ever lost silently.
const maxRetiredLogs = 64

// DirtyShard is one handle's private mutation counter and key log. Only
// the owning handle writes n and ring; Total and Drain readers only load.
// The pad keeps two shards' counters from sharing a cache line, so bumps
// never ping-pong lines between writers.
type DirtyShard struct {
	n    atomic.Uint64
	_    [56]byte
	ring [DirtyRing]atomic.Uint64
	// drained is the count up to which Drain has consumed the ring.
	// Guarded by the owning DirtyCounter's mu.
	drained uint64
}

// Bump records one successful mutation of key. Single-writer: a load and
// two atomic stores on memory the handle owns; on amd64 each store is an
// uncontended locked exchange (XCHGQ) that never fails, and none is a CAS
// or BTS. The key is stored before the count, so a reader that sees the
// count also sees the key.
func (s *DirtyShard) Bump(key uint64) {
	n := s.n.Load()
	s.ring[n&(DirtyRing-1)].Store(key)
	s.n.Store(n + 1)
}

// drain appends the keys logged at positions [drained, n) to dst and
// marks them consumed. ok is false when the writer may have overwritten
// one of them: the count read after the copy shows it lapped the ring
// (the writer stores position p+DirtyRing only once its count reached it).
func (s *DirtyShard) drain(dst []uint64, n uint64) ([]uint64, bool) {
	from := s.drained
	s.drained = n
	if n-from >= DirtyRing {
		return dst, false
	}
	for p := from; p < n; p++ {
		dst = append(dst, s.ring[p&(DirtyRing-1)].Load())
	}
	return dst, s.n.Load()-from < DirtyRing
}

// DirtyCounter aggregates the per-handle shards. Shard registration and
// retirement take a mutex (handle creation is off the hot path); Total and
// Drain are locked so a shard can never be summed twice or lost while a
// retirement folds it into base.
type DirtyCounter struct {
	mu      sync.Mutex
	shards  []*DirtyShard
	retired []*DirtyShard // closed shards holding keys no Drain has read
	lost    bool          // a closed shard's keys were dropped
	base    uint64        // counts folded in from retired shards
}

// NewShard registers and returns a fresh shard for one handle.
func (d *DirtyCounter) NewShard() *DirtyShard {
	s := &DirtyShard{}
	d.mu.Lock()
	d.shards = append(d.shards, s)
	d.mu.Unlock()
	return s
}

// Retire folds a handle's shard into the base total and drops it from the
// shard list, so closed handles do not accumulate. Its frozen key log waits
// for the next Drain (up to maxRetiredLogs of them; past that the log is
// dropped and that Drain reports overflow). Callers retire a shard once
// and nil their reference.
func (d *DirtyCounter) Retire(s *DirtyShard) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := s.n.Load()
	d.base += n
	for i, sh := range d.shards {
		if sh == s {
			d.shards[i] = d.shards[len(d.shards)-1]
			d.shards = d.shards[:len(d.shards)-1]
			break
		}
	}
	if n != s.drained {
		if len(d.retired) < maxRetiredLogs {
			d.retired = append(d.retired, s)
		} else {
			d.lost = true
		}
	}
}

// Total returns the number of successful mutations recorded so far. It is
// monotonically non-decreasing, exact when the tree is quiescent, and
// never ahead of the mutations that have actually completed — a mutation
// still inside its call may or may not be counted yet, but one whose call
// returned always is.
func (d *DirtyCounter) Total() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.base
	for _, s := range d.shards {
		n += s.n.Load()
	}
	return n
}

// Drain returns the same total Total would, and appends to dst the keys of
// every mutation it counts that no earlier Drain returned — from live and
// closed shards alike. overflow reports that some of those keys could not
// be returned (a writer lapped its ring, or a closed shard's log was
// dropped); the caller must then treat every key as changed. The counter
// supports one drainer: each logged key is returned by exactly one Drain.
func (d *DirtyCounter) Drain(dst []uint64) (keys []uint64, total uint64, overflow bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	total, overflow = d.base, d.lost
	d.lost = false
	var ok bool
	for _, s := range d.shards {
		n := s.n.Load()
		total += n
		if dst, ok = s.drain(dst, n); !ok {
			overflow = true
		}
	}
	for i, s := range d.retired {
		if dst, ok = s.drain(dst, s.n.Load()); !ok {
			overflow = true
		}
		d.retired[i] = nil
	}
	d.retired = d.retired[:0]
	return dst, total, overflow
}
