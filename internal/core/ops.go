package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/atomicx"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/reclaim"
)

// ErrCapacity is returned by TryInsert when the tree's arena is exhausted
// and bounded retries (with epoch flushes) could not recover a slot. It is
// the same sentinel value as arena.ErrCapacity, so errors.Is works across
// layers.
var ErrCapacity = arena.ErrCapacity

// Failpoint site names understood by trees built with Config.Failpoints.
// The three delete sites fire immediately *before* the corresponding
// atomic instruction; the alloc site fires on every node allocation
// attempt and, when triggered, makes the attempt fail as if the arena were
// exhausted.
const (
	FPAlloc     = "arena-alloc" // node allocation in insert
	FPFlagCAS   = "flag-cas"    // delete step 1: flag the edge into the leaf
	FPTag       = "tag"         // delete step 2: tag the sibling edge (BTS)
	FPSpliceCAS = "splice-cas"  // delete step 3: splice at the ancestor
	FPInsertCAS = "insert-cas"  // insert's single CAS
	FPSeek      = "seek"        // start of each seek phase
)

// Stats counts the work a Handle has performed. All fields are maintained
// without atomics (a Handle is single-goroutine); aggregate across handles
// for totals. These counters regenerate Table 1 of the paper (objects
// allocated and atomic instructions executed per operation).
type Stats struct {
	Searches uint64 // completed search operations
	Inserts  uint64 // completed insert operations (hit or miss; not ErrCapacity)
	Deletes  uint64 // completed delete operations (hit or miss)

	CASSucceeded uint64 // successful CAS instructions
	CASFailed    uint64 // failed CAS instructions
	BTS          uint64 // bit-test-and-set instructions
	NodesAlloc   uint64 // tree nodes allocated (fresh or recycled)

	Seeks        uint64 // seek-phase executions (≥1 per operation)
	HelpAttempts uint64 // cleanup invocations on behalf of another delete
	SpliceWins   uint64 // successful cleanup CASes (physical removals)
	PrunedLeaves uint64 // leaves physically removed by this handle's splices
	Recycled     uint64 // nodes retired for arena recycling

	CapacityFailures uint64 // inserts (single or batch slot) that returned ErrCapacity
	CapacityRetries  uint64 // epoch-flush retries taken on the capacity path

	Batches            uint64 // batched entry-point invocations
	BatchOps           uint64 // operations executed inside batches
	BatchSkippedLevels uint64 // node reads saved by wavefront riders
}

// add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Searches += o.Searches
	s.Inserts += o.Inserts
	s.Deletes += o.Deletes
	s.CASSucceeded += o.CASSucceeded
	s.CASFailed += o.CASFailed
	s.BTS += o.BTS
	s.NodesAlloc += o.NodesAlloc
	s.Seeks += o.Seeks
	s.HelpAttempts += o.HelpAttempts
	s.SpliceWins += o.SpliceWins
	s.PrunedLeaves += o.PrunedLeaves
	s.Recycled += o.Recycled
	s.CapacityFailures += o.CapacityFailures
	s.CapacityRetries += o.CapacityRetries
	s.Batches += o.Batches
	s.BatchOps += o.BatchOps
	s.BatchSkippedLevels += o.BatchSkippedLevels
}

// Atomics returns the total number of atomic read-modify-write instructions
// executed (CAS attempts plus BTS), the quantity Table 1 reports.
func (s *Stats) Atomics() uint64 { return s.CASSucceeded + s.CASFailed + s.BTS }

// Handle is a single goroutine's accessor to a Tree. It owns a private node
// allocator, the per-thread seek record from the paper, spare nodes reused
// across insert retries, and statistics. Handles are cheap; create one per
// worker goroutine.
type Handle struct {
	t  *Tree
	al *arena.Alloc[node]
	sr seekRecord

	// Spare nodes surviving a failed insert CAS, so a retried insert does
	// not allocate again (keeps the paper's two-objects-per-insert bound).
	spareInternal uint32
	spareLeaf     uint32

	slot *reclaim.Slot[uint32] // nil unless the tree reclaims memory

	// Scratch for the batched entry points (batch.go): the key sort buffer,
	// the per-key cursors of the wavefront, and the per-key seek records a
	// write batch's wavefront precomputes. unpinGen counts the times this
	// handle dropped its pin mid-operation (capacity recovery); a bump tells
	// the batch apply loop its precomputed records may hold recycled
	// indices.
	batch    []batchEnt
	wave     []uint32
	recs     []waveEnt
	unpinGen uint64

	// m is this handle's private telemetry shard; nil unless the tree was
	// built with Config.Metrics, in which case every instrumentation site
	// is a single nil check. tick and mmask implement latency sampling:
	// the operation is timed when tick&mmask == 0.
	m     *metrics.Shard
	tick  uint64
	mmask uint64

	// ds is this handle's private dirty shard (Config.TrackDirty);
	// successful mutations bump it, logging their key, before returning so
	// the orderstat layer can tell whether its cached summaries have been
	// overtaken and which keys to probe again.
	ds *DirtyShard

	// stepHook, when non-nil, is invoked immediately before every atomic
	// step of this handle's operations (and at each seek). It exists for
	// the exhaustive interleaving explorer in schedule_test.go, which
	// blocks here to drive operations one atomic step at a time; it is nil
	// in production (a single predictable branch on the hot path).
	stepHook func(point string)

	Stats Stats
}

func (h *Handle) hook(point string) {
	if h.stepHook != nil {
		h.stepHook(point)
	}
	if h.t.fp != nil {
		h.t.fp.Hit(point) // stall-style failpoints park here; return value unused
	}
}

func (h *Handle) pin() {
	if h.slot != nil {
		h.slot.Pin()
	}
}

func (h *Handle) unpin() {
	if h.slot != nil {
		h.slot.Unpin()
	}
}

// Close releases the handle's reclamation slot, if any, donates its
// allocator's unused arena reservations to the tree's shared pool, and
// retires its metrics shard (folding the counts into the registry so they
// survive the handle). After Close the handle must not be used.
func (h *Handle) Close() {
	if h.slot != nil {
		h.slot.Close()
		h.slot = nil
	}
	h.al.Release()
	if h.m != nil {
		h.t.met.Retire(h.m)
		h.m = nil
	}
	if h.ds != nil {
		h.t.dirty.Retire(h.ds)
		h.ds = nil
	}
	runtime.SetFinalizer(h, nil)
}

// bumpDirty records one successful mutation of key on the handle's dirty
// shard. It must run before the mutating call returns: the orderstat
// layer's exactness test is "no completed mutation is uncounted", which
// holds precisely because the bump happens on the completing goroutine
// between the linearization point and the return.
func (h *Handle) bumpDirty(key uint64) {
	if h.ds != nil {
		h.ds.Bump(key)
	}
}

// seek is Algorithm 1: traverse from the root to a leaf, maintaining the
// four-pointer seek record. ancestor/successor track the tail/head of the
// last *untagged* edge seen before the parent, so that cleanup can splice
// around every node already being removed.
func (h *Handle) seek(key uint64) {
	t := h.t
	ar := t.ar
	sr := &h.sr
	h.Stats.Seeks++
	h.hook(FPSeek)

	sr.ancestor = t.r
	sr.successor = t.s
	sr.parent = t.s

	// parentField is the child word of the edge (parent → leaf);
	// currentField is the child word of the edge (leaf → current).
	parentField := ar.Get(t.s).left.Load()
	sr.leaf = atomicx.Addr(parentField)
	currentField := ar.Get(sr.leaf).left.Load()
	current := atomicx.Addr(currentField)

	for current != 0 {
		// The edge into the node about to become the parent is untagged:
		// it is not being spliced out, so it can serve as ancestor.
		if !atomicx.Tag(parentField) {
			sr.ancestor = sr.parent
			sr.successor = sr.leaf
		}
		sr.parent = sr.leaf
		sr.leaf = current
		parentField = currentField

		cn := ar.Get(current)
		if key < cn.key {
			currentField = cn.left.Load()
		} else {
			currentField = cn.right.Load()
		}
		current = atomicx.Addr(currentField)
	}
}

// sampleStart implements sampled latency timing: it advances the handle's
// operation tick and, one operation in every SampleEvery, reads the clock.
// Call only when h.m != nil; sampled is false for the untimed majority.
func (h *Handle) sampleStart() (t0 time.Time, sampled bool) {
	h.tick++
	if h.tick&h.mmask != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

// Search reports whether key is present (Algorithm 2, lines 34–39). It is
// wait-free for a fixed tree and lock-free in general; it never writes to
// shared memory.
func (h *Handle) Search(key uint64) bool {
	if h.m != nil {
		return h.searchMetered(key)
	}
	return h.search(key)
}

func (h *Handle) searchMetered(key uint64) bool {
	t0, sampled := h.sampleStart()
	found := h.search(key)
	h.m.Inc(metrics.OpsSearch)
	if sampled {
		h.m.Observe(metrics.OpSearch, time.Since(t0))
	}
	return found
}

func (h *Handle) search(key uint64) bool {
	h.pin()
	h.seek(key)
	found := h.t.ar.Get(h.sr.leaf).key == key
	h.unpin()
	h.Stats.Searches++
	return found
}

// Range visits stored keys in [lo, hi] in ascending order until yield
// returns false. Unlike the quiescent Tree.Keys walk it is safe to run
// concurrently with writers: the traversal holds the handle's epoch pin, so
// every node it can reach stays allocated for the duration, and child words
// are read atomically with their flag/tag bits stripped.
//
// The scan is weakly consistent, in the style of concurrent-map iterators:
// every key present for the whole scan is visited exactly once (node keys
// are immutable and an external BST never moves a leaf), while keys
// inserted or deleted concurrently may or may not appear. It is not a
// linearizable snapshot. Sentinel keys are never visited.
//
// One long scan pins one epoch for its whole duration, deferring
// reclamation tree-wide; callers serving unbounded ranges should cap the
// number of keys per scan (as internal/server does) rather than let a
// client hold the epoch indefinitely.
func (h *Handle) Range(lo, hi uint64, yield func(key uint64) bool) {
	if lo > hi {
		return
	}
	h.pin()
	defer h.unpin()
	h.rangeWalk(h.t.r, lo, hi, yield)
}

// rangeWalk recursively visits the subtree at idx, pruning by the external
// BST routing invariant: left subtree < node key ≤ right subtree. The
// subtree reached through a spliced-out edge is still intact (retired nodes
// are immutable and protected by the pin), so a scan that raced a delete
// sees the pre-delete subtree — weak consistency, never a torn read.
func (h *Handle) rangeWalk(idx uint32, lo, hi uint64, yield func(uint64) bool) bool {
	n := h.t.ar.Get(idx)
	l := atomicx.Addr(n.left.Load())
	r := atomicx.Addr(n.right.Load())
	if l == 0 && r == 0 { // leaf
		if keys.IsSentinel(n.key) || n.key < lo || n.key > hi {
			return true
		}
		return yield(n.key)
	}
	if lo < n.key && l != 0 {
		if !h.rangeWalk(l, lo, hi, yield) {
			return false
		}
	}
	if hi >= n.key && r != 0 {
		if !h.rangeWalk(r, lo, hi, yield) {
			return false
		}
	}
	return true
}

// tryAlloc is the fallible node allocation: it consults the FPAlloc
// failpoint (when a registry is wired in) and then the arena's TryNew.
func (h *Handle) tryAlloc() (uint32, bool) {
	if h.t.fp != nil && h.t.fp.Hit(FPAlloc) {
		return 0, false
	}
	idx, _, ok := h.al.TryNew()
	return idx, ok
}

// trySpares returns the two nodes an insert will link, allocating only if
// no spares survive from a failed attempt. On exhaustion it reports
// ok=false after releasing any node reserved by this call back to the
// handle's free list, so a failed insert holds nothing.
func (h *Handle) trySpares() (internalIdx, leafIdx uint32, ok bool) {
	if h.spareInternal == 0 {
		idx, ok := h.tryAlloc()
		if !ok {
			return 0, 0, false
		}
		h.spareInternal = idx
		h.Stats.NodesAlloc++
	}
	if h.spareLeaf == 0 {
		idx, ok := h.tryAlloc()
		if !ok {
			h.al.Recycle(h.spareInternal)
			h.spareInternal = 0
			return 0, 0, false
		}
		h.spareLeaf = idx
		h.Stats.NodesAlloc++
	}
	return h.spareInternal, h.spareLeaf, true
}

// Insert adds key to the tree; it returns false if the key was already
// present (Algorithm 2, lines 40–59). A successful insert executes exactly
// one atomic instruction: the CAS that swings the parent's child word from
// the old leaf to the new internal node. Insert panics when the arena is
// exhausted (the paper's benchmark configuration sizes the arena for the
// whole run); TryInsert is the non-panicking path.
func (h *Handle) Insert(key uint64) bool {
	ok, err := h.TryInsert(key)
	if err != nil {
		panic("core: " + err.Error() + " (size Config.Capacity for the workload, enable Reclaim, or use TryInsert)")
	}
	return ok
}

// maxCapacityRetries bounds how many times TryInsert re-attempts after an
// allocation failure, each attempt preceded by an epoch flush (which can
// recycle spliced-out nodes into the free list) and a backoff.
const maxCapacityRetries = 8

// TryInsert adds key to the tree, returning (false, ErrCapacity) when node
// allocation fails and bounded retries cannot recover a slot. A failed
// TryInsert performs no tree writes: the structure stays valid, searches
// and deletes keep working, and inserts succeed again once reclamation
// recycles slots (deletes + grace periods).
func (h *Handle) TryInsert(key uint64) (bool, error) {
	if h.m != nil {
		return h.tryInsertMetered(key)
	}
	return h.tryInsert(key)
}

func (h *Handle) tryInsertMetered(key uint64) (bool, error) {
	t0, sampled := h.sampleStart()
	ok, err := h.tryInsert(key)
	h.m.Inc(metrics.OpsInsert)
	if sampled {
		h.m.Observe(metrics.OpInsert, time.Since(t0))
	}
	return ok, err
}

func (h *Handle) tryInsert(key uint64) (bool, error) {
	h.pin()
	ok, err := h.insertLoop(key, nil)
	h.unpin()
	return ok, err
}

// insertLoop is Algorithm 2's insert, run under the caller's epoch pin.
// rec, when non-nil, is a seek record for key taken under that pin (a
// write batch's wavefront) and positions the first attempt; every retry
// re-seeks from the root, as the paper's does. The capacity-recovery path
// drops and retakes the pin, bumping unpinGen: any record taken before it
// may now hold recycled indices.
func (h *Handle) insertLoop(key uint64, rec *seekRecord) (bool, error) {
	ar := h.t.ar
	retries := 0
	for {
		if rec != nil {
			h.sr = *rec
			rec = nil
		} else {
			h.seek(key)
		}
		leaf := h.sr.leaf
		leafKey := ar.Get(leaf).key
		if leafKey == key {
			h.Stats.Inserts++
			return false, nil // key already present
		}

		parent := h.sr.parent
		pn := ar.Get(parent)
		var childAddr *atomic.Uint64
		if key < pn.key {
			childAddr = &pn.left
		} else {
			childAddr = &pn.right
		}

		// Build the replacement subtree: a new internal node whose children
		// are the existing leaf and a new leaf holding key, ordered by key.
		// The internal node's routing key is the larger of the two.
		ni, nl, ok := h.trySpares()
		if !ok {
			// Arena exhausted. Without reclamation nothing can free a slot,
			// so fail fast; with it, unpin (so our own slot cannot block the
			// epoch), flush retired nodes into the free list, back off, and
			// retry a bounded number of times before surfacing ErrCapacity.
			if h.slot == nil || retries >= maxCapacityRetries {
				h.Stats.CapacityFailures++
				if h.m != nil {
					h.m.Inc(metrics.CapacityFailures)
				}
				return false, ErrCapacity
			}
			retries++
			h.Stats.CapacityRetries++
			if h.m != nil {
				h.m.Inc(metrics.CapacityRetries)
				h.m.Inc(metrics.SeekRestarts)
			}
			h.unpin()
			h.unpinGen++
			h.slot.Flush()
			for i := 0; i < retries; i++ {
				runtime.Gosched()
			}
			h.pin()
			continue
		}
		niN, nlN := ar.Get(ni), ar.Get(nl)
		nlN.key = key
		nlN.left.Store(0)
		nlN.right.Store(0)
		if key < leafKey {
			niN.key = leafKey
			niN.left.Store(atomicx.Pack(nl, false, false))
			niN.right.Store(atomicx.Pack(leaf, false, false))
		} else {
			niN.key = key
			niN.left.Store(atomicx.Pack(leaf, false, false))
			niN.right.Store(atomicx.Pack(nl, false, false))
		}

		h.hook(FPInsertCAS)
		if childAddr.CompareAndSwap(atomicx.Pack(leaf, false, false), atomicx.Pack(ni, false, false)) {
			h.Stats.CASSucceeded++
			h.spareInternal, h.spareLeaf = 0, 0
			h.Stats.Inserts++
			h.bumpDirty(key)
			return true, nil
		}
		h.Stats.CASFailed++
		if h.m != nil {
			h.m.Inc(metrics.InsertCASFailures)
			h.m.Inc(metrics.InsertRetries)
			h.m.Inc(metrics.SeekRestarts)
		}

		// The CAS failed. If the edge to our leaf still exists but is
		// marked, a delete owns parent; help it finish, then retry.
		w := childAddr.Load()
		if atomicx.Addr(w) == leaf && atomicx.Marked(w) {
			h.Stats.HelpAttempts++
			if h.m != nil {
				h.m.Inc(metrics.HelpOther)
			}
			h.cleanup(key, &h.sr)
		}
	}
}

// deleteMode distinguishes the two phases of Algorithm 3.
type deleteMode uint8

const (
	injection   deleteMode = iota // flag the edge into the target leaf
	cleanupMode                   // physically remove the flagged leaf
)

// Delete removes key from the tree; it returns false if the key was not
// present (Algorithm 3). The flagging CAS is the operation's commit point:
// once it succeeds the delete is guaranteed to complete (possibly finished
// by helpers). An uncontended delete executes exactly three atomic
// instructions: flag CAS, sibling-tag BTS, splice CAS.
func (h *Handle) Delete(key uint64) bool {
	if h.m != nil {
		return h.deleteMetered(key)
	}
	return h.delete(key)
}

func (h *Handle) deleteMetered(key uint64) bool {
	t0, sampled := h.sampleStart()
	removed := h.delete(key)
	h.m.Inc(metrics.OpsDelete)
	if sampled {
		h.m.Observe(metrics.OpDelete, time.Since(t0))
	}
	return removed
}

func (h *Handle) delete(key uint64) bool {
	h.pin()
	removed := h.deleteLoop(key, nil)
	h.unpin()
	return removed
}

// deleteLoop is Algorithm 3's delete, run under the caller's epoch pin;
// rec positions the first attempt exactly as in insertLoop.
func (h *Handle) deleteLoop(key uint64, rec *seekRecord) bool {
	ar := h.t.ar
	mode := injection
	var leaf uint32

	for {
		if rec != nil {
			h.sr = *rec
			rec = nil
		} else {
			h.seek(key)
		}
		sr := &h.sr
		pn := ar.Get(sr.parent)
		var childAddr *atomic.Uint64
		if key < pn.key {
			childAddr = &pn.left
		} else {
			childAddr = &pn.right
		}

		if mode == injection {
			leaf = sr.leaf
			if ar.Get(leaf).key != key {
				h.Stats.Deletes++
				return false // key not present
			}
			// Inject: flag the edge (parent → leaf).
			h.hook(FPFlagCAS)
			if childAddr.CompareAndSwap(atomicx.Pack(leaf, false, false), atomicx.Pack(leaf, true, false)) {
				h.Stats.CASSucceeded++
				mode = cleanupMode
				if h.cleanup(key, sr) {
					h.Stats.Deletes++
					h.bumpDirty(key)
					return true
				}
			} else {
				h.Stats.CASFailed++
				if h.m != nil {
					h.m.Inc(metrics.DeleteFlagCASFailures)
				}
				w := childAddr.Load()
				if atomicx.Addr(w) == leaf && atomicx.Marked(w) {
					h.Stats.HelpAttempts++
					if h.m != nil {
						h.m.Inc(metrics.HelpOther)
					}
					h.cleanup(key, sr)
				}
			}
		} else {
			// Cleanup mode: if our flagged leaf is no longer the leaf on
			// the access path, a helper already removed it.
			if sr.leaf != leaf || h.cleanup(key, sr) {
				h.Stats.Deletes++
				h.bumpDirty(key)
				return true
			}
		}
		// Any path reaching here loops back into another seek.
		if h.m != nil {
			h.m.Inc(metrics.SeekRestarts)
		}
	}
}

// cleanup is Algorithm 4: physically remove the flagged leaf on the access
// path for key (and every already-tagged internal node above it) by tagging
// the sibling edge and splicing the sibling up to the ancestor with one CAS.
// It is executed both by the owning delete and by helpers.
func (h *Handle) cleanup(key uint64, sr *seekRecord) bool {
	ar := h.t.ar
	an := ar.Get(sr.ancestor)
	pn := ar.Get(sr.parent)

	// Address of the ancestor's child word currently holding successor.
	var successorAddr *atomic.Uint64
	if key < an.key {
		successorAddr = &an.left
	} else {
		successorAddr = &an.right
	}
	// Addresses of the parent's two child words, oriented around key.
	var childAddr, siblingAddr *atomic.Uint64
	if key < pn.key {
		childAddr = &pn.left
		siblingAddr = &pn.right
	} else {
		childAddr = &pn.right
		siblingAddr = &pn.left
	}

	if !atomicx.Flag(childAddr.Load()) {
		// The leaf on key's side is not the delete target; the sibling is
		// (we are helping a delete of the other child). The roles swap.
		siblingAddr = childAddr
	}

	// Tag the sibling edge (BTS — cannot fail). From here on neither child
	// word of parent can change, so parent can never again be an injection
	// point.
	h.hook(FPTag)
	if h.t.cfg.CASOnly {
		// CAS-only mode: emulate BTS with a bounded retry loop. The loop
		// terminates because competitors only ever *set* bits on this word
		// (marked edges never change), so a failed CAS means the tag is
		// closer to — or already — set.
		for {
			w := siblingAddr.Load()
			if atomicx.Tag(w) {
				break
			}
			if siblingAddr.CompareAndSwap(w, w|atomicx.TagBit) {
				h.Stats.CASSucceeded++
				break
			}
			h.Stats.CASFailed++
			if h.m != nil {
				h.m.Inc(metrics.DeleteTagCASFailures)
			}
		}
	} else {
		siblingAddr.Or(atomicx.TagBit)
		h.Stats.BTS++
	}

	// Splice the sibling up: ancestor's child swings from successor to the
	// sibling node, preserving the sibling edge's flag bit (the sibling may
	// itself be a leaf already flagged by another delete).
	h.hook(FPSpliceCAS)
	sw := siblingAddr.Load()
	ok := successorAddr.CompareAndSwap(
		atomicx.Pack(sr.successor, false, false),
		atomicx.Pack(atomicx.Addr(sw), atomicx.Flag(sw), false),
	)
	if ok {
		h.Stats.CASSucceeded++
		h.Stats.SpliceWins++
		if h.m != nil {
			h.m.Inc(metrics.SpliceWins)
		}
		if h.slot != nil || h.t.cfg.CountPrunedLeaves {
			h.retireRemoved(sr, atomicx.Addr(sw))
		}
	} else {
		h.Stats.CASFailed++
		if h.m != nil {
			h.m.Inc(metrics.DeleteSpliceCASFailures)
		}
	}
	return ok
}

// retireRemoved walks the chain of nodes detached by a successful splice —
// successor down to parent through tagged edges, plus the flagged leaf
// hanging off each chain node — counting pruned leaves and, when
// reclamation is on, retiring every removed node. Only the goroutine whose
// splice CAS succeeded runs this, so each node is retired exactly once.
func (h *Handle) retireRemoved(sr *seekRecord, survivor uint32) {
	ar := h.t.ar
	n := sr.successor
	for {
		nd := ar.Get(n)
		l, r := nd.left.Load(), nd.right.Load()
		la, ra := atomicx.Addr(l), atomicx.Addr(r)
		h.retire(n)
		if n == sr.parent {
			// The splice kept survivor; the parent's other child is the
			// delete target. Both children may be flagged here (two deletes
			// targeting sibling leaves), so pick by identity, not by flag.
			h.Stats.PrunedLeaves++
			if h.m != nil {
				h.m.Inc(metrics.PrunedLeaves)
			}
			if la == survivor {
				h.retire(ra)
			} else {
				h.retire(la)
			}
			return
		}
		// Interior chain node: exactly one flagged child (a leaf some
		// delete targets) and one tagged child continuing toward parent.
		var leafChild, next uint32
		if atomicx.Flag(l) {
			leafChild, next = la, ra
		} else {
			leafChild, next = ra, la
		}
		h.Stats.PrunedLeaves++
		if h.m != nil {
			h.m.Inc(metrics.PrunedLeaves)
		}
		h.retire(leafChild)
		if next == 0 || next == survivor {
			return // defensive: never walk off the removed region
		}
		n = next
	}
}

func (h *Handle) retire(idx uint32) {
	if h.slot != nil {
		h.slot.Retire(idx)
		h.Stats.Recycled++
	}
}
