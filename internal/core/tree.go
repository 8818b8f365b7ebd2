// Package core implements the lock-free external binary search tree of
// Natarajan and Mittal ("Fast Concurrent Lock-Free Binary Search Trees",
// PPoPP 2014) — the paper's primary contribution, referred to as NM-BST.
//
// # Algorithm
//
// The tree is external (leaf-oriented): keys live in leaves; internal nodes
// hold routing keys and always have exactly two children. Coordination
// between operations marks *edges*, not nodes: two bits are stolen from each
// child word —
//
//   - flag: the edge's head node (a leaf) is being deleted,
//   - tag: only the edge's tail node (an internal node) is being deleted.
//
// A delete first flags the edge into its target leaf (one CAS: the
// operation's linearization anchor), then tags the sibling edge of the
// leaf's parent (one BTS, which cannot fail), and finally splices the
// sibling up to the *ancestor* — the last node on the access path reached by
// an untagged edge (one CAS). Because the splice bypasses every tagged node
// between ancestor and parent, a single CAS can physically remove several
// logically deleted leaves at once. An insert needs exactly one CAS.
// Helping is performed only on behalf of deletes, by re-executing the
// cleanup steps; no separate coordination records are ever allocated.
//
// # Representation
//
// Go's garbage collector forbids mark bits inside real pointers, so nodes
// live in a chunked arena (internal/arena) and a child field is a single
// atomic uint64 packing a 32-bit arena index plus the flag and tag bits
// (internal/atomicx). This keeps the paper's instruction set intact: CAS is
// atomic.Uint64.CompareAndSwap and BTS is atomic.Uint64.Or. A GC-friendly
// boxed-pointer variant of the same algorithm, for comparison, is
// internal/nmboxed.
//
// # Usage
//
// Tree methods (Insert/Delete/Search) are safe for arbitrary concurrent use.
// For the hot path, each goroutine should obtain its own *Handle, which
// carries a private node allocator, the reusable seek record the paper
// describes, and operation statistics.
//
// Keys are the internal uint64 key space of internal/keys; the public
// wrapper (package bst at the module root) maps user int64 keys into it.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/atomicx"
	"repro/internal/failpoint"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/reclaim"
)

// node is a tree node. Exactly three fields, as in the paper: a key and two
// packed child words. Internal nodes have both children non-nil; leaves have
// both nil. The key, once initialized, never changes while the node is
// reachable.
type node struct {
	key   uint64
	left  atomic.Uint64
	right atomic.Uint64
}

// seekRecord holds the four access-path addresses a seek returns
// (Algorithm 1 of the paper). One record per Handle is reused across
// operations, as in the paper's per-thread seek record.
type seekRecord struct {
	ancestor  uint32 // tail of the last untagged edge on the access path
	successor uint32 // head of that edge
	parent    uint32 // second-to-last node on the access path
	leaf      uint32 // last node on the access path
}

// Config tunes a Tree.
type Config struct {
	// Capacity is the maximum number of arena slots (nodes) the tree may
	// ever allocate. With reclamation disabled (the paper's experimental
	// configuration) every insert permanently consumes two slots, so size
	// this to roughly 2× the total number of inserts in the tree's
	// lifetime. Default: 1 << 26.
	Capacity int
	// Reclaim enables epoch-based reclamation of spliced-out nodes: arena
	// slots are recycled once no operation can still reference them. The
	// paper's measurements run without reclamation; enable this for
	// long-lived trees.
	Reclaim bool
	// CountPrunedLeaves makes successful cleanup splices walk the removed
	// chain to count how many logically deleted leaves were physically
	// removed, recording it in Stats. Implied by Reclaim (the walk happens
	// anyway to retire nodes).
	CountPrunedLeaves bool
	// CASOnly replaces the BTS instruction (atomic Or) in cleanup with a
	// CAS retry loop — the paper's remark that the algorithm "can be
	// easily modified to use only CAS instructions", as an ablation for
	// hardware without a one-shot fetch-or.
	CASOnly bool
	// Failpoints, when non-nil, wires the tree's atomic steps and its
	// arena allocation site into a fault-injection registry (see
	// internal/failpoint and the FP* site names). Test-only: leave nil in
	// production — a nil set costs one pointer comparison per site.
	Failpoints *failpoint.Set
	// Metrics, when non-nil, wires the tree's hot paths into a live
	// telemetry registry: each handle gets a private cache-line-padded
	// shard for contention counters (CAS failures per step, helping,
	// restarts) and sampled power-of-two latency histograms, and the tree
	// registers a snapshot hook folding in arena and epoch telemetry.
	// When nil every instrumentation site costs one nil check.
	Metrics *metrics.Registry
	// TrackDirty gives every handle a private sharded mutation counter
	// and key log (see dirty.go) that successful inserts and deletes bump
	// before returning. The order-statistics layer (internal/orderstat)
	// reads the total to decide whether its cached summaries are still
	// exact, and drains the keys to decide which keys to probe again.
	// When false the hot paths pay one nil check per successful mutation.
	TrackDirty bool
}

// DefaultCapacity is the arena capacity used when Config.Capacity is zero.
const DefaultCapacity = 1 << 26

// Tree is a lock-free external binary search tree over the internal uint64
// key space. All methods are safe for concurrent use.
type Tree struct {
	ar  *arena.Arena[node]
	r   uint32 // sentinel internal node ℝ, key ∞₂ (the root)
	s   uint32 // sentinel internal node 𝕊, key ∞₁ (ℝ's left child)
	cfg Config

	epoch   *reclaim.Domain[uint32] // grace periods for arena-slot recycling; nil when !cfg.Reclaim
	fp      *failpoint.Set          // fault injection; nil in production
	met     *metrics.Registry       // live telemetry; nil when disabled
	dirty   *DirtyCounter           // mutation counter for orderstat; nil when !cfg.TrackDirty
	handles sync.Pool               // fallback handles for direct Tree method calls
}

// New creates an empty tree (containing only the three sentinel keys of
// Figure 3 in the paper).
func New(cfg Config) *Tree {
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	t := &Tree{ar: arena.New[node](cfg.Capacity), cfg: cfg, fp: cfg.Failpoints, met: cfg.Metrics}
	if cfg.TrackDirty {
		t.dirty = &DirtyCounter{}
	}
	if cfg.Reclaim {
		t.epoch = reclaim.NewDomain[uint32]()
		// A handle that closes mid-grace-period (pool churn, finalizer)
		// hands its un-freed retirees to the domain; route them back to the
		// arena through the shared pool, which any goroutine may touch.
		t.epoch.SetOrphanFree(t.ar.RecycleShared)
	}
	if t.met != nil {
		// One snapshot hook folds in everything maintained outside the
		// sharded hot path: arena allocation/spill telemetry and — when
		// reclamation is on — epoch progress and backlog gauges.
		ar, ep := t.ar, t.epoch
		capacity := cfg.Capacity
		// Counters and gauges both accumulate (+=) so several trees sharing
		// one registry — the shards of a forest — sum sensibly; a snapshot
		// starts from fresh maps, so for a single tree += equals =. (Summed
		// epoch_current is only meaningful per tree; forests report the max
		// epoch through Health instead.)
		t.met.AddHook(func(s *metrics.Snapshot) {
			s.External["arena_spill_hits_total"] += ar.SpillHits()
			s.External["arena_recycled_nodes_total"] += ar.Recycled()
			s.Gauges["arena_capacity_nodes"] += float64(capacity)
			s.Gauges["arena_allocated_nodes"] += float64(ar.Allocated())
			if ep != nil {
				s.External["epoch_advances_total"] += ep.Advances()
				s.External["epoch_flushes_total"] += ep.Flushes()
				eh := ep.Health()
				s.Gauges["epoch_current"] += float64(eh.Epoch)
				s.Gauges["epoch_slots"] += float64(eh.Slots)
				s.Gauges["epoch_pinned_slots"] += float64(eh.Pinned)
				s.Gauges["epoch_stalled_slots"] += float64(eh.Stalled)
				s.Gauges["epoch_retired_backlog_nodes"] += float64(eh.RetiredBacklog)
			}
		})
	}

	boot := t.ar.NewAlloc(8)
	newNode := func(key uint64, left, right uint64) uint32 {
		idx, n := boot.New()
		n.key = key
		n.left.Store(left)
		n.right.Store(right)
		return idx
	}
	// Figure 3: ℝ(∞₂) has left child 𝕊(∞₁) and right child leaf(∞₂);
	// 𝕊 has left child leaf(∞₀) and right child leaf(∞₁). Since every user
	// key is smaller than ∞₀, the whole user tree grows under 𝕊's left
	// child, and no outgoing edge of ℝ or 𝕊 is ever marked.
	l0 := newNode(keys.Inf0, 0, 0)
	l1 := newNode(keys.Inf1, 0, 0)
	l2 := newNode(keys.Inf2, 0, 0)
	t.s = newNode(keys.Inf1, atomicx.Pack(l0, false, false), atomicx.Pack(l1, false, false))
	t.r = newNode(keys.Inf2, atomicx.Pack(t.s, false, false), atomicx.Pack(l2, false, false))
	// Return the bootstrap allocator's unused reservation to the shared
	// pool — it matters for tightly bounded arenas.
	boot.Release()

	// Pooled handles back the convenience Tree methods. They reserve one
	// arena slot at a time: sync.Pool may drop handles at any GC (and does
	// so aggressively under the race detector), and a dropped handle
	// strands its unused block.
	t.handles.New = func() any { return t.newHandle(1, true, false) }
	return t
}

// NewHandle returns a per-goroutine accessor. A Handle must not be used
// concurrently; each worker goroutine should create its own.
func (t *Tree) NewHandle() *Handle {
	return t.newHandle(0, false, false)
}

// NewReader returns an accessor for a walker that reads on the tree's own
// behalf, not a user's: the order-statistics refresher's probes and scans.
// It has no metrics shard, so its lookups move no ops or batch counter,
// and no dirty shard, since it never mutates. It must only look up and
// scan; an insert or delete through it would go uncounted.
func (t *Tree) NewReader() *Handle {
	return t.newHandle(0, false, true)
}

// adaptiveBlock sizes a handle's private arena reservation. Unbounded
// arenas use the arena's default (amortizing the shared-cursor CAS);
// tightly bounded arenas get proportionally small blocks, so that many
// handles — e.g. one per server connection — cannot strand the capacity in
// private reservations while peers starve at ErrCapacity.
func adaptiveBlock(capacity int) int {
	if capacity <= 0 {
		return 0 // NewAlloc substitutes arena.DefaultBlock
	}
	b := capacity / 64
	if b < 1 {
		b = 1
	}
	if b > arena.DefaultBlock {
		b = arena.DefaultBlock
	}
	return b
}

// newHandle builds an accessor. sharedFree selects where the epoch domain
// returns this handle's reclaimed nodes: explicit handles recycle into
// their private allocator free list (fast reuse by the owning goroutine),
// while pooled handles recycle straight into the arena's shared pool —
// sync.Pool migrates and drops handles at will, and capacity parked in a
// private free list would be invisible to every other handle until a GC
// finalizer donates it. A reader gets neither a metrics nor a dirty shard.
func (t *Tree) newHandle(block int, sharedFree, reader bool) *Handle {
	if block <= 0 {
		block = adaptiveBlock(t.cfg.Capacity)
	}
	h := &Handle{t: t, al: t.ar.NewAlloc(block)}
	if t.cfg.Reclaim {
		if sharedFree {
			h.slot = t.epoch.Register(t.ar.RecycleShared)
		} else {
			// Capture the allocator, not the handle: the epoch domain holds
			// this closure, and referencing h through it would keep the
			// handle reachable forever, so its finalizer could never run.
			al := h.al
			h.slot = t.epoch.Register(func(idx uint32) { al.Recycle(idx) })
		}
	}
	if t.met != nil && !reader {
		h.m = t.met.NewShard()
		h.mmask = t.met.SampleMask()
	}
	if t.dirty != nil && !reader {
		h.ds = t.dirty.NewShard()
	}
	// Safety net for handles that are dropped instead of Closed (the
	// convenience-method pool sheds handles at GC): deregister the epoch
	// slot so the domain's slot list cannot grow without bound, donate the
	// allocator's unused indices back to the arena's shared pool so a
	// dropped handle never strands capacity, and retire the metrics shard
	// so the registry stays bounded without losing the handle's counts.
	met, dirty := t.met, t.dirty
	runtime.SetFinalizer(h, func(h *Handle) {
		if h.slot != nil {
			h.slot.Close()
		}
		h.al.Release()
		if h.m != nil {
			met.Retire(h.m)
		}
		if h.ds != nil {
			dirty.Retire(h.ds)
		}
	})
	return h
}

// putHandle returns a convenience method's handle to the pool.
func (t *Tree) putHandle(h *Handle) {
	if h.slot != nil && h.slot.Pending() > 0 {
		// Flush retirees before parking the handle: a pooled handle may sit
		// idle (or be dropped) indefinitely, and nothing else can free the
		// nodes queued on its slot. Best effort — anything a concurrent pin
		// blocks here is recovered by the finalizer's Close → orphan path.
		h.slot.Flush()
	}
	t.handles.Put(h)
}

// Search reports whether key is present, using a pooled handle. Hot paths
// should call Handle.Search instead. The deferred put guarantees the
// handle (and its epoch slot) returns to the pool even if the operation
// panics and is recovered upstream.
func (t *Tree) Search(key uint64) bool {
	h := t.handles.Get().(*Handle)
	defer t.putHandle(h)
	return h.Search(key)
}

// Insert adds key if absent, using a pooled handle. It panics on arena
// exhaustion; use TryInsert for the fail-soft path.
func (t *Tree) Insert(key uint64) bool {
	h := t.handles.Get().(*Handle)
	defer t.putHandle(h)
	return h.Insert(key)
}

// TryInsert adds key if absent, using a pooled handle. Instead of
// panicking on arena exhaustion it returns ErrCapacity, leaving the tree
// fully usable (see Handle.TryInsert).
func (t *Tree) TryInsert(key uint64) (bool, error) {
	h := t.handles.Get().(*Handle)
	defer t.putHandle(h)
	return h.TryInsert(key)
}

// Delete removes key if present, using a pooled handle.
func (t *Tree) Delete(key uint64) bool {
	h := t.handles.Get().(*Handle)
	defer t.putHandle(h)
	return h.Delete(key)
}

// LookupBatch reports, in out[i], whether ks[i] is present, using a pooled
// handle; see Handle.LookupBatch for the batching contract (per-op
// linearizability, shared wavefront descent).
func (t *Tree) LookupBatch(ks []uint64, out []bool) {
	h := t.handles.Get().(*Handle)
	defer t.putHandle(h)
	h.LookupBatch(ks, out)
}

// InsertBatch inserts every key with TryInsert semantics, using a pooled
// handle; see Handle.InsertBatch.
func (t *Tree) InsertBatch(ks []uint64, out []bool, errs []error) {
	h := t.handles.Get().(*Handle)
	defer t.putHandle(h)
	h.InsertBatch(ks, out, errs)
}

// DeleteBatch deletes every key, using a pooled handle; see
// Handle.DeleteBatch.
func (t *Tree) DeleteBatch(ks []uint64, out []bool) {
	h := t.handles.Get().(*Handle)
	defer t.putHandle(h)
	h.DeleteBatch(ks, out)
}

// Range visits keys in [lo, hi] ascending using a pooled handle; see
// Handle.Range for the concurrency contract (epoch-protected, weakly
// consistent).
func (t *Tree) Range(lo, hi uint64, yield func(key uint64) bool) {
	h := t.handles.Get().(*Handle)
	defer t.putHandle(h)
	h.Range(lo, hi, yield)
}

// Metrics returns the tree's telemetry registry, or nil when the tree was
// built without Config.Metrics.
func (t *Tree) Metrics() *metrics.Registry { return t.met }

// Dirty returns the tree's mutation counter, or nil when the tree was
// built without Config.TrackDirty. The order-statistics layer compares
// Total() against a summary's token to decide whether the summary is
// exact, and Drains the logged keys to refresh only what changed.
func (t *Tree) Dirty() *DirtyCounter { return t.dirty }

// Close retires the tree's reclamation domain (when reclamation is on):
// every still-registered epoch slot — explicit handles that were never
// Closed and pooled handles parked in the sync.Pool — is deactivated so it
// can never again block epoch advancement, and retired nodes whose grace
// period has elapsed are recycled. The tree must be quiescent: no operation
// may be in flight and none may start afterwards. Idempotent; a later
// finalizer or Handle.Close on an already-closed slot is a no-op.
func (t *Tree) Close() {
	if t.epoch != nil {
		t.epoch.Close()
	}
}

// NodesAllocated returns the number of arena slots reserved so far
// (diagnostic; includes block-allocation slack).
func (t *Tree) NodesAllocated() uint64 { return t.ar.Allocated() }

// Health is a point-in-time snapshot of the tree's capacity and
// reclamation state. Safe to call concurrently with operations; values are
// approximate under load.
type Health struct {
	Capacity  int    // configured arena bound (nodes); the hard allocation limit
	Allocated uint64 // arena indices reserved so far (monotonic, incl. block slack)
	Recycled  uint64 // indices returned to free lists for reuse
	Reclaim   bool   // whether epoch-based reclamation is enabled

	// Epoch-domain diagnostics; zero when Reclaim is false.
	Epoch          uint64 // current global epoch
	Slots          int    // registered epoch slots (≈ live handles)
	Pinned         int    // slots currently inside an operation
	Stalled        int    // pinned slots lagging the global epoch — reclamation is starved
	MaxEpochLag    uint64 // largest lag among pinned slots
	RetiredBacklog int    // spliced-out nodes still awaiting their grace period
}

// Health reports capacity and reclamation state so operators can see
// exhaustion and reclamation starvation (a stalled reader pinning an old
// epoch) before they become failures.
func (t *Tree) Health() Health {
	h := Health{
		Capacity:  t.cfg.Capacity,
		Allocated: t.ar.Allocated(),
		Recycled:  t.ar.Recycled(),
		Reclaim:   t.cfg.Reclaim,
	}
	if t.epoch != nil {
		eh := t.epoch.Health()
		h.Epoch = eh.Epoch
		h.Slots = eh.Slots
		h.Pinned = eh.Pinned
		h.Stalled = eh.Stalled
		h.MaxEpochLag = eh.MaxLag
		h.RetiredBacklog = eh.RetiredBacklog
	}
	return h
}
