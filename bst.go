// Package bst (import path "repro") is a concurrent ordered set of int64
// keys: the lock-free external binary search tree of "Fast Concurrent
// Lock-Free Binary Search Trees" by Natarajan and Mittal (PPoPP 2014).
//
// The tree coordinates deletions by marking *edges* (flag and tag bits
// packed beside each child address) so that an insert commits with a
// single CAS and a delete with three atomic instructions. Nodes live in a
// bounded arena (WithCapacity) that epoch-based reclamation can recycle
// (WithReclamation); Map is the same algorithm with boxed edges, values on
// the leaves and no arena to size. The baselines the paper evaluates
// against (Ellen et al., Howley–Jones, Bronson et al.) are internal
// packages, picked by name through internal/harness — the -targets flag of
// cmd/bstbench and cmd/bststress.
//
// # Quick start
//
//	s := bst.New() // Natarajan–Mittal lock-free BST
//	s.Insert(42)
//	s.Contains(42) // true
//	s.Delete(42)   // true
//
// All Set methods are safe for arbitrary concurrent use. For hot loops,
// give each goroutine its own Accessor, which carries per-thread state
// (node allocator, reusable seek record) and avoids a pooled-handle hop:
//
//	a := s.NewAccessor()
//	for _, k := range batch { a.Insert(k) }
//
// Keys are int64. Values up to MaxKey are storable; the three largest
// mapped values are reserved for the paper's sentinel keys ∞₀ < ∞₁ < ∞₂
// and methods panic on keys above MaxKey.
package bst

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/keys"
)

// MaxKey is the largest storable key (the top of the int64 range is
// reserved for the algorithm's sentinel keys).
const MaxKey int64 = keys.MaxUser

// ErrCapacity is returned by TryInsert when a capacity-bounded tree
// (WithCapacity) cannot allocate a node: the arena is exhausted and — if
// reclamation is enabled — bounded retries with epoch flushes recovered
// nothing. The tree stays fully usable: Contains and Delete keep working,
// and TryInsert succeeds again once deletes plus reclamation recycle slots.
var ErrCapacity = core.ErrCapacity

// ErrKeyOutOfRange is returned by TryInsert for keys above MaxKey (the
// panicking methods keep panicking, matching the map/slice convention for
// programmer errors; the Try path never panics).
var ErrKeyOutOfRange = errors.New("bst: key exceeds MaxKey")

// Set is the concurrent dictionary interface.
type Set interface {
	// Insert adds key; it reports whether the set changed.
	Insert(key int64) bool
	// Delete removes key; it reports whether the set changed.
	Delete(key int64) bool
	// Contains reports whether key is present.
	Contains(key int64) bool
}

// Accessor is a single-goroutine fast path into a Tree. It must not be
// shared between goroutines.
type Accessor interface {
	Set
	// TryInsert adds key; it reports whether the set changed. Unlike
	// Insert it returns ErrKeyOutOfRange for keys above MaxKey and
	// ErrCapacity when a bounded tree cannot allocate, instead of
	// panicking.
	TryInsert(key int64) (bool, error)
	// ContainsBatch, InsertBatch and DeleteBatch apply one operation to
	// every key, filling out (len(out) must equal len(keys)) with per-op
	// results. The batch shares one tree descent across sorted keys,
	// amortizing the per-operation seek; each operation remains
	// individually linearizable (a batch is neither atomic nor a
	// snapshot). Batched methods never panic on out-of-range keys — the
	// slot reports ErrKeyOutOfRange — and inserts report ErrCapacity
	// per-op, so a failure affects only its own slot. The accessor reuses
	// its batch buffers across calls: the steady-state batch path does not
	// allocate.
	ContainsBatch(keys []int64, out []OpResult)
	InsertBatch(keys []int64, out []OpResult)
	DeleteBatch(keys []int64, out []OpResult)
	// Close releases the accessor's per-goroutine resources — its epoch
	// slot (so a parked accessor can never again stall reclamation), its
	// reserved arena slots, and its metrics shard (folded into the tree's
	// registry so counts survive). After Close the accessor must not be
	// used. Long-lived services (see internal/server) should always pair
	// NewAccessor with Close on their drain path.
	Close() error
}

type config struct {
	capacity      int
	reclaim       bool
	metrics       bool
	metricsSample int
	shards        int
	shardLo       int64
	shardHi       int64
	shardRange    bool
	orderstat     bool
}

// Option configures New.
type Option func(*config)

// WithCapacity bounds total node allocations. Without reclamation every
// insert permanently consumes two nodes; with WithReclamation the bound
// applies to live nodes plus a small recycling float.
func WithCapacity(nodes int) Option { return func(c *config) { c.capacity = nodes } }

// WithReclamation enables epoch-based memory reclamation, recycling nodes
// spliced out of the tree once no concurrent operation can reference them.
// The paper benchmarks without reclamation; enable this for long-lived
// sets.
func WithReclamation() Option { return func(c *config) { c.reclaim = true } }

// Tree is a concurrent ordered set of int64 keys. All methods are safe for
// concurrent use unless noted.
type Tree struct {
	f *forest.Forest // one shard or more (WithShards)

	// agg merges the forest's per-shard order-statistics indexes
	// (WithOrderStatistics); nil when order statistics are off, and every
	// aggregate method then answers ErrNoOrderStats.
	agg *forest.Aggregates
}

// New creates a concurrent Natarajan–Mittal BST.
func New(opts ...Option) *Tree {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	f, agg, err := newForest(cfg)
	if err != nil {
		panic(fmt.Sprintf("bst: %v", err))
	}
	return &Tree{f: f, agg: agg}
}

func mapKey(k int64) uint64 {
	if !keys.InRange(k) {
		panic(fmt.Sprintf("bst: key %d exceeds MaxKey (%d)", k, MaxKey))
	}
	return keys.Map(k)
}

func tryMapKey(k int64) (uint64, error) {
	if !keys.InRange(k) {
		return 0, fmt.Errorf("%w: %d > %d", ErrKeyOutOfRange, k, MaxKey)
	}
	return keys.Map(k), nil
}

// Insert adds key; it reports whether the set changed.
func (t *Tree) Insert(key int64) bool { return t.f.Insert(mapKey(key)) }

// TryInsert adds key; it reports whether the set changed. It is the
// non-panicking variant of Insert: keys above MaxKey return
// ErrKeyOutOfRange, and on a capacity-bounded tree (WithCapacity)
// allocation failure returns ErrCapacity instead of panicking, leaving the
// tree fully usable.
func (t *Tree) TryInsert(key int64) (bool, error) {
	u, err := tryMapKey(key)
	if err != nil {
		return false, err
	}
	return t.f.TryInsert(u)
}

// Delete removes key; it reports whether the set changed.
func (t *Tree) Delete(key int64) bool { return t.f.Delete(mapKey(key)) }

// Contains reports whether key is present.
func (t *Tree) Contains(key int64) bool { return t.f.Search(mapKey(key)) }

// Len returns the number of keys. It requires a quiescent tree (no
// concurrent writers) to be exact.
func (t *Tree) Len() int { return t.f.Size() }

// Ascend visits keys in ascending order until yield returns false. It
// requires a quiescent tree for an exact snapshot.
func (t *Tree) Ascend(yield func(key int64) bool) {
	t.f.Keys(func(u uint64) bool { return yield(keys.Unmap(u)) })
}

// Min returns the smallest key, or ok=false when empty (quiescent).
func (t *Tree) Min() (key int64, ok bool) {
	t.Ascend(func(k int64) bool {
		key, ok = k, true
		return false
	})
	return key, ok
}

// Max returns the largest key, or ok=false when empty (quiescent; linear
// scan — the concurrent structures do not maintain parent pointers for a
// cheap descent).
func (t *Tree) Max() (key int64, ok bool) {
	t.Ascend(func(k int64) bool {
		key, ok = k, true
		return true
	})
	return key, ok
}

// AscendRange visits keys in [from, to] in ascending order (quiescent).
func (t *Tree) AscendRange(from, to int64, yield func(key int64) bool) {
	t.Ascend(func(k int64) bool {
		if k < from {
			return true
		}
		if k > to {
			return false
		}
		return yield(k)
	})
}

// Scan visits keys in [from, to] in ascending order until yield returns
// false, and unlike AscendRange it is safe to run concurrently with
// writers: the traversal holds an epoch pin on each shard it walks, so
// reclamation can never recycle a node mid-scan.
//
// The scan is weakly consistent, like a concurrent-map iterator: keys
// present throughout are visited exactly once, keys inserted or deleted
// concurrently may or may not appear, and the result is not a linearizable
// snapshot. Bounds outside the storable key range are clamped. This is the
// traversal the network server uses for range queries.
func (t *Tree) Scan(from, to int64, yield func(key int64) bool) {
	if to > MaxKey {
		to = MaxKey
	}
	if from > to {
		return
	}
	// The merged stream is sorted because the shards cover disjoint
	// ascending ranges.
	t.f.Range(mapKey(from), mapKey(to), func(u uint64) bool {
		return yield(keys.Unmap(u))
	})
}

// Validate checks the backing structure's invariants (quiescent);
// primarily for tests and debugging.
func (t *Tree) Validate() error { return t.f.Audit() }

// Health is a point-in-time capacity and reclamation report. Counter
// fields are monotonic totals; gauge fields (stalled slots, backlog) are
// instantaneous and may be stale by the time they are read.
type Health struct {
	// Capacity is the configured node bound (0 = unbounded growth).
	Capacity int
	// NodesAllocated counts arena slots handed out since creation;
	// NodesRecycled counts slots returned for reuse. Live consumption is
	// bounded by Allocated - Recycled.
	NodesAllocated uint64
	NodesRecycled  uint64
	// ReclaimEnabled reports whether epoch-based reclamation is on. The
	// fields below are zero when it is off.
	ReclaimEnabled bool
	// Epoch is the global reclamation epoch; EpochSlots and PinnedSlots
	// count registered and currently pinned reader slots.
	Epoch       uint64
	EpochSlots  int
	PinnedSlots int
	// StalledSlots counts pinned slots lagging the global epoch — each
	// one freezes reclamation until its goroutine unpins. MaxEpochLag is
	// the worst lag observed (at most 1 under this protocol).
	StalledSlots int
	MaxEpochLag  uint64
	// RetiredBacklog counts nodes retired but not yet recycled.
	RetiredBacklog int
}

// Health reports capacity and reclamation diagnostics. It is safe to call
// concurrently with operations and is primarily useful for detecting a
// tree near its capacity bound or a stalled reader blocking reclamation.
func (t *Tree) Health() Health {
	ch := t.f.Health()
	return Health{
		Capacity:       ch.Capacity,
		NodesAllocated: ch.Allocated,
		NodesRecycled:  ch.Recycled,
		ReclaimEnabled: ch.Reclaim,
		Epoch:          ch.Epoch,
		EpochSlots:     ch.Slots,
		PinnedSlots:    ch.Pinned,
		StalledSlots:   ch.Stalled,
		MaxEpochLag:    ch.MaxEpochLag,
		RetiredBacklog: ch.RetiredBacklog,
	}
}

// Close retires the tree's reclamation domain: every remaining epoch slot
// (including those of pooled handles backing the convenience methods) is
// closed so no slot can ever again pin an epoch, and retired nodes whose
// grace period allows it are recycled. Call it when the tree is quiescent —
// typically on a server's drain path, after all accessors are Closed and no
// operation is in flight. After Close the tree must not be used. Close is
// idempotent.
func (t *Tree) Close() error {
	if t.agg != nil {
		t.agg.Close()
	}
	t.f.Close()
	return nil
}

// NewAccessor returns a per-goroutine fast path. The accessor must not be
// shared between goroutines; the Tree itself remains safe for shared use.
func (t *Tree) NewAccessor() Accessor { return &accessor{h: t.f.NewHandle()} }

// accessor carries, besides the forest handle, the batch scratch buffers
// (batch.go) — which is why accessors are pointers: batch calls grow the
// scratch in place so steady state never allocates.
type accessor struct {
	h  *forest.Handle
	sc batchScratch
}

func (a *accessor) Insert(key int64) bool   { return a.h.Insert(mapKey(key)) }
func (a *accessor) Delete(key int64) bool   { return a.h.Delete(mapKey(key)) }
func (a *accessor) Contains(key int64) bool { return a.h.Search(mapKey(key)) }

func (a *accessor) TryInsert(key int64) (bool, error) {
	u, err := tryMapKey(key)
	if err != nil {
		return false, err
	}
	return a.h.TryInsert(u)
}

func (a *accessor) Close() error {
	a.h.Close()
	return nil
}
