// Package bst (import path "repro") is a library of concurrent binary
// search trees reproducing "Fast Concurrent Lock-Free Binary Search Trees"
// by Natarajan and Mittal (PPoPP 2014).
//
// The default algorithm is the paper's contribution — a lock-free external
// BST that coordinates deletions by marking *edges* (flag and tag bits
// packed beside each child address) so that an insert commits with a
// single CAS and a delete with three atomic instructions. The baselines
// the paper evaluates against (Ellen et al., Howley–Jones, Bronson et al.)
// are included as selectable algorithms, all behind one interface.
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

	"repro/internal/bcco"
	"repro/internal/cgl"
	"repro/internal/core"
	"repro/internal/efrb"
	"repro/internal/forest"
	"repro/internal/hjbst"
	"repro/internal/keys"
	"repro/internal/kst"
	"repro/internal/nmboxed"
)

// MaxKey is the largest storable key (the top of the int64 range is
// reserved for the algorithm's sentinel keys).
const MaxKey int64 = keys.MaxUser

// ErrCapacity is returned by TryInsert when a capacity-bounded tree
// (WithCapacity, NatarajanMittal algorithm) cannot allocate a node: the
// arena is exhausted and — if reclamation is enabled — bounded retries
// with epoch flushes recovered nothing. The tree stays fully usable:
// Contains and Delete keep working, and TryInsert succeeds again once
// deletes plus reclamation recycle slots.
var ErrCapacity = core.ErrCapacity

// ErrKeyOutOfRange is returned by TryInsert for keys above MaxKey (the
// panicking methods keep panicking, matching the map/slice convention for
// programmer errors; the Try path never panics).
var ErrKeyOutOfRange = errors.New("bst: key exceeds MaxKey")

// Algorithm selects a concurrent BST implementation.
type Algorithm int

const (
	// NatarajanMittal is the paper's lock-free external BST over a packed
	// node arena: child words carry the flag/tag bits next to a 32-bit
	// node index, so the paper's single-word CAS and BTS apply literally.
	// This is the default and the fastest under write-heavy contention.
	NatarajanMittal Algorithm = iota
	// NatarajanMittalBoxed is the same algorithm with each edge boxed as
	// an immutable {child, flag, tag} record behind an atomic pointer —
	// the GC-friendly encoding, with no arena capacity to size but extra
	// allocation on every mark.
	NatarajanMittalBoxed
	// EllenEtAl is the lock-free external BST of Ellen, Fatourou, Ruppert
	// and van Breugel (PODC 2010), which coordinates via node-level
	// flagging with Info records.
	EllenEtAl
	// HowleyJones is the lock-free internal BST of Howley and Jones
	// (SPAA 2012); faster searches on large sets, costlier deletes.
	HowleyJones
	// Bronson is the lock-based optimistic relaxed-balance AVL tree of
	// Bronson, Casper, Chafi and Olukotun (PPoPP 2010). The only balanced
	// tree in the set — best worst-case search paths.
	Bronson
	// CoarseLock is a single-RWMutex sequential BST: the baseline floor.
	CoarseLock
	// KAry is a lock-free k-ary external search tree — the paper's named
	// future-work direction (Section 6), with single-CAS leaf-replacement
	// updates. Fan-out defaults to 4; set it with WithArity. Empty-leaf
	// pruning is not implemented (the open problem the paper proposes to
	// solve with edge marking), so prefer NatarajanMittal for unbounded
	// fresh-key churn.
	KAry
)

func (a Algorithm) String() string {
	switch a {
	case NatarajanMittal:
		return "natarajan-mittal"
	case NatarajanMittalBoxed:
		return "natarajan-mittal-boxed"
	case EllenEtAl:
		return "ellen-et-al"
	case HowleyJones:
		return "howley-jones"
	case Bronson:
		return "bronson"
	case CoarseLock:
		return "coarse-lock"
	case KAry:
		return "k-ary"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

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
	// results. On the default algorithm the batch shares one tree descent
	// across sorted keys, amortizing the per-operation seek; each
	// operation remains individually linearizable (a batch is neither
	// atomic nor a snapshot). Batched methods never panic on out-of-range
	// keys — the slot reports ErrKeyOutOfRange — and inserts report
	// ErrCapacity per-op, so a failure affects only its own slot. The
	// accessor reuses its batch buffers across calls: the steady-state
	// batch path does not allocate.
	ContainsBatch(keys []int64, out []OpResult)
	InsertBatch(keys []int64, out []OpResult)
	DeleteBatch(keys []int64, out []OpResult)
	// Close releases the accessor's per-goroutine resources — its epoch
	// slot (so a parked accessor can never again stall reclamation), its
	// reserved arena slots, and its metrics shard (folded into the tree's
	// registry so counts survive). After Close the accessor must not be
	// used. Close is a no-op for algorithms without per-accessor state;
	// long-lived services (see internal/server) should always pair
	// NewAccessor with Close on their drain path.
	Close() error
}

// backend is satisfied by every internal tree implementation.
type backend interface {
	Search(key uint64) bool
	Insert(key uint64) bool
	Delete(key uint64) bool
	Size() int
	Keys(yield func(uint64) bool)
	Audit() error
}

// rawAccessor is the per-goroutine view every implementation provides.
type rawAccessor interface {
	Search(key uint64) bool
	Insert(key uint64) bool
	Delete(key uint64) bool
}

type config struct {
	algo          Algorithm
	capacity      int
	reclaim       bool
	arity         int
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

// WithAlgorithm selects the implementation (default NatarajanMittal).
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.algo = a } }

// WithCapacity bounds total node allocations for the arena-backed
// NatarajanMittal algorithm (ignored by the others). Without reclamation
// every insert permanently consumes two nodes; with WithReclamation the
// bound applies to live nodes plus a small recycling float.
func WithCapacity(nodes int) Option { return func(c *config) { c.capacity = nodes } }

// WithReclamation enables epoch-based memory reclamation for the
// arena-backed NatarajanMittal algorithm, recycling nodes spliced out of
// the tree once no concurrent operation can reference them. The paper
// benchmarks without reclamation; enable this for long-lived sets.
func WithReclamation() Option { return func(c *config) { c.reclaim = true } }

// WithArity sets the fan-out of the KAry algorithm (2–64, default 4);
// other algorithms ignore it.
func WithArity(k int) Option { return func(c *config) { c.arity = k } }

// Tree is a concurrent ordered set of int64 keys. All methods are safe for
// concurrent use unless noted.
type Tree struct {
	algo Algorithm
	b    backend // a *forest.Forest (one shard or more) for NatarajanMittal

	// agg merges the forest's per-shard order-statistics indexes
	// (WithOrderStatistics, NatarajanMittal only); nil when order
	// statistics are off, and every aggregate method then answers
	// ErrNoOrderStats.
	agg *forest.Aggregates
}

// New creates a concurrent BST (Natarajan–Mittal unless overridden).
func New(opts ...Option) *Tree {
	cfg := config{algo: NatarajanMittal}
	for _, o := range opts {
		o(&cfg)
	}
	t := &Tree{algo: cfg.algo}
	switch cfg.algo {
	case NatarajanMittal:
		f, agg, err := newForest(cfg)
		if err != nil {
			panic(fmt.Sprintf("bst: %v", err))
		}
		t.b, t.agg = f, agg
	case NatarajanMittalBoxed:
		t.b = nmboxed.New()
	case EllenEtAl:
		t.b = efrb.New()
	case HowleyJones:
		t.b = hjbst.New()
	case Bronson:
		t.b = bcco.New()
	case CoarseLock:
		t.b = cgl.New()
	case KAry:
		arity := cfg.arity
		if arity == 0 {
			arity = 4
		}
		t.b = kst.New(arity)
	default:
		panic(fmt.Sprintf("bst: unknown algorithm %v", cfg.algo))
	}
	return t
}

// Algorithm reports which implementation backs the tree.
func (t *Tree) Algorithm() Algorithm { return t.algo }

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

// tryInserter is implemented by backends with a fallible allocation path.
type tryInserter interface {
	TryInsert(key uint64) (bool, error)
}

// Insert adds key; it reports whether the set changed.
func (t *Tree) Insert(key int64) bool { return t.b.Insert(mapKey(key)) }

// TryInsert adds key; it reports whether the set changed. It is the
// non-panicking variant of Insert: keys above MaxKey return
// ErrKeyOutOfRange, and on a capacity-bounded tree (WithCapacity with the
// NatarajanMittal algorithm) allocation failure returns ErrCapacity
// instead of panicking, leaving the tree fully usable. Algorithms without
// an allocation bound never return ErrCapacity.
func (t *Tree) TryInsert(key int64) (bool, error) {
	u, err := tryMapKey(key)
	if err != nil {
		return false, err
	}
	if ti, ok := t.b.(tryInserter); ok {
		return ti.TryInsert(u)
	}
	return t.b.Insert(u), nil
}

// Delete removes key; it reports whether the set changed.
func (t *Tree) Delete(key int64) bool { return t.b.Delete(mapKey(key)) }

// Contains reports whether key is present.
func (t *Tree) Contains(key int64) bool { return t.b.Search(mapKey(key)) }

// Len returns the number of keys. It requires a quiescent tree (no
// concurrent writers) to be exact.
func (t *Tree) Len() int { return t.b.Size() }

// Ascend visits keys in ascending order until yield returns false. It
// requires a quiescent tree for an exact snapshot.
func (t *Tree) Ascend(yield func(key int64) bool) {
	t.b.Keys(func(u uint64) bool { return yield(keys.Unmap(u)) })
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
// writers. For the default arena-backed algorithm the traversal holds an
// epoch pin, so reclamation can never recycle a node mid-scan; for the
// GC-reclaimed algorithms the garbage collector provides the same safety.
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
	if f, ok := t.b.(*forest.Forest); ok {
		// One epoch pin per shard; the merged stream is sorted because the
		// shards cover disjoint ascending ranges.
		f.Range(mapKey(from), mapKey(to), func(u uint64) bool {
			return yield(keys.Unmap(u))
		})
		return
	}
	// GC-backed algorithms: the quiescent walk is memory-safe under
	// concurrency (no manual reclamation), with the same weak consistency.
	t.AscendRange(from, to, yield)
}

// Validate checks the backing structure's invariants (quiescent);
// primarily for tests and debugging.
func (t *Tree) Validate() error { return t.b.Audit() }

// Health is a point-in-time capacity and reclamation report. Counter
// fields are monotonic totals; gauge fields (stalled slots, backlog) are
// instantaneous and may be stale by the time they are read. For
// algorithms other than NatarajanMittal only Algorithm is meaningful.
type Health struct {
	// Algorithm backs the tree.
	Algorithm Algorithm
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
	h := Health{Algorithm: t.algo}
	f, ok := t.b.(*forest.Forest)
	if !ok {
		return h
	}
	ch := f.Health()
	h.Capacity = ch.Capacity
	h.NodesAllocated = ch.Allocated
	h.NodesRecycled = ch.Recycled
	h.ReclaimEnabled = ch.Reclaim
	h.Epoch = ch.Epoch
	h.EpochSlots = ch.Slots
	h.PinnedSlots = ch.Pinned
	h.StalledSlots = ch.Stalled
	h.MaxEpochLag = ch.MaxEpochLag
	h.RetiredBacklog = ch.RetiredBacklog
	return h
}

// Stats is an alias-level summary of Health's counter fields, kept
// separate so hot monitoring paths can avoid the full report.
type Stats struct {
	NodesAllocated uint64
	NodesRecycled  uint64
	RetiredBacklog int
}

// Stats reports allocation counters (see Health for the full report).
func (t *Tree) Stats() Stats {
	h := t.Health()
	return Stats{
		NodesAllocated: h.NodesAllocated,
		NodesRecycled:  h.NodesRecycled,
		RetiredBacklog: h.RetiredBacklog,
	}
}

// Close retires the tree's reclamation domain: every remaining epoch slot
// (including those of pooled handles backing the convenience methods) is
// closed so no slot can ever again pin an epoch, and retired nodes whose
// grace period allows it are recycled. Call it when the tree is quiescent —
// typically on a server's drain path, after all accessors are Closed and no
// operation is in flight. After Close the tree must not be used. Close is
// idempotent and a no-op for algorithms without reclamation state.
func (t *Tree) Close() error {
	if t.agg != nil {
		t.agg.Close()
	}
	if f, ok := t.b.(*forest.Forest); ok {
		f.Close()
	}
	return nil
}

// NewAccessor returns a per-goroutine fast path. The accessor must not be
// shared between goroutines; the Tree itself remains safe for shared use.
func (t *Tree) NewAccessor() Accessor {
	switch b := t.b.(type) {
	case *forest.Forest:
		return &accessor{r: b.NewHandle()}
	case *nmboxed.Tree:
		return &accessor{r: b.NewHandle()}
	case *efrb.Tree:
		return &accessor{r: b.NewHandle()}
	case *hjbst.Tree:
		return &accessor{r: b.NewHandle()}
	case *bcco.Tree:
		return &accessor{r: b.NewHandle()}
	case *kst.Tree:
		return &accessor{r: b.NewHandle()}
	default: // coarse lock: the tree is its own accessor
		return &accessor{r: t.b}
	}
}

// accessor carries, besides the backend's per-goroutine view, the batch
// scratch buffers (batch.go) — which is why accessors are pointers: batch
// calls grow the scratch in place so steady state never allocates.
type accessor struct {
	r  rawAccessor
	sc batchScratch
}

func (a *accessor) Insert(key int64) bool   { return a.r.Insert(mapKey(key)) }
func (a *accessor) Delete(key int64) bool   { return a.r.Delete(mapKey(key)) }
func (a *accessor) Contains(key int64) bool { return a.r.Search(mapKey(key)) }

func (a *accessor) TryInsert(key int64) (bool, error) {
	u, err := tryMapKey(key)
	if err != nil {
		return false, err
	}
	if ti, ok := a.r.(tryInserter); ok {
		return ti.TryInsert(u)
	}
	return a.r.Insert(u), nil
}

func (a *accessor) Close() error {
	if c, ok := a.r.(interface{ Close() }); ok {
		c.Close()
	}
	return nil
}

// Algorithms lists all selectable implementations.
func Algorithms() []Algorithm {
	return []Algorithm{NatarajanMittal, NatarajanMittalBoxed, EllenEtAl, HowleyJones, Bronson, CoarseLock, KAry}
}
