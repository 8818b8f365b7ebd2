// Package forest shards the internal uint64 key space across several
// independent core trees (internal/core), multiplying every per-tree
// resource that has become a global contention point: each shard owns its
// own arena allocator (and therefore its own spill pool), its own
// epoch-reclamation domain, and its own metrics shard population — trees
// over disjoint key ranges never interact, so no coordination is needed
// between shards (the observation that makes the Natarajan–Mittal design
// embarrassingly partitionable).
//
// # Routing
//
// Keys are routed by a range split: the configured routing range [Lo, Hi]
// is cut into n contiguous spans of equal power-of-two width, so the hot
// path computes the shard as one subtract and one shift — no division, no
// per-shard comparison loop. Keys outside [Lo, Hi] are legal and clamp to
// the first/last shard, which keeps the full key space storable even when
// the caller declares a narrower expected range for balance.
//
// Because the split is by range (not hash), ordered operations stay
// cheap: a merged Range is the concatenation of per-shard ranges in shard
// order, and a sorted batch splits into per-shard runs with a single
// pass.
//
// # What is shared, what is not
//
// Nothing is shared between shards. Arena indices are arena-local 32-bit
// values, so a slot can never migrate between shards — a shard that
// exhausts its capacity returns ErrCapacity even if a sibling has room
// (see DESIGN.md on the spill policy). A metrics registry MAY be shared
// across shards (Config.Tree.Metrics): per-handle shards are
// registry-local and the per-tree snapshot hooks accumulate, so one
// registry yields forest-wide totals.
package forest

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
)

// MaxShards bounds the shard count (sanity bound, not a scaling limit).
const MaxShards = 256

// Config tunes a Forest.
type Config struct {
	// Shards is the number of independent trees. Values are rounded up to
	// a power of two (routing is a shift); below 2 means one tree, which
	// routes every key to shard 0.
	Shards int
	// Lo and Hi bound the expected key range (internal mapped key space,
	// inclusive). The range is split evenly across shards, so a caller
	// that knows its key distribution should pass its real bounds; keys
	// outside the range still work but clamp to the edge shards. Zero
	// values (Lo == 0 && Hi == 0) select the full user key space.
	Lo, Hi uint64
	// Tree configures every shard. Capacity is the TOTAL node bound and
	// is split evenly (ceiling) across shards; zero keeps the core
	// default per shard. A non-nil Metrics registry is shared by all
	// shards.
	Tree core.Config
}

// Forest is a sharded set of core trees over disjoint key ranges. All
// methods are safe for concurrent use; hot paths should use a per-goroutine
// Handle.
type Forest struct {
	trees []*core.Tree
	n     int
	lo    uint64 // routing range start (mapped key space)
	hi    uint64 // routing range end, inclusive
	shift uint   // per-shard span is 1<<shift mapped keys
	met   *metrics.Registry
}

// New builds a forest of cfg.Shards independent trees. With one shard the
// per-shard span is the whole routing range — over the full key space the
// shift is 64, which Go evaluates to 0 — and keys beyond it clamp, so every
// key routes to shard 0.
func New(cfg Config) (*Forest, error) {
	if cfg.Shards > MaxShards {
		return nil, fmt.Errorf("forest: %d shards exceeds limit %d", cfg.Shards, MaxShards)
	}
	n := 1
	if cfg.Shards > 1 {
		n = 1 << uint(bits.Len(uint(cfg.Shards-1))) // round up to power of two
	}
	lo, hi := cfg.Lo, cfg.Hi
	if lo == 0 && hi == 0 {
		hi = keys.Map(keys.MaxUser)
	}
	if lo > hi {
		return nil, fmt.Errorf("forest: empty routing range [%d, %d]", lo, hi)
	}
	span := hi - lo + 1 // cannot overflow: hi < MaxUint64 (sentinels are reserved)
	per := span / uint64(n)
	if span%uint64(n) != 0 {
		per++
	}
	shift := uint(bits.Len64(per - 1)) // smallest s with 1<<s >= per
	f := &Forest{n: n, lo: lo, hi: hi, shift: shift, met: cfg.Tree.Metrics}
	tc := cfg.Tree
	if tc.Capacity > 0 {
		tc.Capacity = (tc.Capacity + n - 1) / n
	}
	f.trees = make([]*core.Tree, n)
	for i := range f.trees {
		f.trees[i] = core.New(tc)
	}
	if f.met != nil {
		shards := n
		f.met.AddHook(func(s *metrics.Snapshot) {
			s.Gauges["forest_shards"] += float64(shards)
		})
	}
	return f, nil
}

// Shards returns the effective shard count (input rounded up to a power of
// two).
func (f *Forest) Shards() int { return f.n }

// ShardOf routes a mapped key to its shard: one subtract, one shift, and
// two clamping branches for keys outside the configured routing range.
func (f *Forest) ShardOf(u uint64) int {
	if u <= f.lo {
		return 0
	}
	s := (u - f.lo) >> f.shift
	if s >= uint64(f.n) {
		return f.n - 1
	}
	return int(s)
}

// satShl returns x << s saturating at MaxUint64 instead of wrapping.
func satShl(x uint64, s uint) uint64 {
	if s >= 64 || x > (^uint64(0))>>s {
		return ^uint64(0)
	}
	return x << s
}

// Bounds returns the inclusive mapped-key range routed to shard i. The
// first shard's range starts at 0 and the last extends to the top of the
// user key space, mirroring ShardOf's clamping.
func (f *Forest) Bounds(i int) (lo, hi uint64) {
	if i < 0 || i >= f.n {
		panic(fmt.Sprintf("forest: shard %d out of range [0,%d)", i, f.n))
	}
	if i == 0 {
		lo = 0
	} else {
		lo = satAdd(f.lo, satShl(uint64(i), f.shift))
	}
	if i == f.n-1 {
		hi = keys.Map(keys.MaxUser)
	} else {
		hi = satAdd(f.lo, satShl(uint64(i+1), f.shift)) - 1
	}
	return lo, hi
}

func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// Tree returns shard i's underlying core tree (checkpoint/recovery paths
// address shards directly).
func (f *Forest) Tree(i int) *core.Tree { return f.trees[i] }

// Metrics returns the shared registry, or nil.
func (f *Forest) Metrics() *metrics.Registry { return f.met }

// --- Tree-level convenience operations (pooled handles inside each core
// tree). Hot paths should use a Handle instead.

// Search reports whether key is present.
func (f *Forest) Search(key uint64) bool { return f.trees[f.ShardOf(key)].Search(key) }

// Insert adds key; it reports whether the set changed. It panics on arena
// exhaustion of the key's shard; use TryInsert for the fail-soft path.
func (f *Forest) Insert(key uint64) bool { return f.trees[f.ShardOf(key)].Insert(key) }

// TryInsert adds key, reporting ErrCapacity instead of panicking when the
// key's shard is exhausted (sibling shards having room does not help: arena
// indices are arena-local and cannot migrate).
func (f *Forest) TryInsert(key uint64) (bool, error) { return f.trees[f.ShardOf(key)].TryInsert(key) }

// Delete removes key; it reports whether the set changed.
func (f *Forest) Delete(key uint64) bool { return f.trees[f.ShardOf(key)].Delete(key) }

// Size sums the shard sizes (quiescent for an exact count).
func (f *Forest) Size() int {
	n := 0
	for _, t := range f.trees {
		n += t.Size()
	}
	return n
}

// Keys visits every key in ascending order: shards cover disjoint
// ascending ranges, so concatenation in shard order is globally sorted.
func (f *Forest) Keys(yield func(key uint64) bool) {
	stop := false
	for _, t := range f.trees {
		t.Keys(func(u uint64) bool {
			if !yield(u) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Range visits keys in [lo, hi] ascending, pinning one epoch per shard
// (each shard's sub-range walk holds that shard's pin, exactly like a
// single tree's Range). Weakly consistent across shards: the merged stream
// is sorted, but shards are pinned at successive instants, not one global
// snapshot.
func (f *Forest) Range(lo, hi uint64, yield func(key uint64) bool) {
	if lo > hi {
		return
	}
	stop := false
	for s := f.ShardOf(lo); s <= f.ShardOf(hi); s++ {
		f.trees[s].Range(lo, hi, func(u uint64) bool {
			if !yield(u) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Audit validates every shard's structural invariants and that each key is
// routed to the shard that holds it (quiescent).
func (f *Forest) Audit() error {
	for i, t := range f.trees {
		if err := t.Audit(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		var bad error
		t.Keys(func(u uint64) bool {
			if got := f.ShardOf(u); got != i {
				bad = fmt.Errorf("shard %d holds key %d which routes to shard %d", i, u, got)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

// Health aggregates per-shard health: capacity and counters sum, epoch is
// the maximum across shards, stall gauges sum (any stalled slot anywhere
// starves that shard's reclamation).
func (f *Forest) Health() core.Health {
	var h core.Health
	for _, t := range f.trees {
		th := t.Health()
		h.Capacity += th.Capacity
		h.Allocated += th.Allocated
		h.Recycled += th.Recycled
		h.Reclaim = th.Reclaim
		if th.Epoch > h.Epoch {
			h.Epoch = th.Epoch
		}
		h.Slots += th.Slots
		h.Pinned += th.Pinned
		h.Stalled += th.Stalled
		if th.MaxEpochLag > h.MaxEpochLag {
			h.MaxEpochLag = th.MaxEpochLag
		}
		h.RetiredBacklog += th.RetiredBacklog
	}
	return h
}

// Close retires every shard's reclamation domain (quiescent; idempotent).
func (f *Forest) Close() {
	for _, t := range f.trees {
		t.Close()
	}
}

// --- Forest-level batches. These split at shard boundaries and run the
// per-shard sub-batches through each tree's pooled handles; the Handle
// batch paths below reuse buffers and run shards concurrently.

// LookupBatch reports, in out[i], whether ks[i] is present.
func (f *Forest) LookupBatch(ks []uint64, out []bool) {
	(&Handle{f: f}).batch(lookupKind, ks, out, nil)
}

// InsertBatch inserts every key with TryInsert semantics. A shard hitting
// ErrCapacity fails only its own keys' slots; sibling shards' operations
// proceed untouched.
func (f *Forest) InsertBatch(ks []uint64, out []bool, errs []error) {
	(&Handle{f: f}).batch(insertKind, ks, out, errs)
}

// DeleteBatch deletes every key.
func (f *Forest) DeleteBatch(ks []uint64, out []bool) {
	(&Handle{f: f}).batch(deleteKind, ks, out, nil)
}

// Handle is a single goroutine's accessor: one lazily created core handle
// per shard plus the scatter/gather scratch the batch paths reuse, so the
// steady-state batch path does not allocate. A Handle must not be shared
// between goroutines.
type Handle struct {
	f  *Forest
	hs []*core.Handle // lazily created per-shard handles

	// Batch scratch: per-shard key runs and their original positions, the
	// per-shard result buffers scattered back after the sub-batches, and
	// the shards the current batch touches.
	sks     [][]uint64
	sps     [][]int32
	soks    [][]bool
	serr    [][]error
	touched []int
}

// NewHandle returns a per-goroutine accessor. Shard handles are created on
// first touch, so a handle that only ever works one key range registers
// epoch slots only on the shards it uses.
func (f *Forest) NewHandle() *Handle {
	return &Handle{f: f, hs: make([]*core.Handle, f.n)}
}

func (h *Handle) handle(s int) *core.Handle {
	if h.hs == nil {
		h.hs = make([]*core.Handle, h.f.n)
	}
	if h.hs[s] == nil {
		h.hs[s] = h.f.trees[s].NewHandle()
	}
	return h.hs[s]
}

// Search reports whether key is present.
func (h *Handle) Search(key uint64) bool { return h.handle(h.f.ShardOf(key)).Search(key) }

// Insert adds key; it reports whether the set changed.
func (h *Handle) Insert(key uint64) bool { return h.handle(h.f.ShardOf(key)).Insert(key) }

// TryInsert is Insert with ErrCapacity instead of a panic on shard
// exhaustion.
func (h *Handle) TryInsert(key uint64) (bool, error) {
	return h.handle(h.f.ShardOf(key)).TryInsert(key)
}

// Delete removes key; it reports whether the set changed.
func (h *Handle) Delete(key uint64) bool { return h.handle(h.f.ShardOf(key)).Delete(key) }

// Range visits keys in [lo, hi] ascending under one epoch pin per shard.
func (h *Handle) Range(lo, hi uint64, yield func(key uint64) bool) {
	if lo > hi {
		return
	}
	stop := false
	for s := h.f.ShardOf(lo); s <= h.f.ShardOf(hi); s++ {
		h.handle(s).Range(lo, hi, func(u uint64) bool {
			if !yield(u) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Close releases every shard handle's resources (epoch slots, reserved
// arena indices, metrics shards).
func (h *Handle) Close() {
	for i, ch := range h.hs {
		if ch != nil {
			ch.Close()
			h.hs[i] = nil
		}
	}
}

// concurrencyFloor is the minimum total batch size at which a multi-shard
// batch fans out to one goroutine per touched shard. Below it the goroutine
// handoff costs more than the overlap buys.
const concurrencyFloor = 32

// batchKind selects the operation a batch applies to every key.
type batchKind uint8

const (
	lookupKind batchKind = iota
	insertKind
	deleteKind
)

// shardBatcher is the batch surface of one shard: its tree's pooled
// handles for a forest-level batch, or the Handle's own core handle.
type shardBatcher interface {
	LookupBatch(ks []uint64, out []bool)
	InsertBatch(ks []uint64, out []bool, errs []error)
	DeleteBatch(ks []uint64, out []bool)
}

// split routes ks into per-shard runs, recording each key's original
// position, sizes the per-shard result buffers, and lists the touched
// shards in h.touched. The input does not need to be sorted (a single
// routing pass beats a sort + binary search at every batch size, and the
// core sorts its sub-batch internally anyway).
func (h *Handle) split(ks []uint64) {
	n := h.f.n
	if h.sks == nil {
		h.sks = make([][]uint64, n)
		h.sps = make([][]int32, n)
		h.soks = make([][]bool, n)
		h.serr = make([][]error, n)
		h.touched = make([]int, 0, n)
	}
	for s := range h.sks {
		h.sks[s] = h.sks[s][:0]
		h.sps[s] = h.sps[s][:0]
	}
	for i, u := range ks {
		s := h.f.ShardOf(u)
		h.sks[s] = append(h.sks[s], u)
		h.sps[s] = append(h.sps[s], int32(i))
	}
	h.touched = h.touched[:0]
	for s := 0; s < n; s++ {
		m := len(h.sks[s])
		if m == 0 {
			continue
		}
		h.touched = append(h.touched, s)
		if cap(h.soks[s]) < m {
			h.soks[s] = make([]bool, m)
			h.serr[s] = make([]error, m)
		}
		if h.hs != nil {
			// Materialize the shard handle before any fan-out goroutine
			// runs, so the concurrent sub-batches never mutate h.hs.
			h.handle(s)
		}
	}
}

// batch runs one batch of the given kind: split at shard boundaries, run
// each touched shard's sub-batch, then scatter the per-shard results back
// into out (and errs, which only inserts pass). Shards run concurrently
// when the batch is large enough to amortize the fan-out; otherwise on
// the caller's goroutine, with no allocation.
func (h *Handle) batch(kind batchKind, ks []uint64, out []bool, errs []error) {
	if len(out) != len(ks) || (kind == insertKind && len(errs) != len(ks)) {
		panic("forest: batch result length mismatch")
	}
	h.split(ks)
	if len(h.touched) == 1 || len(ks) < concurrencyFloor {
		for _, s := range h.touched {
			h.runShard(kind, s)
		}
	} else {
		h.fanOut(kind)
	}
	for _, s := range h.touched {
		oks, es := h.soks[s], h.serr[s]
		for j, p := range h.sps[s] {
			out[p] = oks[j]
			if errs != nil {
				errs[p] = es[j]
			}
		}
	}
}

// fanOut runs every touched shard's sub-batch on its own goroutine, the
// first on the caller's. Each run owns its shard's core handle and buffers
// exclusively, so no locking is needed; shard failures are per-op statuses
// inside the buffers and can never affect a sibling shard's run.
func (h *Handle) fanOut(kind batchKind) {
	var wg sync.WaitGroup
	for _, s := range h.touched[1:] {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h.runShard(kind, s)
		}(s)
	}
	h.runShard(kind, h.touched[0])
	wg.Wait()
}

// runShard applies shard s's sub-batch.
func (h *Handle) runShard(kind batchKind, s int) {
	var b shardBatcher = h.f.trees[s]
	if h.hs != nil {
		b = h.hs[s]
	}
	ks := h.sks[s]
	oks := h.soks[s][:len(ks)]
	switch kind {
	case lookupKind:
		b.LookupBatch(ks, oks)
	case insertKind:
		b.InsertBatch(ks, oks, h.serr[s][:len(ks)])
	case deleteKind:
		b.DeleteBatch(ks, oks)
	}
}

// LookupBatch reports, in out[i], whether ks[i] is present. Same contract
// as core.Handle.LookupBatch, with the batch split at shard boundaries and
// touched shards seeking their wavefronts concurrently.
func (h *Handle) LookupBatch(ks []uint64, out []bool) { h.batch(lookupKind, ks, out, nil) }

// InsertBatch inserts every key with TryInsert semantics; out and errs are
// per-op. A shard exhausting its arena (ErrCapacity) fails only that
// shard's slots — the other shards' sub-batches run to completion
// regardless, by construction (they share no state).
func (h *Handle) InsertBatch(ks []uint64, out []bool, errs []error) {
	h.batch(insertKind, ks, out, errs)
}

// DeleteBatch deletes every key; out[i] reports whether the set changed.
func (h *Handle) DeleteBatch(ks []uint64, out []bool) { h.batch(deleteKind, ks, out, nil) }
