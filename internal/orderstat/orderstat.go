// Package orderstat is the lazily-refreshed order-statistics layer over
// the lock-free external BST (internal/core): rank, select, count-in-range
// and sum-in-range in O(log n), without adding a single atomic
// read-modify-write to the paper's insert and delete hot paths.
//
// # Why writers never CAS summary words
//
// The classic augmented-tree design stores a subtree size in every
// internal node and has writers update the sizes on the path they touched.
// In the NM-BST that is a non-starter: an insert is one CAS and a delete
// is three atomics precisely because nothing above the operation's edge is
// written, and a delete's splice CAS can excise a whole chain of tagged
// nodes whose ancestors' summaries would all need fixing — by whichever of
// several racing helpers happens to win. Making writers maintain exact
// summaries would reintroduce the multi-word coordination the paper's
// design eliminates.
//
// Instead, writers only bump a per-handle sharded dirty counter and log
// the mutated key in a ring the handle owns (core.Config.TrackDirty — the
// internal/metrics single-writer pattern: atomic stores on memory the
// handle owns, each an uncontended locked exchange on amd64, no CAS), and
// a refresher reconciles summaries in waves:
//
//	keys, d0 := dirty.Drain()      // before any walk
//	for each bucket a drained key falls in:
//	    rescan it (epoch-pinned core.Handle.Range over its key range)
//	share every other bucket, rebuild the bucket directory
//	publish Summary{..., CleanDirty: d0}
//
// A rescan runs under the same epoch pin as any Scan, so it sees every key
// whose insert completed before the pin and is indifferent to racers — the
// scan's usual weak-consistency contract. Reading d0 *before* the walk
// makes CleanDirty a sound freshness token: a mutation stores its key
// before its bump, so either its bump preceded the drain (it is counted in
// d0, its key was drained, and its bucket is rescanned after it completed)
// or it did not (it is not counted in d0, and the next drain returns its
// key). If dirty.Total() still equals CleanDirty at query time, every
// completed mutation is covered, and answering from the summary is
// equivalent to running a fresh epoch-pinned scan at the query's
// linearization point.
//
// A wave walks the whole tree instead when it cannot trust the drained
// keys (the first wave, or a drain that reports a lapped ring or a dropped
// log) or when the touched buckets hold most of the keys anyway. The full
// walk is cut into buckets by the same builder.
//
// # The summary shape
//
// A Summary is an immutable bucket directory: ascending bucket lower
// bounds covering the whole mapped key space, each bucket's sorted keys
// and prefix sums (one per sumStride keys) in exactly-sized arrays, and
// cumulative count and sum arrays across buckets. A wave rebuilds only the directory (O(n/B) for
// bucket size B) and the rescanned buckets; every clean bucket's arrays
// are shared with the previous summary, so no Fenwick tree is needed.
// Publishing is one atomic pointer store, so readers are lock-free and
// never observe a half-built summary. Queries are two binary searches —
// over the bucket bounds (or cumulative counts), then inside one bucket —
// so every query is O(log n), even when the live tree is a degenerate
// spine (sequential inserts build one: the external BST does not
// rebalance).
//
// # Consistency menu
//
//   - Exact: serve the cached summary iff CleanDirty == dirty.Total(),
//     else run (or join) a refresh wave and answer from its result. Cost:
//     O(log n) when clean; when not, one wave — rescans of the touched
//     buckets — amortized over all concurrent exact queries.
//   - BoundedStale(m): serve the cached summary iff at most m mutations
//     have completed since it was built. Each completed mutation moves
//     any count, rank or selection index by at most 1, so every answer is
//     within m (plus in-flight racers) of an exact one.
package orderstat

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
)

// ErrNotTracked reports an Index built over a tree without
// core.Config.TrackDirty: with no dirty counter there is no freshness
// token, and every staleness bound would be a lie.
var ErrNotTracked = errors.New("orderstat: tree was built without TrackDirty")

// Bucket sizing: a full walk cuts buckets of bucketTarget keys; a rescanned
// bucket that grew past maxBucket is split, and one that shrank below
// minBucket merges with a neighbour. So every bucket of a summary with more
// than one bucket holds between minBucket and maxBucket keys.
//
// A bucket keeps one prefix sum per sumStride keys, and a sum query adds
// at most sumStride-1 keys to one: per-key sums would double the memory
// the key searches spread over, and every query pays for that in cache
// and TLB misses.
const (
	bucketTarget = 128
	maxBucket    = 2 * bucketTarget
	minBucket    = bucketTarget / 4
	sumStride    = 16
)

// bucket is one key range's slice of the summary. Immutable once built;
// successive summaries share the buckets no wave touched.
type bucket struct {
	keys []uint64 // mapped keys, ascending
	// sums[i] is the sum of the user keys keys[:min((i+1)*sumStride,
	// len(keys))] (int64 wraparound), so the last entry is the bucket's.
	sums []int64
}

// Summary is one published wave: a bucket directory over the tree's
// in-order key sequence, and the dirty total read before the wave's walks.
// Immutable once published; readers share it lock-free.
type Summary struct {
	lo       []uint64 // lo[j]: bucket j's lower bound; lo[0] == 0, ascending
	buckets  []bucket
	cumCount []int   // cumCount[j]: keys in buckets [0, j); len(buckets)+1 entries
	cumSum   []int64 // cumSum[j]: sum of the user keys in buckets [0, j)

	// CleanDirty is the dirty counter total read before the wave's walk
	// began. The summary is exact while the counter still reads this.
	CleanDirty uint64
	// Wave numbers the refresh that built this summary (diagnostics).
	Wave uint64
}

// Index is the order-statistics accessor for one core tree. All methods
// are safe for concurrent use; queries on a clean summary are lock-free.
type Index struct {
	t     *core.Tree
	dirty *core.DirtyCounter

	// mu serializes refresh waves and guards the wave state below: h, the
	// walker handle, and the drained keys, rescan and bucket scratch
	// reused from wave to wave.
	mu      sync.Mutex
	h       *core.Handle
	log     []uint64
	scan    []uint64
	touched []int

	cur    atomic.Pointer[Summary]
	closed bool

	// Telemetry (see Stats). The wave counters move only on the wave path,
	// under mu; served moves once per query answered from the cache.
	waves, fullWaves, rescanned, walked, waveNanos atomic.Uint64
	served                                         atomic.Uint64
}

// New builds an Index over t. The tree must have been created with
// Config.TrackDirty; the index registers one long-lived handle for its
// refresh walks and is the dirty counter's only drainer.
func New(t *core.Tree) (*Index, error) {
	if t.Dirty() == nil {
		return nil, ErrNotTracked
	}
	ix := &Index{t: t, dirty: t.Dirty(), h: t.NewHandle()}
	var b builder
	b.emit(0, nil)
	ix.cur.Store(b.summary()) // empty tree, never-written token
	return ix, nil
}

// Close releases the index's walker handle. The index must be quiescent.
func (ix *Index) Close() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.closed {
		ix.h.Close()
		ix.closed = true
	}
}

// Stats is a snapshot of an index's refresh telemetry.
type Stats struct {
	Waves            uint64 // refresh waves run
	FullWaves        uint64 // waves that walked the whole tree
	BucketsRescanned uint64 // buckets rescanned by incremental waves
	KeysWalked       uint64 // keys visited by all wave walks
	WaveNanos        uint64 // wall time spent in waves
	Served           uint64 // queries answered from a cached summary
	Buckets          int    // buckets in the current summary
}

// Stats returns the index's refresh telemetry.
func (ix *Index) Stats() Stats {
	return Stats{
		Waves:            ix.waves.Load(),
		FullWaves:        ix.fullWaves.Load(),
		BucketsRescanned: ix.rescanned.Load(),
		KeysWalked:       ix.walked.Load(),
		WaveNanos:        ix.waveNanos.Load(),
		Served:           ix.served.Load(),
		Buckets:          len(ix.cur.Load().buckets),
	}
}

// MetricsHook folds the index's refresh telemetry into a registry
// snapshot (bst_orderstat_* series). Register it on a registry:
//
//	reg.AddHook(ix.MetricsHook)
//
// Every value is added, so the hooks of several indexes (a forest's
// shards) sum into one set of series.
func (ix *Index) MetricsHook(s *metrics.Snapshot) {
	st := ix.Stats()
	s.External["orderstat_waves_total"] += st.Waves
	s.External["orderstat_full_waves_total"] += st.FullWaves
	s.External["orderstat_buckets_rescanned_total"] += st.BucketsRescanned
	s.External["orderstat_keys_walked_total"] += st.KeysWalked
	s.External["orderstat_wave_nanos_total"] += st.WaveNanos
	s.External["orderstat_served_total"] += st.Served
	s.Gauges["orderstat_buckets"] += float64(st.Buckets)
}

// Acquire returns a summary satisfying the requested consistency: exact
// (no completed mutation uncounted) or bounded-stale (at most maxDirty
// completed mutations uncounted). A summary that fails the test triggers
// a refresh wave; concurrent acquirers join the same wave via mu.
func (ix *Index) Acquire(exact bool, maxDirty uint64) *Summary {
	s := ix.cur.Load()
	lag := ix.dirty.Total() - s.CleanDirty
	if s.Wave == 0 {
		// The constructor's placeholder: only trust it when the tree has
		// truly never been written (lag covers that), never as "clean".
		if lag == 0 && !exact {
			ix.served.Add(1)
			return s
		}
	} else if lag == 0 || (!exact && lag <= maxDirty) {
		ix.served.Add(1)
		return s
	}
	return ix.Refresh()
}

// Refresh runs one wave: drain the dirty keys and total, rescan the
// buckets those keys fall in (or walk the whole tree when the drain cannot
// be trusted or most keys are touched anyway), publish the result. Returns
// the published summary (which may be a concurrent wave's result that is
// already clean enough). Superseded summaries are garbage collected once
// their readers finish — readers never block a wave.
func (ix *Index) Refresh() *Summary {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	prev := ix.cur.Load()
	var d0 uint64
	var overflow bool
	ix.log, d0, overflow = ix.dirty.Drain(ix.log[:0])
	if prev.Wave > 0 && prev.CleanDirty == d0 && !overflow {
		// A wave we queued behind already covers every mutation completed
		// before our drain; rebuilding would produce the same answer.
		return prev
	}
	start := time.Now()
	var s *Summary
	if prev.Wave == 0 || overflow {
		s = ix.fullWalk(prev.Len())
	} else if js, ok := ix.touchedBuckets(prev); !ok {
		s = ix.fullWalk(prev.Len())
	} else {
		s = ix.rescan(prev, js)
	}
	s.CleanDirty, s.Wave = d0, ix.waves.Add(1)
	ix.waveNanos.Add(uint64(time.Since(start)))
	ix.cur.Store(s)
	return s
}

// touchedBuckets maps the drained keys to the distinct buckets of prev
// they fall in, ascending. ok is false when those buckets hold more than
// half of prev's keys: one full walk then costs less than the rescans.
func (ix *Index) touchedBuckets(prev *Summary) (js []int, ok bool) {
	slices.Sort(ix.log)
	js = ix.touched[:0]
	held := 0
	for _, u := range ix.log {
		j := prev.find(u)
		if len(js) > 0 && js[len(js)-1] == j {
			continue
		}
		js = append(js, j)
		held += len(prev.buckets[j].keys)
	}
	ix.touched = js
	return js, 2*held <= prev.Len()
}

// fullWalk walks the whole tree once, cutting it into buckets of
// bucketTarget keys as it goes. n is a size hint for the directory.
func (ix *Index) fullWalk(n int) *Summary {
	b := newBuilder(n/bucketTarget + 1)
	lo, ks, walked := uint64(0), ix.scan[:0], 0
	ix.h.Range(0, keys.Map(keys.MaxUser), func(u uint64) bool {
		if len(ks) == bucketTarget {
			b.emit(lo, ks)
			lo, ks = u, ks[:0]
		}
		ks = append(ks, u)
		walked++
		return true
	})
	b.place(lo, ks)
	ix.scan = ks
	ix.fullWaves.Add(1)
	ix.walked.Add(uint64(walked))
	return b.summary()
}

// rescan builds the next summary from prev by rescanning the buckets js
// (ascending) and sharing every other bucket. A rescanned range too small
// to stand alone absorbs the bucket after it (rescanning that one too if
// it is also touched), or, at the end of the key space, joins the bucket
// before it; one too large is split.
func (ix *Index) rescan(prev *Summary, js []int) *Summary {
	nb := len(prev.buckets)
	b := newBuilder(nb + len(js))
	next := 0 // first bucket of prev not yet carried into b
	for i := 0; i < len(js); {
		j := js[i]
		i++
		b.share(prev, next, j)
		ks := ix.walk(prev, j, ix.scan[:0])
		for next = j + 1; len(ks) < minBucket && next < nb; next++ {
			if i < len(js) && js[i] == next {
				ks = ix.walk(prev, next, ks)
				i++
			} else {
				ks = append(ks, prev.buckets[next].keys...)
			}
		}
		b.place(prev.lo[j], ks)
		ix.scan = ks
	}
	b.share(prev, next, nb)
	return b.summary()
}

// walk appends the live keys in prev's bucket j's key range to dst, with
// one epoch-pinned range scan.
func (ix *Index) walk(prev *Summary, j int, dst []uint64) []uint64 {
	hi := keys.Map(keys.MaxUser)
	if j+1 < len(prev.lo) {
		hi = prev.lo[j+1] - 1
	}
	n := len(dst)
	ix.h.Range(prev.lo[j], hi, func(u uint64) bool {
		dst = append(dst, u)
		return true
	})
	ix.rescanned.Add(1)
	ix.walked.Add(uint64(len(dst) - n))
	return dst
}

// builder accumulates the next summary's buckets in key order.
type builder struct {
	lo      []uint64
	buckets []bucket
}

func newBuilder(n int) *builder {
	return &builder{lo: make([]uint64, 0, n), buckets: make([]bucket, 0, n)}
}

// share carries prev's buckets [from, to) over unchanged.
func (b *builder) share(prev *Summary, from, to int) {
	b.lo = append(b.lo, prev.lo[from:to]...)
	b.buckets = append(b.buckets, prev.buckets[from:to]...)
}

// emit appends one bucket with lower bound lo holding a copy of ks.
func (b *builder) emit(lo uint64, ks []uint64) {
	bk := bucket{keys: slices.Clone(ks), sums: make([]int64, (len(ks)+sumStride-1)/sumStride)}
	var sum int64
	for i, u := range ks {
		sum += keys.Unmap(u)
		if (i+1)%sumStride == 0 || i+1 == len(ks) {
			bk.sums[i/sumStride] = sum
		}
	}
	b.lo = append(b.lo, lo)
	b.buckets = append(b.buckets, bk)
}

// place appends ks, the keys of one rebuilt range starting at lo and
// ending where the next bucket begins, as buckets. A range below
// minBucket joins the bucket before it (callers have already folded in
// the buckets after it, so it only stays short when it is the whole
// summary); a range above maxBucket is cut into pieces of bucketTarget
// keys, a short remainder folding into the last piece.
func (b *builder) place(lo uint64, ks []uint64) {
	if last := len(b.buckets) - 1; len(ks) < minBucket && last >= 0 {
		lo, ks = b.lo[last], append(slices.Clip(b.buckets[last].keys), ks...)
		b.lo, b.buckets = b.lo[:last], b.buckets[:last]
	}
	if len(ks) <= maxBucket {
		b.emit(lo, ks)
		return
	}
	for len(ks) > 0 {
		n := bucketTarget
		if len(ks)-n < minBucket {
			n = len(ks)
		}
		b.emit(lo, ks[:n])
		ks = ks[n:]
		if len(ks) > 0 {
			lo = ks[0]
		}
	}
}

// summary finishes the directory: the cumulative count and sum arrays.
func (b *builder) summary() *Summary {
	s := &Summary{
		lo:       b.lo,
		buckets:  b.buckets,
		cumCount: make([]int, len(b.buckets)+1),
		cumSum:   make([]int64, len(b.buckets)+1),
	}
	for j, bk := range b.buckets {
		s.cumCount[j+1] = s.cumCount[j] + len(bk.keys)
		s.cumSum[j+1] = s.cumSum[j]
		if n := len(bk.sums); n > 0 {
			s.cumSum[j+1] += bk.sums[n-1]
		}
	}
	return s
}

// --- Queries: a binary search over the bucket bounds (or cumulative
// counts) picks the bucket, a second one inside it finds the position, and
// the cumulative arrays turn that position into a global rank or sum.

// Len returns the number of keys the summary covers.
func (s *Summary) Len() int { return s.cumCount[len(s.buckets)] }

// find returns the bucket whose key range holds u: the last one whose
// lower bound is at most u (lo[0] == 0 bounds every key).
func (s *Summary) find(u uint64) int {
	a, b := 0, len(s.lo)
	for b-a > 1 {
		m := int(uint(a+b) >> 1)
		if s.lo[m] <= u {
			a = m
		} else {
			b = m
		}
	}
	return a
}

// locate returns u's position: the bucket j whose range holds u and the
// number k of that bucket's keys strictly less than u.
func (s *Summary) locate(u uint64) (j, k int) {
	j = s.find(u)
	ks := s.buckets[j].keys
	a, b := 0, len(ks)
	for a < b {
		m := int(uint(a+b) >> 1)
		if ks[m] < u {
			a = m + 1
		} else {
			b = m
		}
	}
	return j, a
}

// sumBefore returns the sum of the user keys before position (j, k): the
// cumulative sum of the buckets before j, the prefix sum of the strides
// before k, and the at most sumStride-1 keys between.
func (s *Summary) sumBefore(j, k int) int64 {
	bk, q := &s.buckets[j], k/sumStride
	sum := s.cumSum[j]
	if q > 0 {
		sum += bk.sums[q-1]
	}
	for _, u := range bk.keys[q*sumStride : k] {
		sum += keys.Unmap(u)
	}
	return sum
}

// Rank returns the number of keys strictly less than u.
func (s *Summary) Rank(u uint64) int {
	j, k := s.locate(u)
	return s.cumCount[j] + k
}

// Select returns the i-th smallest key (0-based); ok is false when i is
// out of range. The owning bucket is the last one whose cumulative count
// is at most i.
func (s *Summary) Select(i int) (uint64, bool) {
	if i < 0 || i >= s.Len() {
		return 0, false
	}
	a, b := 0, len(s.buckets)
	for b-a > 1 {
		m := int(uint(a+b) >> 1)
		if s.cumCount[m] <= i {
			a = m
		} else {
			b = m
		}
	}
	return s.buckets[a].keys[i-s.cumCount[a]], true
}

// Count returns the number of keys in [lo, hi] (inclusive, matching the
// tree's Range): the rank search run at both boundaries.
func (s *Summary) Count(lo, hi uint64) int {
	if lo > hi {
		return 0
	}
	end := s.Len()
	if hi != ^uint64(0) { // Rank(hi+1) would wrap; nothing exceeds hi
		end = s.Rank(hi + 1)
	}
	return end - s.Rank(lo)
}

// Sum returns the sum of the user (unmapped int64) keys in [lo, hi],
// with int64 wraparound on overflow: the difference of the prefix sums
// at the two boundary positions.
func (s *Summary) Sum(lo, hi uint64) int64 {
	if lo > hi {
		return 0
	}
	end := s.cumSum[len(s.buckets)]
	if hi != ^uint64(0) {
		end = s.sumBefore(s.locate(hi + 1))
	}
	return end - s.sumBefore(s.locate(lo))
}

// Visit yields the summary's keys in [lo, hi] ascending — the planner
// behind the indexed scan: the search seeks directly to the range's first
// key, where a plain tree scan would walk and discard every key before it.
func (s *Summary) Visit(lo, hi uint64, yield func(u uint64) bool) {
	if lo > hi {
		return
	}
	j, k := s.locate(lo)
	for ; j < len(s.buckets); j, k = j+1, 0 {
		for _, u := range s.buckets[j].keys[k:] {
			if u > hi || !yield(u) {
				return
			}
		}
	}
}
