// Package metrics is the live contention-telemetry layer for the
// arena-backed Natarajan–Mittal tree (internal/core).
//
// The paper's whole argument is about atomic-instruction counts and
// contention behaviour (Table 1, Section 4); core.Stats can only show that
// offline, per handle, after a run. This package makes the same signals —
// CAS failures per step, helping, seek restarts, epoch advancement, latency
// distributions — scrapeable while a workload runs, at a cost low enough to
// leave the measurement itself credible.
//
// # Design
//
// A Registry owns one Shard per tree handle. A shard is written by exactly
// one goroutine (handles are single-goroutine by contract), so its counters
// are updated with an atomic load and an atomic store, never an atomic add.
// On amd64 the store compiles to XCHGQ, which is implicitly locked: one
// uncontended locked exchange per bump, on a line one handle owns. It never
// fails, and it is not one of the CAS/BTS instructions Table 1 counts.
// Shards are cache-line padded so neighbouring shards never false-share.
// Scrapers sum all shards; a scrape never blocks a writer.
//
// Latency is recorded into power-of-two-bucket histograms: bucket i counts
// operations whose duration d satisfies bits.Len64(d ns) == i, i.e.
// d ∈ [2^(i-1), 2^i). Recording allocates nothing. Because reading the
// clock twice would dominate a ~100ns tree operation, latency is *sampled*:
// each handle times one in every SampleEvery operations (default 64) and
// counts the rest untimed. Counters are never sampled.
//
// When a tree is built without a Registry every instrumentation site costs
// a single nil check, so the uninstrumented baseline is unchanged.
package metrics

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one sharded event counter. The set mirrors the atomic
// steps of the algorithm (insert CAS; the delete steps flag, tag, splice)
// plus the contention events the paper discusses (helping, restarts).
type Counter int

const (
	// OpsSearch/OpsInsert/OpsDelete count completed operations, so rates
	// (CAS failures per op, restarts per op) can be derived from a scrape.
	OpsSearch Counter = iota
	OpsInsert
	OpsDelete
	// SeekRestarts counts operation retries: an insert or delete that had
	// to re-execute its seek phase after a failed atomic step.
	SeekRestarts
	// InsertRetries counts insert attempts beyond the first (a subset of
	// SeekRestarts, kept separate to match Table 1's per-operation story).
	InsertRetries
	// InsertCASFailures counts failures of insert's single CAS.
	InsertCASFailures
	// DeleteFlagCASFailures counts failures of delete step 1 (flag the
	// edge into the target leaf — the injection CAS).
	DeleteFlagCASFailures
	// DeleteTagCASFailures counts failures of delete step 2 when the tree
	// runs in CAS-only mode (the BTS emulation loop); always zero when the
	// one-shot fetch-or is used, which cannot fail.
	DeleteTagCASFailures
	// DeleteSpliceCASFailures counts failures of delete step 3 (splice the
	// sibling up to the ancestor — the prune CAS).
	DeleteSpliceCASFailures
	// HelpOther counts cleanup invocations on behalf of another thread's
	// delete (the algorithm's only helping).
	HelpOther
	// SpliceWins counts successful splice CASes (physical removals).
	SpliceWins
	// PrunedLeaves counts leaves physically removed by winning splices; a
	// value above SpliceWins means single CASes removed several logically
	// deleted leaves at once (the paper's batched-cleanup effect).
	PrunedLeaves
	// CapacityFailures counts TryInserts that returned ErrCapacity;
	// CapacityRetries counts epoch-flush retries on that path.
	CapacityFailures
	CapacityRetries
	// BatchOps counts operations executed through the batched entry points
	// (these also count in OpsSearch/OpsInsert/OpsDelete, so the batched
	// fraction of traffic can be derived from one scrape).
	BatchOps
	// BatchSeekSkippedLevels counts the levels batched operations'
	// wavefront seeks shared: a key riding on another key's read of the
	// same node skips that level. Retries re-seek from the root and skip
	// nothing. Divided by BatchOps it measures how much of the
	// root-to-leaf descent batching amortizes away.
	BatchSeekSkippedLevels

	// NumCounters is the size of a shard's counter array.
	NumCounters
)

// counterNames are the stable export names (snake_case, no prefix); the
// HTTP layer prefixes them and maps some onto labelled Prometheus families.
var counterNames = [NumCounters]string{
	OpsSearch:               "ops_search_total",
	OpsInsert:               "ops_insert_total",
	OpsDelete:               "ops_delete_total",
	SeekRestarts:            "seek_restarts_total",
	InsertRetries:           "insert_retries_total",
	InsertCASFailures:       "cas_failures_insert_total",
	DeleteFlagCASFailures:   "cas_failures_flag_total",
	DeleteTagCASFailures:    "cas_failures_tag_total",
	DeleteSpliceCASFailures: "cas_failures_splice_total",
	HelpOther:               "help_other_total",
	SpliceWins:              "splice_wins_total",
	PrunedLeaves:            "pruned_leaves_total",
	CapacityFailures:        "capacity_failures_total",
	CapacityRetries:         "capacity_retries_total",
	BatchOps:                "batch_ops_total",
	BatchSeekSkippedLevels:  "batch_seek_skipped_levels_total",
}

// Name returns the counter's stable export name.
func (c Counter) Name() string { return counterNames[c] }

// Op identifies a latency-profiled operation kind.
type Op int

const (
	OpSearch Op = iota
	OpInsert
	OpDelete
	NumOps
)

var opNames = [NumOps]string{"search", "insert", "delete"}

// Name returns the operation's stable export name.
func (o Op) Name() string { return opNames[o] }

// NumBuckets is the number of power-of-two latency buckets. Bucket i spans
// [2^(i-1), 2^i) nanoseconds; 40 buckets reach ~9 minutes, far beyond any
// plausible tree operation. The last bucket absorbs everything larger.
const NumBuckets = 40

// BucketUpperNanos returns bucket i's exclusive upper bound in nanoseconds.
func BucketUpperNanos(i int) uint64 { return uint64(1) << uint(i) }

// Histogram is a single-writer power-of-two-bucket nanosecond histogram:
// the one writer updates it with plain atomic load/store pairs (no
// read-modify-write), readers load atomically, so a scrape never blocks
// the writer. Bucket i counts durations in [2^(i-1), 2^i) ns. The shards'
// per-op latencies, the WAL's fsync durations and the checkpointer's
// snapshot durations all record into it.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
}

// Observe records one duration. Single-writer; allocation-free.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	i := bits.Len64(ns)
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	b := &h.buckets[i]
	b.Store(b.Load() + 1)
	h.count.Store(h.count.Load() + 1)
	h.sum.Store(h.sum.Load() + ns)
}

// Snapshot returns the histogram's cumulative contents.
func (h *Histogram) Snapshot() LatencySnapshot {
	var l LatencySnapshot
	for i := range h.buckets {
		l.Buckets[i] = h.buckets[i].Load()
	}
	l.Count = h.count.Load()
	l.SumNanos = h.sum.Load()
	return l
}

// DefaultSampleEvery is the default latency sampling period: one timed
// operation per this many (per handle). Power of two so the fast-path test
// is a mask.
const DefaultSampleEvery = 64

// shardPad rounds the shard struct up past a cache line multiple so
// adjacent heap objects cannot share a line with a shard's hot counters.
const shardPad = 64 - (int(NumCounters)*8+int(NumOps)*(NumBuckets+2)*8)%64

// Shard is one handle's private slice of the registry. Exactly one
// goroutine writes a shard; any number may read it through snapshots.
type Shard struct {
	counters [NumCounters]atomic.Uint64
	hists    [NumOps]Histogram
	_        [shardPad]byte
}

// Inc adds 1 to counter c. Single-writer: an atomic load and store instead
// of an atomic add, which is sufficient (atomicity is only needed against
// concurrent *readers*). The store is still a locked exchange (XCHGQ) on
// amd64, uncontended on a line this shard owns; it never fails.
func (s *Shard) Inc(c Counter) {
	v := &s.counters[c]
	v.Store(v.Load() + 1)
}

// Add adds delta to counter c (single-writer, like Inc).
func (s *Shard) Add(c Counter, delta uint64) {
	v := &s.counters[c]
	v.Store(v.Load() + delta)
}

// Observe records one sampled operation latency. Allocation-free.
func (s *Shard) Observe(op Op, d time.Duration) { s.hists[op].Observe(d) }

// Registry aggregates shards for one tree. Shard creation and snapshots
// take a mutex; shard *writes* never do.
type Registry struct {
	sampleMask uint64

	mu     sync.Mutex
	shards []*Shard
	base   Snapshot // folded-in totals of retired (closed) shards
	hooks  []func(*Snapshot)
}

// NewRegistry creates a registry. sampleEvery is the latency sampling
// period; 0 selects DefaultSampleEvery, 1 times every operation, other
// values are rounded up to a power of two.
func NewRegistry(sampleEvery int) *Registry {
	if sampleEvery <= 0 {
		sampleEvery = DefaultSampleEvery
	}
	if sampleEvery&(sampleEvery-1) != 0 {
		sampleEvery = 1 << bits.Len64(uint64(sampleEvery))
	}
	r := &Registry{sampleMask: uint64(sampleEvery) - 1}
	r.base = emptySnapshot(uint64(sampleEvery))
	return r
}

// SampleMask returns the handle-side sampling mask: a handle times an
// operation when tick&mask == 0.
func (r *Registry) SampleMask() uint64 { return r.sampleMask }

// NewShard creates and registers a shard for one handle.
func (r *Registry) NewShard() *Shard {
	s := &Shard{}
	r.mu.Lock()
	r.shards = append(r.shards, s)
	r.mu.Unlock()
	return s
}

// Retire folds a shard's totals into the registry's base and drops the
// shard, so a tree that churns through many short-lived handles keeps a
// bounded registry without losing history. The shard's owner must not
// write to it afterwards.
func (r *Registry) Retire(s *Shard) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, sh := range r.shards {
		if sh == s {
			r.base.addShard(s)
			r.shards[i] = r.shards[len(r.shards)-1]
			r.shards = r.shards[:len(r.shards)-1]
			return
		}
	}
}

// AddHook registers fn to run during Snapshot, letting the tree fold in
// counters and gauges maintained outside the sharded hot path (arena spill
// hits, epoch advances, backlog gauges). Hooks run under the registry
// mutex; keep them fast.
func (r *Registry) AddHook(fn func(*Snapshot)) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// LatencySnapshot is one operation kind's histogram at a point in time.
type LatencySnapshot struct {
	Buckets  [NumBuckets]uint64 // Buckets[i]: samples in [2^(i-1), 2^i) ns
	Count    uint64             // total samples (sum of Buckets)
	SumNanos uint64             // total sampled nanoseconds
}

// Quantile returns an approximate q-quantile (0 < q ≤ 1) in nanoseconds:
// the upper bound of the bucket containing the q-th sample. Returns 0 for
// an empty histogram.
func (l LatencySnapshot) Quantile(q float64) uint64 {
	if l.Count == 0 {
		return 0
	}
	target := uint64(q * float64(l.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range l.Buckets {
		cum += l.Buckets[i]
		if cum >= target {
			return BucketUpperNanos(i)
		}
	}
	return BucketUpperNanos(NumBuckets - 1)
}

// Add folds o's samples into l.
func (l *LatencySnapshot) Add(o LatencySnapshot) {
	for i := range o.Buckets {
		l.Buckets[i] += o.Buckets[i]
	}
	l.Count += o.Count
	l.SumNanos += o.SumNanos
}

// MeanNanos returns the mean sampled latency in nanoseconds.
func (l LatencySnapshot) MeanNanos() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.SumNanos) / float64(l.Count)
}

// Snapshot is a cumulative view of a registry: sharded counters summed
// across live and retired shards, plus whatever the registered hooks fold
// in. Counters and External values are monotonic; Gauges are instantaneous.
type Snapshot struct {
	SampleEvery uint64
	Counters    [NumCounters]uint64
	Latency     [NumOps]LatencySnapshot
	External    map[string]uint64  // hook-supplied monotonic counters
	Gauges      map[string]float64 // hook-supplied instantaneous values
	// ExternalLatency holds hook-supplied histograms that are not one of
	// the fixed per-op histograms — e.g. the WAL's fsync durations or the
	// checkpointer's snapshot durations. Keys are export names without the
	// "bst_" prefix ("wal_fsync_seconds"); values are cumulative.
	ExternalLatency map[string]LatencySnapshot
}

func emptySnapshot(sampleEvery uint64) Snapshot {
	return Snapshot{
		SampleEvery:     sampleEvery,
		External:        map[string]uint64{},
		Gauges:          map[string]float64{},
		ExternalLatency: map[string]LatencySnapshot{},
	}
}

// Snapshot sums all shards and runs the hooks. Values are monotonic but,
// under concurrent load, not a consistent cut (each word is read
// atomically; words are read at slightly different instants).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := emptySnapshot(r.sampleMask + 1)
	s.add(&r.base)
	for _, sh := range r.shards {
		s.addShard(sh)
	}
	for _, fn := range r.hooks {
		fn(&s)
	}
	return s
}

func (s *Snapshot) addShard(sh *Shard) {
	for i := range sh.counters {
		s.Counters[i] += sh.counters[i].Load()
	}
	for op := range sh.hists {
		s.Latency[op].Add(sh.hists[op].Snapshot())
	}
}

func (s *Snapshot) add(o *Snapshot) {
	for i := range o.Counters {
		s.Counters[i] += o.Counters[i]
	}
	for op := range o.Latency {
		s.Latency[op].Add(o.Latency[op])
	}
	for k, v := range o.External {
		s.External[k] += v
	}
	for k, v := range o.Gauges {
		s.Gauges[k] = v
	}
	for k, v := range o.ExternalLatency {
		s.AddLatency(k, v)
	}
}

// AddLatency folds l into the hook-supplied histogram name, so several
// sources (one per WAL lane, one per store) sum into one series.
func (s *Snapshot) AddLatency(name string, l LatencySnapshot) {
	cur := s.ExternalLatency[name]
	cur.Add(l)
	s.ExternalLatency[name] = cur
}

// Sub returns the delta s−prev for all monotonic values; gauges keep their
// current (s) values, since deltas of instantaneous readings are
// meaningless.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := emptySnapshot(s.SampleEvery)
	for i := range s.Counters {
		d.Counters[i] = s.Counters[i] - prev.Counters[i]
	}
	for op := range s.Latency {
		l := &d.Latency[op]
		for b := range s.Latency[op].Buckets {
			l.Buckets[b] = s.Latency[op].Buckets[b] - prev.Latency[op].Buckets[b]
		}
		l.Count = s.Latency[op].Count - prev.Latency[op].Count
		l.SumNanos = s.Latency[op].SumNanos - prev.Latency[op].SumNanos
	}
	for k, v := range s.External {
		d.External[k] = v - prev.External[k]
	}
	for k, v := range s.Gauges {
		d.Gauges[k] = v
	}
	for k, v := range s.ExternalLatency {
		p := prev.ExternalLatency[k]
		l := LatencySnapshot{Count: v.Count - p.Count, SumNanos: v.SumNanos - p.SumNanos}
		for i := range v.Buckets {
			l.Buckets[i] = v.Buckets[i] - p.Buckets[i]
		}
		d.ExternalLatency[k] = l
	}
	return d
}

// CounterMap flattens the named counters and hook-supplied external
// counters into one map keyed by stable export name (for JSON emission).
func (s Snapshot) CounterMap() map[string]uint64 {
	m := make(map[string]uint64, int(NumCounters)+len(s.External))
	for i := Counter(0); i < NumCounters; i++ {
		m[i.Name()] = s.Counters[i]
	}
	for k, v := range s.External {
		m[k] = v
	}
	return m
}
