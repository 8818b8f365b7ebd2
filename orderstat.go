package bst

import (
	"errors"
	"fmt"

	"repro/internal/keys"
	"repro/internal/metrics"
)

// Order statistics & range aggregates. WithOrderStatistics attaches a
// lazily-refreshed augmentation layer (internal/orderstat) to every shard
// of the tree, so rank, select, count-in-range and sum-in-range answer in
// O(log n) instead of an O(range) scan.
// Writers pay one nil-checked counter bump per successful mutation, which
// also logs the key so a refresh probes only the keys that changed;
// no CAS or BTS is added to the lock-free hot paths (the bump's two stores
// are uncontended locked exchanges on amd64, on memory the handle owns).
// Every query names its consistency: Exact answers are equivalent to an
// epoch-pinned scan at the query's linearization point (forcing a summary
// refresh wave when mutations have completed since the last one),
// BoundedStale(m) accepts answers at most m completed mutations old in
// exchange for never paying a wave. See DESIGN.md §15 for the protocol
// and its staleness bounds.

// ErrNoOrderStats is returned by the aggregate queries when the tree was
// built without WithOrderStatistics.
var ErrNoOrderStats = errors.New("bst: order statistics not enabled (WithOrderStatistics)")

// ErrSelectOutOfRange is returned by Select when the requested index is
// negative or at least the tree's key count under the query's
// consistency mode.
var ErrSelectOutOfRange = errors.New("bst: select index out of range")

// WithOrderStatistics enables the order-statistics layer. Every shard gets
// its own index and aggregates merge across shards.
func WithOrderStatistics() Option { return func(c *config) { c.orderstat = true } }

// Consistency selects how fresh an aggregate answer must be. The zero
// value behaves like BoundedStale(0): cached summaries are served only
// while no mutation has completed since they were built.
type Consistency struct {
	exact    bool
	maxDirty uint64
}

// Exact demands an answer equivalent to an epoch-pinned scan at the
// query's linearization point: the cached summary is served only when no
// mutation has completed since it was built, otherwise the query runs (or
// joins) a refresh wave first. Mutations still in flight during the query
// may land on either side of it, exactly as with Scan.
var Exact = Consistency{exact: true}

// BoundedStale accepts an answer at most maxDirty completed mutations
// old: each completed insert or delete moves any rank, count or selection
// index by at most one, so the returned value is within maxDirty of an
// exact answer (per shard, on a sharded tree — a query spanning k shards
// is within k×maxDirty). Queries under BoundedStale never pay a refresh
// wave while the tree mutates slower than the budget.
func BoundedStale(maxDirty uint64) Consistency { return Consistency{maxDirty: maxDirty} }

func (c Consistency) String() string {
	if c.exact {
		return "exact"
	}
	return fmt.Sprintf("bounded-stale(%d)", c.maxDirty)
}

// Rank returns the number of keys strictly less than key under the given
// consistency. Keys above MaxKey are permitted (every stored key ranks
// below them).
func (t *Tree) Rank(key int64, c Consistency) (int, error) {
	if t.agg == nil {
		return 0, ErrNoOrderStats
	}
	if !keys.InRange(key) {
		return t.agg.Len(c.exact, c.maxDirty), nil
	}
	return t.agg.Rank(keys.Map(key), c.exact, c.maxDirty), nil
}

// Select returns the i-th smallest key (0-based) under the given
// consistency, or ErrSelectOutOfRange when i is outside [0, count).
func (t *Tree) Select(i int, c Consistency) (int64, error) {
	if t.agg == nil {
		return 0, ErrNoOrderStats
	}
	u, ok := t.agg.Select(i, c.exact, c.maxDirty)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrSelectOutOfRange, i)
	}
	return keys.Unmap(u), nil
}

// CountRange returns the number of keys in [lo, hi] (inclusive, matching
// Scan) under the given consistency. Bounds above MaxKey clamp; lo > hi
// counts zero.
func (t *Tree) CountRange(lo, hi int64, c Consistency) (int, error) {
	if t.agg == nil {
		return 0, ErrNoOrderStats
	}
	return t.agg.Count(keys.Map(lo), keys.Map(min(hi, MaxKey)), c.exact, c.maxDirty), nil
}

// SumRange returns the sum of the keys in [lo, hi] (inclusive) under the
// given consistency, with ordinary int64 wraparound on overflow.
func (t *Tree) SumRange(lo, hi int64, c Consistency) (int64, error) {
	if t.agg == nil {
		return 0, ErrNoOrderStats
	}
	return t.agg.Sum(keys.Map(lo), keys.Map(min(hi, MaxKey)), c.exact, c.maxDirty), nil
}

// ScanIndexed visits the keys in [from, to] ascending through the
// order-statistics summaries instead of walking the live tree: the
// planner prunes every subtree wholly outside the range, so positioning
// costs O(log n) and the visit touches only in-range keys. The stream's
// freshness is the summary's (per the consistency mode); for a
// walk-the-live-tree scan use Scan.
func (t *Tree) ScanIndexed(from, to int64, c Consistency, yield func(key int64) bool) error {
	if t.agg == nil {
		return ErrNoOrderStats
	}
	t.agg.Visit(keys.Map(from), keys.Map(min(to, MaxKey)), c.exact, c.maxDirty, func(u uint64) bool {
		return yield(keys.Unmap(u))
	})
	return nil
}

// ExportOrderStatsMetrics adds the order-statistics refresh telemetry to
// counters and gauges, under the series names Metrics reports when the
// tree has WithMetrics (without the "bst_" prefix the exporters add):
// orderstat_waves_total, orderstat_full_waves_total,
// orderstat_buckets_rescanned_total (buckets patched by incremental
// waves), orderstat_keys_walked_total (keys visited by full walks plus
// keys probed), orderstat_wave_nanos_total, orderstat_served_total and
// the orderstat_buckets gauge, summed over shards. It reads them on a
// tree built without WithMetrics; a WithMetrics tree's Metrics already
// carries them. A no-op on a tree without WithOrderStatistics.
func (t *Tree) ExportOrderStatsMetrics(counters map[string]uint64, gauges map[string]float64) {
	if t.agg != nil {
		t.agg.MetricsHook(&metrics.Snapshot{External: counters, Gauges: gauges})
	}
}
