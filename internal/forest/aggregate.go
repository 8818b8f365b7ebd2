package forest

import (
	"repro/internal/metrics"
	"repro/internal/orderstat"
)

// Aggregates answers order-statistics queries over a sharded forest by
// combining per-shard summaries (internal/orderstat): shards cover
// disjoint ascending key ranges and the routing split is monotone in the
// key, so every merge is a prefix-sum over shards in shard order — a rank
// is the full population of every shard left of the key's routing split
// plus the in-shard rank, a range count/sum touches only the shards the
// range overlaps, and a select walks shard populations until the index
// falls inside one.
//
// Consistency is per shard, exactly like the merged Scan: each touched
// shard's summary satisfies the requested mode (Exact = no completed
// mutation on THAT shard uncounted; BoundedStale(m) = at most m completed
// mutations on that shard uncounted) at the instant it is acquired, but
// shards are acquired at successive instants, not one cross-shard
// snapshot. A query spanning k shards under BoundedStale(m) is therefore
// within k·m of an exact answer.
type Aggregates struct {
	f  *Forest
	ix []*orderstat.Index
}

// NewAggregates builds one order-statistics index per shard. Every shard
// must have been configured with core.Config.TrackDirty (the forest
// constructor propagates Config.Tree verbatim, so one flag covers all).
func NewAggregates(f *Forest) (*Aggregates, error) {
	a := &Aggregates{f: f, ix: make([]*orderstat.Index, f.n)}
	for i, t := range f.trees {
		ix, err := orderstat.New(t)
		if err != nil {
			for _, built := range a.ix[:i] {
				built.Close()
			}
			return nil, err
		}
		a.ix[i] = ix
	}
	return a, nil
}

// Close releases every shard index's walker handle.
func (a *Aggregates) Close() {
	for _, ix := range a.ix {
		ix.Close()
	}
}

// Index returns shard i's order-statistics index (diagnostics, tests).
func (a *Aggregates) Index(i int) *orderstat.Index { return a.ix[i] }

// Rank returns the number of keys strictly less than u across the forest:
// whole populations of the shards left of u's routing split, plus the
// in-shard rank. Monotone routing guarantees every key in a lower shard
// is smaller than u.
func (a *Aggregates) Rank(u uint64, exact bool, maxDirty uint64) int {
	s := a.f.ShardOf(u)
	rank := 0
	for i := 0; i < s; i++ {
		rank += a.ix[i].Acquire(exact, maxDirty).Len()
	}
	return rank + a.ix[s].Acquire(exact, maxDirty).Rank(u)
}

// Len returns the forest's total key count under the requested mode.
func (a *Aggregates) Len(exact bool, maxDirty uint64) int {
	n := 0
	for _, ix := range a.ix {
		n += ix.Acquire(exact, maxDirty).Len()
	}
	return n
}

// Select returns the i-th smallest key (0-based) across the forest,
// walking shard populations in order until i lands inside one; ok is
// false when i is out of range.
func (a *Aggregates) Select(i int, exact bool, maxDirty uint64) (uint64, bool) {
	if i < 0 {
		return 0, false
	}
	for _, ix := range a.ix {
		s := ix.Acquire(exact, maxDirty)
		if i < s.Len() {
			return s.Select(i)
		}
		i -= s.Len()
	}
	return 0, false
}

// Count returns the number of keys in [lo, hi] (inclusive), summing the
// shards the range overlaps — each shard's summary holds only that
// shard's keys, so per-shard counts add with no double counting.
func (a *Aggregates) Count(lo, hi uint64, exact bool, maxDirty uint64) int {
	if lo > hi {
		return 0
	}
	n := 0
	for s := a.f.ShardOf(lo); s <= a.f.ShardOf(hi); s++ {
		n += a.ix[s].Acquire(exact, maxDirty).Count(lo, hi)
	}
	return n
}

// Sum returns the sum of user (unmapped int64) keys in [lo, hi], with
// int64 wraparound on overflow.
func (a *Aggregates) Sum(lo, hi uint64, exact bool, maxDirty uint64) int64 {
	if lo > hi {
		return 0
	}
	var sum int64
	for s := a.f.ShardOf(lo); s <= a.f.ShardOf(hi); s++ {
		sum += a.ix[s].Acquire(exact, maxDirty).Sum(lo, hi)
	}
	return sum
}

// Visit yields summary keys in [lo, hi] ascending: per-shard planned
// scans concatenated in shard order (disjoint ascending shard ranges keep
// the merged stream sorted).
func (a *Aggregates) Visit(lo, hi uint64, exact bool, maxDirty uint64, yield func(u uint64) bool) {
	if lo > hi {
		return
	}
	stop := false
	for s := a.f.ShardOf(lo); s <= a.f.ShardOf(hi); s++ {
		a.ix[s].Acquire(exact, maxDirty).Visit(lo, hi, func(u uint64) bool {
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

// MetricsHook folds every shard index's refresh telemetry into a registry
// snapshot; the shards' values sum into one set of bst_orderstat_* series.
func (a *Aggregates) MetricsHook(s *metrics.Snapshot) {
	for _, ix := range a.ix {
		ix.MetricsHook(s)
	}
}
