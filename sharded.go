package bst

import (
	"repro/internal/forest"
	"repro/internal/keys"
	"repro/internal/metrics"
)

// Sharding options. Every tree is a forest of independent core trees over
// disjoint key ranges (internal/forest); a tree built without WithShards
// is a forest of one. Each shard owns its own arena, reclamation domain,
// and WAL lane (when wrapped by internal/durable), so write throughput
// scales with shard count instead of funneling through one allocator and
// one group-commit line.

// WithShards splits the key space across n independent trees (n is rounded
// up to a power of two; 0 and 1 mean one shard). Point operations route by
// a range split — one subtract and one shift in the hot path. Scan merges
// per-shard iterators into one sorted stream. Each operation remains
// individually linearizable; operations on different shards are as
// independent as operations on one tree (see DESIGN.md §14 for the exact
// consistency scope).
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithShardRange declares the expected user key range [lo, hi] (inclusive)
// for shard balancing. The range split cuts this span evenly across
// shards; keys outside it remain storable but clamp to the first/last
// shard. Without it the full int64 space is split, which balances uniform
// random keys but routes a small dense range (say [0, 1e6)) to one shard.
func WithShardRange(lo, hi int64) Option {
	return func(c *config) {
		c.shardLo, c.shardHi = lo, hi
		c.shardRange = true
	}
}

// newForest builds the tree for New: the forest, its metrics registry
// (WithMetrics) and its order-statistics aggregates (WithOrderStatistics,
// else nil).
func newForest(cfg config) (*forest.Forest, *forest.Aggregates, error) {
	fc := forest.Config{Shards: cfg.shards}
	if cfg.shardRange {
		lo, hi := cfg.shardLo, cfg.shardHi
		if hi > MaxKey {
			hi = MaxKey
		}
		if lo > hi {
			lo = hi
		}
		fc.Lo, fc.Hi = keys.Map(lo), keys.Map(hi)
	}
	fc.Tree.Capacity = cfg.capacity
	fc.Tree.Reclaim = cfg.reclaim
	fc.Tree.TrackDirty = cfg.orderstat
	if cfg.metrics {
		fc.Tree.Metrics = metrics.NewRegistry(cfg.metricsSample)
	}
	f, err := forest.New(fc)
	if err != nil || !cfg.orderstat {
		return f, nil, err
	}
	agg, err := forest.NewAggregates(f)
	if err != nil {
		return nil, nil, err
	}
	if reg := fc.Tree.Metrics; reg != nil {
		reg.AddHook(agg.MetricsHook)
	}
	return f, agg, nil
}

// Shards reports the tree's effective shard count (WithShards rounded up
// to a power of two).
func (t *Tree) Shards() int { return t.f.Shards() }

// ShardOf reports which shard stores key (always 0 on one shard). The
// mapping is stable for the lifetime of the tree; the durable layer keys
// its WAL lanes on it. Keys above MaxKey route to the last shard, whose
// mutations answer ErrKeyOutOfRange; ShardOf itself never panics.
func (t *Tree) ShardOf(key int64) int {
	if !keys.InRange(key) {
		return t.f.Shards() - 1
	}
	return t.f.ShardOf(keys.Map(key))
}

// ShardKeyRange returns the inclusive user key range routed to shard i
// (the full storable range on one shard). Checkpoints scan one shard by
// passing these bounds to Scan.
func (t *Tree) ShardKeyRange(i int) (lo, hi int64) {
	ulo, uhi := t.f.Bounds(i)
	return keys.Unmap(ulo), keys.Unmap(uhi)
}
