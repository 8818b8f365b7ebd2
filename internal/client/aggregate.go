package client

import (
	"context"
	"errors"
	"fmt"

	bst "repro"
	"repro/internal/wire"
)

// Order-statistics queries over the wire. Each maps to one OpAggregate
// frame through the same retry loop and status table as the point
// operations; the server answers from its lazily-refreshed summary
// (bst.WithOrderStatistics), so a count over a million-key range costs one
// frame and an O(log n) lookup, not a streamed range. A server whose store has no index answers
// StatusNoIndex, surfaced as bst.ErrNoOrderStats — permanent, don't retry.

// Consistency names the freshness an aggregate query demands, mirroring
// bst.Consistency: Exact linearizes against a summary refresh; otherwise
// the answer may lag at most MaxDirty completed mutations (per shard).
type Consistency struct {
	Exact    bool
	MaxDirty uint64
}

// query builds the aggregate request for kind under c.
func (c Consistency) query(kind uint8, key, to int64) wire.Request {
	q := wire.Request{Op: wire.OpAggregate, Kind: kind, Mode: wire.AggModeStale, MaxDirty: c.MaxDirty, Key: key, To: to}
	if c.Exact {
		q.Mode = wire.AggModeExact
	}
	return q
}

// Rank returns the number of keys strictly less than key.
func (cl *Client) Rank(ctx context.Context, key int64, c Consistency) (int64, error) {
	return cl.aggregate(ctx, c.query(wire.AggRank, key, 0))
}

// Select returns the i-th smallest key (0-based); an index outside
// [0, count) answers bst.ErrSelectOutOfRange.
func (cl *Client) Select(ctx context.Context, i int64, c Consistency) (int64, error) {
	v, err := cl.aggregate(ctx, c.query(wire.AggSelect, i, 0))
	if errors.Is(err, bst.ErrKeyOutOfRange) {
		// The wire's out-of-range status names the index here.
		err = fmt.Errorf("%w: %d", bst.ErrSelectOutOfRange, i)
	}
	return v, err
}

// CountRange returns the number of keys in [lo, hi], inclusive.
func (cl *Client) CountRange(ctx context.Context, lo, hi int64, c Consistency) (int64, error) {
	return cl.aggregate(ctx, c.query(wire.AggCount, lo, hi))
}

// SumRange returns the sum of the keys in [lo, hi], inclusive.
func (cl *Client) SumRange(ctx context.Context, lo, hi int64, c Consistency) (int64, error) {
	return cl.aggregate(ctx, c.query(wire.AggSum, lo, hi))
}

// aggregate runs one aggregate query through the single-op retry loop.
func (cl *Client) aggregate(ctx context.Context, q wire.Request) (int64, error) {
	resp, err := cl.point(ctx, q)
	return resp.Value, err
}
