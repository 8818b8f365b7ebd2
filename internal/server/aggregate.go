package server

import (
	bst "repro"
	"repro/internal/wire"
)

// AggregateStore is the optional order-statistics capability a Store may
// offer. *bst.Tree built with bst.WithOrderStatistics satisfies it, and
// durable.Tree forwards to its underlying tree (aggregates are reads —
// nothing to log). A store without it answers every OpAggregate with
// StatusNoIndex, discovered by the same type-assertion idiom the server
// already uses for LastSeq.
type AggregateStore interface {
	Rank(key int64, c bst.Consistency) (int, error)
	Select(i int, c bst.Consistency) (int64, error)
	CountRange(lo, hi int64, c bst.Consistency) (int, error)
	SumRange(lo, hi int64, c bst.Consistency) (int64, error)
}

// executeAggregate answers an OpAggregate from the store's order-statistics
// summary. Aggregates are reads: the role gate lets them through on any
// replica, and they log nothing. A store without the capability answers
// StatusNoIndex, like a tree built without order statistics.
func (s *Server) executeAggregate(x *call) {
	s.stats.aggregates.Add(1)
	q := &x.req
	cons := bst.BoundedStale(q.MaxDirty)
	if q.Mode == wire.AggModeExact {
		cons = bst.Exact
	}
	agg, can := s.cfg.Store.(AggregateStore)
	var n int
	err := bst.ErrNoOrderStats
	switch {
	case !can:
	case q.Kind == wire.AggRank:
		n, err = agg.Rank(q.Key, cons)
	case q.Kind == wire.AggSelect:
		x.resp.Value, err = agg.Select(int(q.Key), cons)
	case q.Kind == wire.AggCount:
		n, err = agg.CountRange(q.Key, q.To, cons)
	case q.Kind == wire.AggSum:
		x.resp.Value, err = agg.SumRange(q.Key, q.To, cons)
	}
	if q.Kind == wire.AggRank || q.Kind == wire.AggCount {
		x.resp.Value = int64(n)
	}
	x.resp.OK = err == nil
	x.resp.Status = s.statusOf(err)
}
