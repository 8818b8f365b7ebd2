package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	bst "repro"
)

// Streams of the seeded generator, one per purpose, so changing how one
// input is drawn leaves the others as they were.
const (
	streamPrefill uint64 = iota + 1
	streamLoad           // the load goroutines take streamLoad, streamLoad+1, ...
)

// treeLayers is the per-layer view shared by the in-process workloads:
// Tree.Metrics counters under WithMetrics(1) and Tree.Health deltas,
// summed over the traced slices.
type treeLayers struct {
	tree   *bst.Tree
	tr     *tracer
	before treeProbe

	cas, helps, restarts   uint64
	allocated, recycled    uint64
	effInserts, effDeletes uint64 // set-changing mutations, from the model
	counters               func() effective
}

// effective counts set-changing mutations as the model predicts them.
type effective struct{ inserts, deletes uint64 }

func (e *effective) note(op opKind, changed bool) {
	if !changed {
		return
	}
	switch op {
	case opInsert:
		e.inserts++
	case opDelete:
		e.deletes++
	}
}

type treeProbe struct {
	m   bst.Metrics
	h   bst.Health
	eff effective
}

func (l *treeLayers) begin() {
	l.before = treeProbe{m: l.tree.Metrics(), h: l.tree.Health(), eff: l.counters()}
	l.tr.on.Store(true)
}

func (l *treeLayers) end() {
	l.tr.on.Store(false)
	d := l.tree.Metrics().Sub(l.before.m).Counters
	h := l.tree.Health()
	l.cas += d["cas_failures_insert_total"] + d["cas_failures_flag_total"] + d["cas_failures_tag_total"] + d["cas_failures_splice_total"]
	l.helps += d["help_other_total"]
	l.restarts += d["seek_restarts_total"]
	l.allocated += h.NodesAllocated - l.before.h.NodesAllocated
	l.recycled += h.NodesRecycled - l.before.h.NodesRecycled
	eff := l.counters()
	l.effInserts += eff.inserts - l.before.eff.inserts
	l.effDeletes += eff.deletes - l.before.eff.deletes
}

// set writes the core, arena and reclaim metrics; the core medians come
// from the accessor calls in logs.
func (l *treeLayers) set(m metricSet, t tally, logs []*spanLog) {
	ops := float64(max(t.ops, 1))
	m.layer("core.search_ns", kindHist(logs, spanSearch).Quantile(0.5))
	m.layer("core.insert_ns", kindHist(logs, spanInsert).Quantile(0.5))
	m.layer("core.delete_ns", kindHist(logs, spanDelete).Quantile(0.5))
	m.layer("core.cas_failures_per_op", float64(l.cas)/ops)
	m.layer("core.helps_per_op", float64(l.helps)/ops)
	m.layer("core.seek_restarts_per_op", float64(l.restarts)/ops)
	m.layer("arena.nodes_per_insert", float64(l.allocated)/float64(max(l.effInserts, 1)))
	m.layer("reclaim.recycled_per_delete", float64(l.recycled)/float64(max(l.effDeletes, 1)))
	m.layer("reclaim.retired_backlog", float64(l.tree.Health().RetiredBacklog))
}

// ---- tree-mixed ----

const (
	tmKeys   = 100_000
	tmWarmup = 300_000
)

// treeMixed is one worker with its own Accessor running the 70/20/10 mix
// on a bst.Tree over 100K keys prefilled to half in shuffled order.
type treeMixed struct {
	tree  *bst.Tree
	acc   bst.Accessor
	model *keySet
	r     *rng
	eff   effective
	*treeLayers
}

func openTreeMixed(e *env, traced bool) (system, time.Duration, error) {
	order := shuffled(newRNG(e.seed, streamPrefill), tmKeys)[:tmKeys/2]
	start := time.Now()
	opts := []bst.Option{bst.WithReclamation()}
	if traced {
		opts = append(opts, bst.WithMetrics(1))
	}
	s := &treeMixed{tree: bst.New(opts...), model: newKeySet(tmKeys), r: newRNG(e.seed, streamLoad)}
	s.acc = s.tree.NewAccessor()
	if traced {
		tr := newTracer()
		log := tr.loadLog(0)
		s.acc = newTracedAccessor(s.acc, tr, log)
		s.treeLayers = &treeLayers{tree: s.tree, tr: tr, counters: func() effective { return s.eff }}
	}
	for _, k := range order {
		s.model.apply(opInsert, k)
		if !s.acc.Insert(k) {
			s.close()
			return nil, 0, fmt.Errorf("prefill: insert(%d) reported the key present", k)
		}
	}
	for i := 0; i < tmWarmup; i++ {
		if err := s.step(); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, time.Since(start), nil
}

// step runs one untimed checked operation.
func (s *treeMixed) step() error {
	op, k := s.r.mixedOp(), int64(s.r.intn(tmKeys))
	return checkOutcome(op, k, s.do(op, k), s.model.apply(op, k))
}

func (s *treeMixed) do(op opKind, k int64) bool {
	switch op {
	case opInsert:
		return s.acc.Insert(k)
	case opDelete:
		return s.acc.Delete(k)
	}
	return s.acc.Contains(k)
}

func (s *treeMixed) run(end time.Time, h *Hist) (tally, error) {
	var t tally
	for {
		op, k := s.r.mixedOp(), int64(s.r.intn(tmKeys))
		t0 := time.Now()
		got := s.do(op, k)
		t1 := time.Now()
		h.Record(uint64(t1.Sub(t0)))
		t.calls++
		t.ops++
		want := s.model.apply(op, k)
		if err := checkOutcome(op, k, got, want); err != nil {
			return t, err
		}
		s.eff.note(op, want)
		if !t1.Before(end) {
			return t, nil
		}
	}
}

func (s *treeMixed) verify() error { return verifyTree(s.tree, s.model) }
func (s *treeMixed) liveKeys() int { return s.model.n }

func (s *treeMixed) close() error {
	s.acc.Close()
	return s.tree.Close()
}

func (s *treeMixed) layers(m metricSet, t tally) {
	s.treeLayers.set(m, t, s.tr.loads)
	zeroLayers(m, orderstatLayers, wireLayers)
}

func (s *treeMixed) writeSpans(w io.Writer) { s.tr.writeSpans(w) }

// verifyTree checks the tree's invariants and that it holds exactly the
// model's keys.
func verifyTree(t *bst.Tree, model *keySet) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	if n := t.Len(); n != model.n {
		return fmt.Errorf("tree holds %d keys, model %d", n, model.n)
	}
	var bad error
	t.Ascend(func(k int64) bool {
		if !model.has(k) {
			bad = fmt.Errorf("tree holds key %d the model does not", k)
			return false
		}
		return true
	})
	return bad
}

// ---- agg-churn ----

const (
	acKeys    = 1_000_000
	acWindow  = acKeys / 100 // each CountRange covers 1% of the key range
	acRound   = 32           // mutations, then queries, per round
	acWarmup  = 4            // rounds
	waveBytes = 64 << 10     // a query that allocates this much rebuilt the summary
)

// aggChurn is one goroutine on a bst.Tree with WithOrderStatistics over 1M
// keys prefilled to half: rounds of 32 mutations (50/50 insert/delete)
// then 32 CountRange(…, Exact) calls over 1% windows. With one goroutine
// the first query of a round refreshes the summary exactly when the round
// changed the set.
type aggChurn struct {
	tree  *bst.Tree
	acc   bst.Accessor
	model *keySet
	r     *rng
	pos   int // position in the current round: < acRound mutates
	eff   effective
	*treeLayers

	// traced: the queries, split by whether they rebuilt the summary.
	alloc               []metrics.Sample
	waveHist, cacheHist Hist
	waves, queries      uint64
	waveAlloc           uint64
}

func openAggChurn(e *env, traced bool) (system, time.Duration, error) {
	order := shuffled(newRNG(e.seed, streamPrefill), acKeys)[:acKeys/2]
	start := time.Now()
	opts := []bst.Option{bst.WithReclamation(), bst.WithOrderStatistics()}
	if traced {
		opts = append(opts, bst.WithMetrics(1))
	}
	s := &aggChurn{tree: bst.New(opts...), model: newKeySet(acKeys), r: newRNG(e.seed, streamLoad)}
	s.acc = s.tree.NewAccessor()
	if traced {
		tr := newTracer()
		log := tr.loadLog(0)
		s.acc = newTracedAccessor(s.acc, tr, log)
		s.treeLayers = &treeLayers{tree: s.tree, tr: tr, counters: func() effective { return s.eff }}
		s.alloc = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	}
	for _, k := range order {
		s.model.apply(opInsert, k)
		if !s.acc.Insert(k) {
			s.close()
			return nil, 0, fmt.Errorf("prefill: insert(%d) reported the key present", k)
		}
	}
	var h Hist
	for i := 0; i < acWarmup*2*acRound; i++ {
		if err := s.call(&h, nil); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, time.Since(start), nil
}

// call runs the next call of the round, timed into h, and checks it.
func (s *aggChurn) call(h *Hist, t *tally) error {
	if s.pos < acRound {
		op, k := opInsert, int64(s.r.intn(acKeys))
		if s.r.intn(2) == 1 {
			op = opDelete
		}
		t0 := time.Now()
		var got bool
		if op == opInsert {
			got = s.acc.Insert(k)
		} else {
			got = s.acc.Delete(k)
		}
		h.Record(uint64(time.Since(t0)))
		want := s.model.apply(op, k)
		s.eff.note(op, want)
		s.advance(t)
		return checkOutcome(op, k, got, want)
	}
	lo := int64(s.r.intn(acKeys - acWindow + 1))
	hi := lo + acWindow - 1
	var a0 uint64
	if s.alloc != nil {
		metrics.Read(s.alloc)
		a0 = s.alloc[0].Value.Uint64()
	}
	t0 := time.Now()
	got, err := s.tree.CountRange(lo, hi, bst.Exact)
	d := uint64(time.Since(t0))
	h.Record(d)
	if s.alloc != nil && s.tr.on.Load() {
		metrics.Read(s.alloc)
		if a := s.alloc[0].Value.Uint64() - a0; a >= waveBytes {
			s.waves++
			s.waveAlloc += a
			s.waveHist.Record(d)
		} else {
			s.cacheHist.Record(d)
		}
		s.queries++
	}
	s.advance(t)
	if err != nil {
		return fmt.Errorf("CountRange(%d, %d): %w", lo, hi, err)
	}
	if want := s.model.count(lo, hi); got != want {
		return fmt.Errorf("CountRange(%d, %d) = %d, model says %d", lo, hi, got, want)
	}
	return nil
}

func (s *aggChurn) advance(t *tally) {
	s.pos = (s.pos + 1) % (2 * acRound)
	if t != nil {
		t.calls++
		t.ops++
	}
}

// run stops only between rounds, so every slice holds whole rounds and
// its throughput does not depend on where a 60 ms wave falls against the
// slice's end. A slice whose end passed while the previous one finished
// its round runs nothing.
func (s *aggChurn) run(end time.Time, h *Hist) (tally, error) {
	var t tally
	for s.pos != 0 || time.Now().Before(end) {
		if err := s.call(h, &t); err != nil {
			return t, err
		}
	}
	return t, nil
}

func (s *aggChurn) verify() error { return verifyTree(s.tree, s.model) }
func (s *aggChurn) liveKeys() int { return s.model.n }

func (s *aggChurn) close() error {
	s.acc.Close()
	return s.tree.Close()
}

func (s *aggChurn) layers(m metricSet, t tally) {
	s.treeLayers.set(m, t, s.tr.loads)
	m.layer("orderstat.wave_ms", s.waveHist.Quantile(0.5)/1e6)
	m.layer("orderstat.wave_alloc_mb", float64(s.waveAlloc)/float64(max(s.waves, 1))/1e6)
	m.layer("orderstat.cached_query_ns", s.cacheHist.Quantile(0.5))
	m.layer("orderstat.waves_per_query", float64(s.waves)/float64(max(s.queries, 1)))
	zeroLayers(m, wireLayers)
}

func (s *aggChurn) writeSpans(w io.Writer) { s.tr.writeSpans(w) }

// Layer metrics a workload does not run are reported as zero.
var (
	orderstatLayers = []string{"orderstat.wave_ms", "orderstat.wave_alloc_mb", "orderstat.cached_query_ns", "orderstat.waves_per_query"}
	wireLayers      = []string{
		"client.retries_per_call", "client.unattributed_us_per_call",
		"wire.read_us_per_call", "wire.write_us_per_call", "wire.writes_per_call", "wire.bytes_per_op",
		"server.residence_us_per_call", "server.self_us_per_call", "server.store_calls_per_call", "server.shed_ratio",
		"durable.store_us_per_call", "durable.recovery_s",
		"wal.groups_per_call", "wal.records_per_group", "wal.fsync_p50_us",
	}
)

func zeroLayers(m metricSet, groups ...[]string) {
	for _, g := range groups {
		for _, n := range g {
			m.layer(n, 0)
		}
	}
}
