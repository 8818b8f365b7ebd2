package bst

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/metrics"
)

// WithMetrics enables live contention telemetry: each per-goroutine
// accessor gets a private cache-line-padded counter shard wired into the
// tree's hot paths, and Insert/Delete/Contains latencies are sampled into
// power-of-two histograms (one timed operation in every sampleEvery; 0
// selects the default of 64, 1 times every operation).
// Read the results with Tree.Metrics or serve them with ServeMetrics.
func WithMetrics(sampleEvery int) Option {
	return func(c *config) { c.metrics, c.metricsSample = true, sampleEvery }
}

// LatencyStats is one operation kind's sampled latency histogram. Bucket i
// counts sampled operations whose duration fell in [2^(i-1), 2^i)
// nanoseconds.
type LatencyStats struct {
	Count    uint64   // sampled operations
	SumNanos uint64   // total sampled nanoseconds
	P50Nanos uint64   // approximate median (bucket upper bound)
	P99Nanos uint64   // approximate 99th percentile (bucket upper bound)
	Buckets  []uint64 // power-of-two buckets, len metrics.NumBuckets
}

// Metrics is a cumulative telemetry snapshot. Counters and latency
// histograms are monotonic since tree creation; Gauges are instantaneous.
// The zero value (Enabled false) is returned by trees built without
// WithMetrics.
type Metrics struct {
	// Enabled reports whether the tree records telemetry at all.
	Enabled bool
	// SampleEvery is the latency sampling period: one timed operation per
	// this many, per accessor. Counters are never sampled.
	SampleEvery uint64
	// Counters maps stable snake_case names (e.g. "cas_failures_flag_total",
	// "help_other_total", "seek_restarts_total", "epoch_advances_total") to
	// monotonic event counts.
	Counters map[string]uint64
	// Gauges maps names like "arena_allocated_nodes" or
	// "epoch_retired_backlog_nodes" to instantaneous values.
	Gauges map[string]float64
	// Latency maps "search", "insert", "delete" to sampled histograms.
	Latency map[string]LatencyStats
}

// Sub returns the delta m−prev for counters and latency histograms (the
// delta-since helper for rate computations); gauges keep their current
// values. Both snapshots must come from the same tree.
func (m Metrics) Sub(prev Metrics) Metrics {
	d := Metrics{
		Enabled:     m.Enabled,
		SampleEvery: m.SampleEvery,
		Counters:    make(map[string]uint64, len(m.Counters)),
		Gauges:      make(map[string]float64, len(m.Gauges)),
		Latency:     make(map[string]LatencyStats, len(m.Latency)),
	}
	for k, v := range m.Counters {
		d.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range m.Gauges {
		d.Gauges[k] = v
	}
	for k, v := range m.Latency {
		p := prev.Latency[k]
		l := LatencyStats{
			Count:    v.Count - p.Count,
			SumNanos: v.SumNanos - p.SumNanos,
			Buckets:  make([]uint64, len(v.Buckets)),
		}
		var snap metrics.LatencySnapshot
		for i := range v.Buckets {
			l.Buckets[i] = v.Buckets[i]
			if i < len(p.Buckets) {
				l.Buckets[i] -= p.Buckets[i]
			}
			snap.Buckets[i] = l.Buckets[i]
		}
		snap.Count = l.Count
		l.P50Nanos = snap.Quantile(0.50)
		l.P99Nanos = snap.Quantile(0.99)
		d.Latency[k] = l
	}
	return d
}

// Metrics returns a cumulative telemetry snapshot. For trees built without
// WithMetrics the zero snapshot with Enabled false is returned.
func (t *Tree) Metrics() Metrics {
	reg := t.f.Metrics()
	if reg == nil {
		return Metrics{}
	}
	return fromSnapshot(reg.Snapshot())
}

func fromSnapshot(s metrics.Snapshot) Metrics {
	m := Metrics{
		Enabled:     true,
		SampleEvery: s.SampleEvery,
		Counters:    s.CounterMap(),
		Gauges:      s.Gauges,
		Latency:     make(map[string]LatencyStats, int(metrics.NumOps)),
	}
	for op := metrics.Op(0); op < metrics.NumOps; op++ {
		l := s.Latency[op]
		m.Latency[op.Name()] = LatencyStats{
			Count:    l.Count,
			SumNanos: l.SumNanos,
			P50Nanos: l.Quantile(0.50),
			P99Nanos: l.Quantile(0.99),
			Buckets:  append([]uint64(nil), l.Buckets[:]...),
		}
	}
	return m
}

// MetricsHandler returns an HTTP handler exposing the telemetry of the
// given trees (keyed by the label used in the exported series):
//
//	GET /metrics     Prometheus text exposition format
//	GET /debug/vars  expvar-style JSON
//
// Trees without metrics enabled are skipped. The handler is safe to serve
// while the trees are under full concurrent load; scrapes never block
// operations.
func MetricsHandler(trees map[string]*Tree) http.Handler {
	return metrics.Handler(func() []metrics.Source {
		out := make([]metrics.Source, 0, len(trees))
		for name, t := range trees {
			out = append(out, metrics.Source{Name: name, Registry: t.f.Metrics()})
		}
		return out
	})
}

// MetricsServer is a running metrics HTTP endpoint (see ServeMetrics).
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the listener's address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// ServeMetrics starts an HTTP endpoint on addr (e.g. ":9100" or
// "127.0.0.1:0") exposing the telemetry of the given trees; see
// MetricsHandler for the routes. The caller owns the returned server and
// should Close it when done.
func ServeMetrics(addr string, trees map[string]*Tree) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bst: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: MetricsHandler(trees), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &MetricsServer{ln: ln, srv: srv}, nil
}
