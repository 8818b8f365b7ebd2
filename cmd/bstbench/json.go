package main

import (
	"encoding/json"
	"os"
	"runtime"

	"repro/internal/metrics"
	"repro/internal/rtrace"
)

// The -json output schema. Version it ("bst-bench/v1") so downstream
// tooling can accumulate a perf trajectory across PRs without guessing at
// field meanings; only add fields, never rename or repurpose them.
type benchJSON struct {
	Schema     string     `json:"schema"` // always "bst-bench/v1"
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Duration   string     `json:"duration_per_cell"`
	Reps       int        `json:"reps"`
	Seed       uint64     `json:"seed"`
	Zipf       float64    `json:"zipf_s"`
	Reclaim    bool       `json:"reclaim"`
	Prefill    bool       `json:"prefill"`
	Metrics    bool       `json:"metrics_enabled"`
	Cells      []cellJSON `json:"cells"`
}

type cellJSON struct {
	Algorithm string `json:"algorithm"`
	Threads   int    `json:"threads"`
	KeyRange  int    `json:"key_range"`
	Workload  string `json:"workload"`
	Reps      int    `json:"reps"`
	// BatchSize is the operations-per-batch of a -batch mode cell; 0 or 1
	// means the single-op loop. (Added for bst-bench/v1 consumers: new
	// field, never renamed.)
	BatchSize int `json:"batch_size,omitempty"`
	// Shards marks a -shards mode cell: the number of independent trees the
	// key space was partitioned across (0 or 1 = single tree). (bst-bench/v1:
	// new field, never renamed.)
	Shards int `json:"shards,omitempty"`
	// SyncPolicy marks a -durable mode cell: "memory" for the in-memory
	// baseline, else the WAL sync policy ("fsync", "interval", "none").
	// Empty for non-durable cells. (bst-bench/v1: new field, never
	// renamed.)
	SyncPolicy string `json:"sync_policy,omitempty"`
	// AggMethod marks an -aggregate mode cell: the query method measured
	// ("scan-count", "count-exact", "count-stale", "rank-exact",
	// "select-exact", "sum-exact"). ops_per_sec is queries/sec for these
	// cells. (bst-bench/v1: new field, never renamed.)
	AggMethod string `json:"agg_method,omitempty"`
	// AggWriters is the concurrent mutator count churning the tree during
	// an -aggregate cell (0 = quiescent). (bst-bench/v1: new field, never
	// renamed.)
	AggWriters      int       `json:"agg_writers,omitempty"`
	OpsPerSec       []float64 `json:"ops_per_sec"`
	MedianOpsPerSec float64   `json:"median_ops_per_sec"`
	// Metrics holds the cell's telemetry deltas summed across reps
	// (counters only — monotonic, so per-cell registries make every value
	// a delta), plus sampled latency summaries per op. Present only when
	// -metrics is set and the algorithm supports instrumentation.
	Metrics map[string]uint64      `json:"metrics,omitempty"`
	Latency map[string]latencyJSON `json:"latency,omitempty"`
	// TracePhases holds the flight recorder's per-phase aggregates summed
	// across reps when -trace-sample is set: how many sampled spans each
	// phase recorded and their cumulative nanoseconds — the breakdown
	// behind "where did a durable cell's time go". (bst-bench/v1: new
	// field, never renamed.)
	TracePhases map[string]tracePhaseJSON `json:"trace_phases,omitempty"`
}

// tracePhaseJSON is one phase's share of the sampled operations.
type tracePhaseJSON struct {
	Spans uint64 `json:"spans"`
	Nanos uint64 `json:"nanos"`
}

type latencyJSON struct {
	SampledOps uint64  `json:"sampled_ops"`
	MeanNanos  float64 `json:"mean_ns"`
	P50Nanos   uint64  `json:"p50_ns"`
	P99Nanos   uint64  `json:"p99_ns"`
}

func newBenchJSON(duration string, reps int, seed uint64, zipf float64, reclaim, prefill, metricsOn bool) *benchJSON {
	return &benchJSON{
		Schema:     "bst-bench/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Duration:   duration,
		Reps:       reps,
		Seed:       seed,
		Zipf:       zipf,
		Reclaim:    reclaim,
		Prefill:    prefill,
		Metrics:    metricsOn,
	}
}

// addTracePhases folds one rep's recorder phase aggregates into the cell.
func (c *cellJSON) addTracePhases(phases map[string]rtrace.PhaseSnapshot) {
	if c.TracePhases == nil {
		c.TracePhases = make(map[string]tracePhaseJSON, len(phases))
	}
	for name, p := range phases {
		t := c.TracePhases[name]
		t.Spans += p.Count
		t.Nanos += p.Nanos
		c.TracePhases[name] = t
	}
}

// addMetrics folds one rep's snapshot into the cell (counters sum across
// reps; latency summaries aggregate the merged histograms).
func (c *cellJSON) addMetrics(s metrics.Snapshot, agg *[metrics.NumOps]metrics.LatencySnapshot) {
	if c.Metrics == nil {
		c.Metrics = map[string]uint64{}
	}
	for k, v := range s.CounterMap() {
		c.Metrics[k] += v
	}
	for op := range agg {
		agg[op].Add(s.Latency[op])
	}
}

func (c *cellJSON) finishLatency(agg *[metrics.NumOps]metrics.LatencySnapshot) {
	c.Latency = map[string]latencyJSON{}
	for op := metrics.Op(0); op < metrics.NumOps; op++ {
		l := agg[op]
		c.Latency[op.Name()] = latencyJSON{
			SampledOps: l.Count,
			MeanNanos:  l.MeanNanos(),
			P50Nanos:   l.Quantile(0.50),
			P99Nanos:   l.Quantile(0.99),
		}
	}
}

// writeJSON emits the document to path ("-" for stdout).
func (b *benchJSON) write(path string) error {
	var f *os.File
	if path == "-" {
		f = os.Stdout
	} else {
		var err error
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
