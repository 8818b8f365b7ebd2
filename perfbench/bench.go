package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// env carries one invocation's settings and the inputs shared by the set
// ups of a run.
type env struct {
	name    string // workload
	seed    int64
	seconds int
	data    string // data directories live here and are removed at exit
	out     string // span files are written under out/spans

	wireKeys  []int64 // the wire workloads' checkpoint, ascending
	wireModel *keySet
}

// system is one workload's program plus the closed loop that drives it.
type system interface {
	// run drives the loop until end, timing every public call into h.
	run(end time.Time, h *Hist) (tally, error)
	// verify checks the program's final state against the model.
	verify() error
	// liveKeys is the model's key count.
	liveKeys() int
	close() error
}

// tracedSystem is a system built with the tracing wrappers on.
type tracedSystem interface {
	system
	// begin and end bracket a traced slice: recording is on between
	// them, and end adds the slice's counter deltas to the system's sums.
	begin()
	end()
	// layers turns the sums over the traced slices into per-layer metrics.
	layers(m metricSet, t tally)
	writeSpans(w io.Writer)
}

// tally counts one slice's work: calls is public calls, ops user
// operations (a 64-op frame is 64), failed the operations that returned
// an error instead of a result.
type tally struct{ calls, ops, failed uint64 }

func (t *tally) add(o tally) { t.calls += o.calls; t.ops += o.ops; t.failed += o.failed }

type workload struct {
	// open builds the system and warms it up, returning the set-up time.
	open func(e *env, traced bool) (system, time.Duration, error)
	// setups is how many times a run sets up; setup_s is their median.
	setups int
}

var workloads = map[string]workload{
	"tree-mixed": {open: openTreeMixed, setups: 9},
	"agg-churn":  {open: openAggChurn, setups: 5},
	"wire-point": {open: func(e *env, tr bool) (system, time.Duration, error) { return openWire(e, false, tr) }, setups: 7},
	"wire-batch": {open: func(e *env, tr bool) (system, time.Duration, error) { return openWire(e, true, tr) }, setups: 7},
}

// slicesPerRun splits the measured time into equal slices. Host steal (CPU
// time the hypervisor gives to other guests) moves every wall-clock
// metric and varies from one tenth of a second to the next, so the
// end-to-end run reports on the quarter of its slices with the least steal.
const slicesPerRun = 200

var errIncorrect = errors.New("result does not match the model")

// metricSet is a run's metrics by name.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	correct         bool
	attempted, fail uint64
	metrics         metricSet
	notes           []string // human-readable lines printed before the JSON
}

func (r *result) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted uint64    `json:"attempted"`
		Failed    uint64    `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.fail, r.metrics})
	fmt.Fprintln(w, string(out))
}

// slice is one measured stretch of a run.
type slice struct {
	t       tally
	elapsed time.Duration
	steal   float64 // share of host CPU time stolen during the slice, %
	h       *Hist
}

// measure runs s until end, timing its calls into h.
func measure(s system, end time.Time, h *Hist) (slice, error) {
	s0 := readSteal()
	start := time.Now()
	t, err := s.run(end, h)
	return slice{t: t, elapsed: time.Since(start), steal: readSteal().since(s0), h: h}, err
}

// sliceEnds returns the end times of a run's slices, fixed from its start,
// so a slice that overruns (an agg-churn round ends past its slice's end)
// shortens the next one instead of lengthening the run.
func sliceEnds(seconds, n int) []time.Time {
	start, d := time.Now(), time.Duration(seconds)*time.Second/time.Duration(n)
	ends := make([]time.Time, n)
	for i := range ends {
		ends[i] = start.Add(time.Duration(i+1) * d)
	}
	return ends
}

// throughput is the operations per second over the slices.
func throughput(sl []slice) float64 {
	var ops uint64
	var el time.Duration
	for _, x := range sl {
		ops += x.t.ops
		el += x.elapsed
	}
	return float64(ops) / el.Seconds()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setUp opens the workload's system w.setups times, closing all but the
// last, and returns the last with every set-up time.
func setUp(e *env, w workload, traced bool, reps int) (system, []float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		s, d, err := w.open(e, traced)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if i == reps-1 {
			return s, times, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, errors.New("no set up")
}

// runPlain is the end-to-end run: set up, measure with tracing off, check.
// Of the slices it measures it keeps the keptSlices during which the host
// stole the least CPU time; throughput and the latency quantiles come from
// the calls of the kept slices.
func runPlain(e *env, w workload) (*result, error) {
	s, setups, err := setUp(e, w, false, w.setups)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := &result{metrics: metricSet{}}
	sl := make([]slice, 0, slicesPerRun)
	var t tally
	for _, end := range sliceEnds(e.seconds, slicesPerRun) {
		x, err := measure(s, end, new(Hist))
		t.add(x.t)
		if err != nil {
			return incorrect(res, t, err)
		}
		if x.t.calls > 0 {
			sl = append(sl, x)
		}
	}
	if err := s.verify(); err != nil {
		return incorrect(res, t, err)
	}
	var steals []float64
	for _, x := range sl {
		steals = append(steals, x.steal)
	}
	sort.SliceStable(sl, func(i, j int) bool { return sl[i].steal < sl[j].steal })
	measured, nkept := len(sl), max(len(sl)/4, 1)
	sl = sl[:nkept]
	var kept Hist
	for _, x := range sl {
		kept.Merge(x.h)
	}
	tput := throughput(sl)
	sl = nil // the slice histograms are not the program's live heap
	runtime.GC()
	live := readRuntime("/gc/heap/live:bytes")

	m := res.metrics
	m.set("throughput_ops_s", "ops/s", tput)
	m.set("call_p50_us", "us", kept.Quantile(0.50)/1e3)
	m.set("call_p99_us", "us", kept.Quantile(0.99)/1e3)
	m.set("setup_s", "s", median(setups))
	m.set("mem_bytes_per_key", "B", float64(live)/float64(max(s.liveKeys(), 1)))
	m.set("ops_ok_ratio", "ratio", float64(t.ops-t.failed)/float64(max(t.ops, 1)))
	res.correct, res.attempted, res.fail = true, t.ops, t.failed
	res.notes = append(res.notes,
		fmt.Sprintf("calls %d, ops %d, failed %d; the metrics come from the %d calls of the %d least-stolen of %d slices: %d calls beyond p99",
			t.calls, t.ops, t.failed, kept.Count(), nkept, measured, kept.Count()/100),
		fmt.Sprintf("kept-slice call latency: mean %.3f us, p99.9 %.3f us", kept.Mean()/1e3, kept.Quantile(0.999)/1e3),
		fmt.Sprintf("host steal per slice %%: %.1f", steals),
		fmt.Sprintf("setup_s per set up: %.4f", setups))
	return res, nil
}

func incorrect(res *result, t tally, err error) (*result, error) {
	res.correct, res.attempted, res.fail = false, t.ops, t.failed
	return res, fmt.Errorf("%w: %v", errIncorrect, err)
}

// runTraced is the per-layer run. An untraced system (A) and a traced one
// (B) of the same workload alternate slices, A-B then B-A, so drift of the
// host moves both alike; the layer metrics come from B's slices, and the
// throughputs of the two give the tracing overhead.
func runTraced(e *env, w workload) (*result, error) {
	a, _, err := setUp(e, w, false, 1)
	if err != nil {
		return nil, err
	}
	defer a.close()
	sb, _, err := setUp(e, w, true, 1)
	if err != nil {
		return nil, err
	}
	b := sb.(tracedSystem)
	closed := false
	defer func() {
		if !closed {
			b.close()
		}
	}()

	res := &result{metrics: metricSet{}}
	var hA, hB Hist
	var ta, tb tally
	var slA, slB []slice
	var rt runtimeCost
	stealStart := readSteal()
	ends := sliceEnds(e.seconds, slicesPerRun)
	for i := 0; i < slicesPerRun/2; i++ {
		for j, traced := range [2]bool{i%2 == 1, i%2 == 0} {
			end := ends[2*i+j]
			if !traced {
				x, err := measure(a, end, &hA)
				ta.add(x.t)
				if err != nil {
					return incorrect(res, ta, err)
				}
				slA = append(slA, x)
				continue
			}
			b.begin()
			r0 := readRuntimeCost()
			x, err := measure(b, end, &hB)
			r1 := readRuntimeCost()
			b.end()
			tb.add(x.t)
			if err != nil {
				return incorrect(res, tb, err)
			}
			rt.add(r0, r1)
			slB = append(slB, x)
		}
	}
	for _, s := range []system{a, b} {
		if err := s.verify(); err != nil {
			return incorrect(res, tb, err)
		}
	}
	steal := readSteal().since(stealStart)
	// Closing B first stops its server goroutines, so their span logs can
	// be read.
	closed = true
	if err := b.close(); err != nil {
		return nil, err
	}
	m := res.metrics
	b.layers(m, tb)
	m.layer("runtime.alloc_bytes_per_op", float64(rt.allocBytes)/float64(max(tb.ops, 1)))
	m.layer("runtime.gc_cycles", float64(rt.gcCycles))
	m.layer("runtime.cpu_us_per_op", rt.cpu.Seconds()*1e6/float64(max(tb.ops, 1)))
	m.layer("host.steal_pct", steal)
	m.layer("trace.overhead_pct", 100*(1-throughput(slB)/throughput(slA)))
	res.correct, res.attempted, res.fail = true, tb.ops, tb.failed
	res.notes = append(res.notes, fmt.Sprintf(
		"traced: %d calls, %d ops, mean call %.3f us; untraced: %d calls, %d ops, mean call %.3f us",
		tb.calls, tb.ops, hB.Mean()/1e3, ta.calls, ta.ops, hA.Mean()/1e3))
	if err := writeSpanFile(e, b); err != nil {
		res.notes = append(res.notes, "spans not written: "+err.Error())
	}
	return res, nil
}

// runtimeCost is process-wide: heap bytes allocated, GC cycles and CPU
// time (user plus system).
type runtimeCost struct {
	allocBytes, gcCycles uint64
	cpu                  time.Duration
}

func readRuntimeCost() runtimeCost {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCost{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), cpu: processCPU()}
}

// add adds the cost between readings a and b.
func (c *runtimeCost) add(a, b runtimeCost) {
	c.allocBytes += b.allocBytes - a.allocBytes
	c.gcCycles += b.gcCycles - a.gcCycles
	c.cpu += b.cpu - a.cpu
}

// layerUnits lists every per-layer metric with its unit; a traced run
// reports all of them, zero for layers its workload does not run.
var layerUnits = map[string]string{
	"core.search_ns": "ns", "core.insert_ns": "ns", "core.delete_ns": "ns",
	"core.cas_failures_per_op": "count", "core.helps_per_op": "count", "core.seek_restarts_per_op": "count",
	"arena.nodes_per_insert": "count", "reclaim.recycled_per_delete": "count", "reclaim.retired_backlog": "count",
	"orderstat.wave_ms": "ms", "orderstat.wave_alloc_mb": "MB", "orderstat.cached_query_ns": "ns",
	"orderstat.waves_per_query": "count",
	"client.retries_per_call":   "count", "client.unattributed_us_per_call": "us",
	"wire.read_us_per_call": "us", "wire.write_us_per_call": "us", "wire.writes_per_call": "count",
	"wire.bytes_per_op":            "B",
	"server.residence_us_per_call": "us", "server.self_us_per_call": "us",
	"server.store_calls_per_call": "count", "server.shed_ratio": "ratio",
	"durable.store_us_per_call": "us", "durable.recovery_s": "s",
	"wal.groups_per_call": "count", "wal.records_per_group": "count", "wal.fsync_p50_us": "us",
	"runtime.alloc_bytes_per_op": "B", "runtime.gc_cycles": "count", "runtime.cpu_us_per_op": "us",
	"host.steal_pct": "%", "trace.overhead_pct": "%",
}

// layer sets a per-layer metric in its listed unit.
func (m metricSet) layer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: per-layer metric " + name + " is not in layerUnits")
	}
	m.set(name, unit, v)
}

func readRuntime(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
