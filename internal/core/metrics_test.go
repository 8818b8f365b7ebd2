package core

import (
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/keys"
	"repro/internal/metrics"
)

// TestMetricsOpsAndLatency checks the basic wiring: every completed
// operation increments its ops counter, and with sampleEvery=1 every
// operation lands in the latency histogram.
func TestMetricsOpsAndLatency(t *testing.T) {
	reg := metrics.NewRegistry(1)
	tr := New(Config{Capacity: 1 << 12, Metrics: reg})
	h := tr.NewHandle()
	defer h.Close()

	const n = 100
	for i := uint64(0); i < n; i++ {
		h.Insert(i)
	}
	for i := uint64(0); i < n; i++ {
		h.Search(i)
	}
	for i := uint64(0); i < n; i++ {
		h.Delete(i)
	}

	s := reg.Snapshot()
	if s.Counters[metrics.OpsInsert] != n || s.Counters[metrics.OpsSearch] != n || s.Counters[metrics.OpsDelete] != n {
		t.Fatalf("ops counters = %d/%d/%d, want %d each",
			s.Counters[metrics.OpsInsert], s.Counters[metrics.OpsSearch], s.Counters[metrics.OpsDelete], n)
	}
	for op := metrics.Op(0); op < metrics.NumOps; op++ {
		if got := s.Latency[op].Count; got != n {
			t.Fatalf("latency[%s].Count = %d, want %d (sampleEvery=1)", op.Name(), got, n)
		}
		if s.Latency[op].SumNanos == 0 {
			t.Fatalf("latency[%s].SumNanos = 0, want > 0", op.Name())
		}
	}
	// Uncontended single handle: no restarts, no CAS failures, no helping.
	for _, c := range []metrics.Counter{
		metrics.SeekRestarts, metrics.InsertCASFailures, metrics.DeleteFlagCASFailures,
		metrics.DeleteSpliceCASFailures, metrics.HelpOther,
	} {
		if v := s.Counters[c]; v != 0 {
			t.Fatalf("uncontended %s = %d, want 0", c.Name(), v)
		}
	}
	if got, want := s.Counters[metrics.SpliceWins], uint64(n); got != want {
		t.Fatalf("SpliceWins = %d, want %d (every delete cleans up uncontended)", got, want)
	}
}

// TestMetricsSampling checks that a power-of-two sampling period records
// exactly 1/period of the operations.
func TestMetricsSampling(t *testing.T) {
	reg := metrics.NewRegistry(8)
	tr := New(Config{Capacity: 1 << 12, Metrics: reg})
	h := tr.NewHandle()
	defer h.Close()

	const n = 64
	for i := uint64(0); i < n; i++ {
		h.Search(i)
	}
	if got := reg.Snapshot().Latency[metrics.OpSearch].Count; got != n/8 {
		t.Fatalf("sampled count = %d, want %d", got, n/8)
	}
}

// TestMetricsContentionDeterministic freezes a deleter between its flag
// CAS and the tag step (via a failpoint stall), then runs a second delete
// of the same key. The second delete must fail its flag CAS, help the
// frozen delete's cleanup through, and restart its seek — so every
// contention counter on that path fires deterministically, even on one CPU.
func TestMetricsContentionDeterministic(t *testing.T) {
	fs := failpoint.NewSet()
	reg := metrics.NewRegistry(0)
	tr := New(Config{Capacity: 1 << 16, Failpoints: fs, Metrics: reg})

	setup := tr.NewHandle()
	for i := int64(0); i < 100; i++ {
		setup.Insert(keys.Map(i))
	}

	st := fs.Site(FPTag)
	st.StallNext()
	victimStats := make(chan Stats, 1)
	go func() {
		h := tr.NewHandle()
		if !h.Delete(keys.Map(50)) {
			t.Error("frozen deleter's delete failed; it owns the flag")
		}
		victimStats <- h.Stats
		h.Close()
	}()
	if !st.WaitStalled(10 * time.Second) {
		t.Fatal("deleter never reached the tag failpoint")
	}

	// Leaf 50's incoming edge is now flagged by the frozen deleter.
	h := tr.NewHandle()
	if h.Delete(keys.Map(50)) {
		t.Fatal("second delete of key 50 reported success; the frozen deleter owns it")
	}
	st.Release()
	vs := <-victimStats

	s := reg.Snapshot()
	for _, c := range []metrics.Counter{
		metrics.DeleteFlagCASFailures, // second delete lost the flag CAS
		metrics.HelpOther,             // ... and helped the frozen delete
		metrics.SpliceWins,            // the helper's cleanup spliced
		metrics.SeekRestarts,          // the second delete re-sought after helping
	} {
		if s.Counters[c] == 0 {
			t.Errorf("%s = 0, want > 0", c.Name())
		}
	}
	// Cross-check the live telemetry against the handles' offline Stats:
	// same events, two independent recorders.
	total := vs
	total.Add(h.Stats)
	total.Add(setup.Stats)
	casFails := s.Counters[metrics.InsertCASFailures] + s.Counters[metrics.DeleteFlagCASFailures] +
		s.Counters[metrics.DeleteTagCASFailures] + s.Counters[metrics.DeleteSpliceCASFailures]
	if casFails != total.CASFailed {
		t.Errorf("metrics CAS failures = %d, Stats.CASFailed = %d", casFails, total.CASFailed)
	}
	if got, want := s.Counters[metrics.HelpOther], total.HelpAttempts; got != want {
		t.Errorf("metrics HelpOther = %d, Stats.HelpAttempts = %d", got, want)
	}
	if got, want := s.Counters[metrics.SpliceWins], total.SpliceWins; got != want {
		t.Errorf("metrics SpliceWins = %d, Stats.SpliceWins = %d", got, want)
	}
	if err := tr.Audit(); err != nil {
		t.Fatalf("tree invalid after contended delete: %v", err)
	}
}

// TestMetricsInsertCASFailureDeterministic makes an insert lose its single
// CAS by having a saboteur handle delete the terminal leaf between the
// inserter's seek and its CAS (via the step hook), and checks the
// insert-side contention counters.
func TestMetricsInsertCASFailureDeterministic(t *testing.T) {
	reg := metrics.NewRegistry(0)
	tr := New(Config{Capacity: 1 << 12, Metrics: reg})
	h := tr.NewHandle()
	sab := tr.NewHandle()
	h.Insert(keys.Map(50)) // sole user key: every seek terminates at leaf 50

	fired := false
	h.stepHook = func(p string) {
		if p == FPInsertCAS && !fired {
			fired = true
			sab.Delete(keys.Map(50)) // invalidates the edge the CAS expects
		}
	}
	if !h.Insert(keys.Map(60)) {
		t.Fatal("insert of key 60 failed")
	}
	s := reg.Snapshot()
	for _, c := range []metrics.Counter{
		metrics.InsertCASFailures, metrics.InsertRetries, metrics.SeekRestarts,
	} {
		if s.Counters[c] == 0 {
			t.Errorf("%s = 0, want > 0", c.Name())
		}
	}
	if !h.Search(keys.Map(60)) || h.Search(keys.Map(50)) {
		t.Fatal("tree contents wrong after contended insert")
	}
}

// TestMetricsHookGauges checks the snapshot hook folds in arena and epoch
// telemetry.
func TestMetricsHookGauges(t *testing.T) {
	reg := metrics.NewRegistry(0)
	tr := New(Config{Capacity: 1 << 12, Reclaim: true, Metrics: reg})
	h := tr.NewHandle()
	for i := uint64(0); i < 200; i++ {
		h.Insert(i)
		h.Delete(i)
	}
	h.Close()

	s := reg.Snapshot()
	if s.Gauges["arena_capacity_nodes"] != float64(1<<12) {
		t.Fatalf("arena_capacity_nodes = %v, want %v", s.Gauges["arena_capacity_nodes"], 1<<12)
	}
	if s.Gauges["arena_allocated_nodes"] == 0 {
		t.Fatalf("arena_allocated_nodes = 0 after inserts")
	}
	for _, k := range []string{"epoch_current", "epoch_slots", "epoch_pinned_slots", "epoch_stalled_slots", "epoch_retired_backlog_nodes"} {
		if _, ok := s.Gauges[k]; !ok {
			t.Fatalf("missing epoch gauge %q", k)
		}
	}
	if s.External["epoch_advances_total"] == 0 {
		t.Fatalf("epoch_advances_total = 0 after insert/delete churn with reclaim on")
	}
}

// TestMetricsShardRetiredOnClose checks that counts from a closed handle
// survive in the registry (the shard folds into the base snapshot).
func TestMetricsShardRetiredOnClose(t *testing.T) {
	reg := metrics.NewRegistry(0)
	tr := New(Config{Capacity: 1 << 12, Metrics: reg})
	h := tr.NewHandle()
	for i := uint64(0); i < 50; i++ {
		h.Insert(i)
	}
	h.Close()
	if got := reg.Snapshot().Counters[metrics.OpsInsert]; got != 50 {
		t.Fatalf("OpsInsert after Close = %d, want 50", got)
	}
}

// TestMetricsDisabledIsInert checks the nil-registry configuration leaves
// no telemetry state behind (the acceptance criterion that disabled
// metrics cannot perturb a run).
func TestMetricsDisabledIsInert(t *testing.T) {
	tr := New(Config{Capacity: 1 << 12})
	if tr.Metrics() != nil {
		t.Fatalf("Metrics() = %v, want nil when not configured", tr.Metrics())
	}
	h := tr.NewHandle()
	defer h.Close()
	for i := uint64(0); i < 100; i++ {
		h.Insert(i)
		h.Search(i)
		h.Delete(i)
	}
	if h.Stats.Inserts != 100 {
		t.Fatalf("Stats still work without metrics: %+v", h.Stats)
	}
}
