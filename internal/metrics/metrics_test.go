package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterNamesComplete(t *testing.T) {
	for c := Counter(0); c < NumCounters; c++ {
		if c.Name() == "" {
			t.Fatalf("counter %d has no export name", c)
		}
		if promCounter[c].family == "" {
			t.Fatalf("counter %d has no Prometheus family", c)
		}
	}
	for op := Op(0); op < NumOps; op++ {
		if op.Name() == "" {
			t.Fatalf("op %d has no export name", op)
		}
	}
}

func TestShardCountersAndSnapshot(t *testing.T) {
	r := NewRegistry(0)
	s1, s2 := r.NewShard(), r.NewShard()
	s1.Inc(SeekRestarts)
	s1.Add(SeekRestarts, 4)
	s2.Inc(SeekRestarts)
	s2.Inc(HelpOther)

	snap := r.Snapshot()
	if got := snap.Counters[SeekRestarts]; got != 6 {
		t.Fatalf("SeekRestarts = %d, want 6", got)
	}
	if got := snap.Counters[HelpOther]; got != 1 {
		t.Fatalf("HelpOther = %d, want 1", got)
	}
	if snap.SampleEvery != DefaultSampleEvery {
		t.Fatalf("SampleEvery = %d, want %d", snap.SampleEvery, DefaultSampleEvery)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry(1)
	sh := r.NewShard()
	sh.Observe(OpInsert, 100*time.Nanosecond) // bits.Len64(100) = 7 → bucket 7
	sh.Observe(OpInsert, 100*time.Nanosecond)
	sh.Observe(OpInsert, time.Hour) // clamps into the last bucket

	l := r.Snapshot().Latency[OpInsert]
	if l.Count != 3 {
		t.Fatalf("Count = %d, want 3", l.Count)
	}
	if l.Buckets[7] != 2 {
		t.Fatalf("bucket 7 = %d, want 2 (100ns samples)", l.Buckets[7])
	}
	if l.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("last bucket = %d, want 1 (clamped 1h sample)", l.Buckets[NumBuckets-1])
	}
	wantSum := uint64(200 + time.Hour.Nanoseconds())
	if l.SumNanos != wantSum {
		t.Fatalf("SumNanos = %d, want %d", l.SumNanos, wantSum)
	}
	// 100ns samples dominate: the median bucket's upper bound is 128ns.
	if q := l.Quantile(0.5); q != 128 {
		t.Fatalf("p50 = %d, want 128", q)
	}
}

// TestHistogramDirect pins the bucket edges of the standalone histogram
// the WAL flusher and the checkpointer record into: 0ns lands in bucket 0,
// [2^(i-1), 2^i) in bucket i.
func TestHistogramDirect(t *testing.T) {
	var h Histogram
	for _, ns := range []int64{0, 1, 2, 3, 4, 1023, 1024} {
		h.Observe(time.Duration(ns))
	}
	l := h.Snapshot()
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1, 11: 1}
	for i, n := range l.Buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, n, want[i], l.Buckets)
		}
	}
	if l.Count != 7 || l.SumNanos != 2057 {
		t.Fatalf("Count, SumNanos = %d, %d, want 7, 2057", l.Count, l.SumNanos)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var l LatencySnapshot
	if q := l.Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", q)
	}
	if m := l.MeanNanos(); m != 0 {
		t.Fatalf("empty histogram mean = %v, want 0", m)
	}
	l.Buckets[3] = 1
	l.Count = 1
	if q := l.Quantile(0.01); q != 8 {
		t.Fatalf("single-sample low quantile = %d, want 8", q)
	}
	if q := l.Quantile(1.0); q != 8 {
		t.Fatalf("single-sample high quantile = %d, want 8", q)
	}
}

func TestRetireFoldsIntoBase(t *testing.T) {
	r := NewRegistry(0)
	sh := r.NewShard()
	sh.Add(SpliceWins, 9)
	sh.Observe(OpDelete, 64*time.Nanosecond)
	r.Retire(sh)
	r.Retire(sh) // double retire is a no-op

	snap := r.Snapshot()
	if got := snap.Counters[SpliceWins]; got != 9 {
		t.Fatalf("retired SpliceWins = %d, want 9", got)
	}
	if got := snap.Latency[OpDelete].Count; got != 1 {
		t.Fatalf("retired histogram count = %d, want 1", got)
	}
	// A fresh shard keeps accumulating on top of the base.
	r.NewShard().Inc(SpliceWins)
	if got := r.Snapshot().Counters[SpliceWins]; got != 10 {
		t.Fatalf("base+live SpliceWins = %d, want 10", got)
	}
}

func TestSnapshotSubDeltas(t *testing.T) {
	r := NewRegistry(0)
	r.AddHook(func(s *Snapshot) {
		s.External["epoch_advances_total"] += 100
		s.Gauges["arena_allocated_nodes"] = 42
	})
	sh := r.NewShard()
	sh.Add(HelpOther, 3)
	prev := r.Snapshot()
	sh.Add(HelpOther, 5)
	sh.Observe(OpSearch, 10*time.Nanosecond)

	d := r.Snapshot().Sub(prev)
	if got := d.Counters[HelpOther]; got != 5 {
		t.Fatalf("delta HelpOther = %d, want 5", got)
	}
	if got := d.External["epoch_advances_total"]; got != 0 {
		t.Fatalf("delta external = %d, want 0 (hook value unchanged)", got)
	}
	if got := d.Gauges["arena_allocated_nodes"]; got != 42 {
		t.Fatalf("gauge should keep current value, got %v", got)
	}
	if got := d.Latency[OpSearch].Count; got != 1 {
		t.Fatalf("delta latency count = %d, want 1", got)
	}
}

func TestSampleEveryRounding(t *testing.T) {
	cases := map[int]uint64{0: DefaultSampleEvery, 1: 1, 2: 2, 3: 4, 63: 64, 64: 64}
	for in, want := range cases {
		r := NewRegistry(in)
		if got := r.SampleMask() + 1; got != want {
			t.Fatalf("NewRegistry(%d) period = %d, want %d", in, got, want)
		}
	}
}

// TestConcurrentShardsAndScrapes exercises the single-writer-per-shard,
// many-reader contract under the race detector.
func TestConcurrentShardsAndScrapes(t *testing.T) {
	r := NewRegistry(1)
	const writers = 4
	const each = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := r.NewShard()
			for i := 0; i < each; i++ {
				sh.Inc(SeekRestarts)
				sh.Observe(OpInsert, time.Duration(i)*time.Nanosecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := r.Snapshot()
	if got := snap.Counters[SeekRestarts]; got != writers*each {
		t.Fatalf("SeekRestarts = %d, want %d", got, writers*each)
	}
	if got := snap.Latency[OpInsert].Count; got != writers*each {
		t.Fatalf("latency count = %d, want %d", got, writers*each)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry(0)
	sh := r.NewShard()
	sh.Inc(InsertCASFailures)
	sh.Inc(DeleteFlagCASFailures)
	sh.Observe(OpInsert, 200*time.Nanosecond)
	r.AddHook(func(s *Snapshot) {
		s.External["epoch_advances_total"] += 7
		s.Gauges["arena_allocated_nodes"] = 12
	})

	var b bytes.Buffer
	WritePrometheus(&b, []Named{{Name: "nm", Snap: r.Snapshot()}})
	out := b.String()

	for _, want := range []string{
		"# TYPE bst_cas_failures_total counter",
		`bst_cas_failures_total{tree="nm",step="insert"} 1`,
		`bst_cas_failures_total{tree="nm",step="flag"} 1`,
		"# TYPE bst_help_total counter",
		"# TYPE bst_seek_restarts_total counter",
		"# TYPE bst_op_latency_seconds histogram",
		`bst_op_latency_seconds_bucket{tree="nm",op="insert",le="+Inf"} 1`,
		`bst_op_latency_seconds_count{tree="nm",op="insert"} 1`,
		`bst_op_latency_seconds_sum{tree="nm",op="insert"}`,
		`bst_epoch_advances_total{tree="nm"} 7`,
		`bst_arena_allocated_nodes{tree="nm"} 12`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus output missing %q:\n%s", want, out)
		}
	}
	checkPrometheusWellFormed(t, out)
}

// checkPrometheusWellFormed enforces the exposition-format structural
// rules that matter for scrapers: every sample line parses as
// name{labels} value, and all samples of one metric family are contiguous.
func checkPrometheusWellFormed(t *testing.T, out string) {
	t.Helper()
	seen := map[string]bool{} // families already closed out
	last := ""
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition output")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			continue
		}
		brace := strings.IndexByte(line, '{')
		space := strings.LastIndexByte(line, ' ')
		if brace < 1 || space < brace || !strings.Contains(line[:space], "}") {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := line[:brace]
		// Histogram child series (_bucket/_sum/_count) belong to the parent.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suf)
		}
		if name != last {
			if seen[name] {
				t.Fatalf("family %q not contiguous", name)
			}
			if last != "" {
				seen[last] = true
			}
			last = name
		}
	}
}

func TestWriteExpvarJSON(t *testing.T) {
	r := NewRegistry(0)
	sh := r.NewShard()
	sh.Inc(HelpOther)
	sh.Observe(OpDelete, time.Microsecond)

	var b bytes.Buffer
	WriteExpvar(&b, []Named{{Name: "nm", Snap: r.Snapshot()}})
	var doc map[string]struct {
		SampleEvery uint64                   `json:"sample_every_ops"`
		Counters    map[string]uint64        `json:"counters"`
		Latency     map[string]expvarLatency `json:"latency"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v\n%s", err, b.String())
	}
	nm, ok := doc["nm"]
	if !ok {
		t.Fatalf("missing source key: %s", b.String())
	}
	if nm.Counters["help_other_total"] != 1 {
		t.Fatalf("help_other_total = %d, want 1", nm.Counters["help_other_total"])
	}
	if nm.Latency["delete"].Count != 1 {
		t.Fatalf("delete latency count = %d, want 1", nm.Latency["delete"].Count)
	}
}

func TestExternalLatencyHookAndRendering(t *testing.T) {
	r := NewRegistry(0)
	r.AddHook(func(s *Snapshot) {
		var l LatencySnapshot
		l.Buckets[20] = 3 // three samples around half a millisecond
		l.Count = 3
		l.SumNanos = 1_500_000
		s.ExternalLatency["wal_fsync_seconds"] = l
		s.External["wal_append_total"] += 9
	})
	snap := r.Snapshot()
	if got := snap.ExternalLatency["wal_fsync_seconds"].Count; got != 3 {
		t.Fatalf("hook latency count = %d, want 3", got)
	}

	var b bytes.Buffer
	WritePrometheus(&b, []Named{{Name: "srv", Snap: snap}})
	out := b.String()
	for _, want := range []string{
		"# TYPE bst_wal_fsync_seconds histogram",
		`bst_wal_fsync_seconds_bucket{tree="srv",le="+Inf"} 3`,
		`bst_wal_fsync_seconds_count{tree="srv"} 3`,
		`bst_wal_fsync_seconds_sum{tree="srv"} 0.0015`,
		`bst_wal_append_total{tree="srv"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus output missing %q:\n%s", want, out)
		}
	}
	checkPrometheusWellFormed(t, out)

	// The expvar document carries the same histogram under latency.
	b.Reset()
	WriteExpvar(&b, []Named{{Name: "srv", Snap: snap}})
	var doc map[string]struct {
		Latency map[string]expvarLatency `json:"latency"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("expvar output invalid: %v", err)
	}
	if doc["srv"].Latency["wal_fsync_seconds"].Count != 3 {
		t.Fatalf("expvar missing external latency: %s", b.String())
	}

	// Sub yields a proper delta.
	d := snap.Sub(emptySnapshot(snap.SampleEvery))
	if d.ExternalLatency["wal_fsync_seconds"].SumNanos != 1_500_000 {
		t.Fatalf("Sub lost external latency: %+v", d.ExternalLatency)
	}
}
