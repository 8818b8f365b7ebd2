package bst

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

func workTree(t *testing.T, opts ...Option) *Tree {
	t.Helper()
	tr := New(append([]Option{WithCapacity(1 << 14)}, opts...)...)
	for i := int64(0); i < 500; i++ {
		tr.Insert(i)
	}
	for i := int64(0); i < 500; i++ {
		tr.Contains(i)
	}
	for i := int64(0); i < 250; i++ {
		tr.Delete(i)
	}
	return tr
}

func TestTreeMetricsSnapshot(t *testing.T) {
	tr := workTree(t, WithMetrics(1))
	m := tr.Metrics()
	if !m.Enabled {
		t.Fatal("Metrics().Enabled = false on a WithMetrics tree")
	}
	if m.SampleEvery != 1 {
		t.Fatalf("SampleEvery = %d, want 1", m.SampleEvery)
	}
	if got := m.Counters["ops_insert_total"]; got != 500 {
		t.Fatalf("ops_insert_total = %d, want 500", got)
	}
	if got := m.Counters["ops_delete_total"]; got != 250 {
		t.Fatalf("ops_delete_total = %d, want 250", got)
	}
	lat, ok := m.Latency["insert"]
	if !ok || lat.Count != 500 {
		t.Fatalf("insert latency count = %d (ok=%v), want 500 at sampleEvery=1", lat.Count, ok)
	}
	if lat.P50Nanos == 0 || lat.P99Nanos < lat.P50Nanos {
		t.Fatalf("implausible quantiles: p50=%d p99=%d", lat.P50Nanos, lat.P99Nanos)
	}
	if m.Gauges["arena_allocated_nodes"] == 0 {
		t.Fatal("arena_allocated_nodes gauge missing")
	}
}

func TestTreeMetricsSub(t *testing.T) {
	tr := workTree(t, WithMetrics(1))
	before := tr.Metrics()
	for i := int64(1000); i < 1100; i++ {
		tr.Insert(i)
	}
	d := tr.Metrics().Sub(before)
	if got := d.Counters["ops_insert_total"]; got != 100 {
		t.Fatalf("delta ops_insert_total = %d, want 100", got)
	}
	if got := d.Counters["ops_delete_total"]; got != 0 {
		t.Fatalf("delta ops_delete_total = %d, want 0", got)
	}
	if got := d.Latency["insert"].Count; got != 100 {
		t.Fatalf("delta insert latency count = %d, want 100", got)
	}
	if got := d.Latency["delete"].Count; got != 0 {
		t.Fatalf("delta delete latency count = %d, want 0", got)
	}
}

func TestTreeMetricsDisabled(t *testing.T) {
	tr := workTree(t)
	if m := tr.Metrics(); m.Enabled {
		t.Fatalf("Metrics().Enabled = true without WithMetrics: %+v", m)
	}
}

// TestServeMetricsEndpoint is the acceptance test for the HTTP exposition
// path: start a real listener, GET /metrics over TCP like a scraper would,
// and check the Prometheus text includes the contention families and
// latency histogram series.
func TestServeMetricsEndpoint(t *testing.T) {
	tr := workTree(t, WithMetrics(1))
	srv, err := ServeMetrics("127.0.0.1:0", map[string]*Tree{"nm": tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := httpGet(t, "http://"+srv.Addr()+"/metrics")
	for _, want := range []string{
		`# TYPE bst_ops_total counter`,
		`bst_ops_total{tree="nm",op="insert"} 500`,
		`# TYPE bst_cas_failures_total counter`,
		`bst_cas_failures_total{tree="nm",step="flag"}`,
		`bst_cas_failures_total{tree="nm",step="insert"}`,
		`# TYPE bst_help_total counter`,
		`bst_help_total{tree="nm"}`,
		`# TYPE bst_seek_restarts_total counter`,
		`bst_seek_restarts_total{tree="nm"}`,
		`# TYPE bst_op_latency_seconds histogram`,
		`bst_op_latency_seconds_bucket{tree="nm",op="search",le="+Inf"} 500`,
		`bst_op_latency_seconds_count{tree="nm",op="delete"} 250`,
		`bst_op_latency_seconds_sum{tree="nm",op="insert"}`,
		`bst_arena_allocated_nodes{tree="nm"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("GET /metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("full body:\n%s", body)
	}

	// /debug/vars must be valid JSON with the same counters.
	var vars map[string]struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+srv.Addr()+"/debug/vars")), &vars); err != nil {
		t.Fatalf("GET /debug/vars is not valid JSON: %v", err)
	}
	if got := vars["nm"].Counters["ops_search_total"]; got != 500 {
		t.Fatalf("/debug/vars ops_search_total = %d, want 500", got)
	}
}

// TestServeMetricsLive checks a scrape taken while writers are running:
// the endpoint must respond with parseable output mid-load (scrapes never
// block operations) and successive scrapes must be monotonic.
func TestServeMetricsLive(t *testing.T) {
	tr := New(WithCapacity(1<<16), WithMetrics(0), WithReclamation())
	srv, err := ServeMetrics("127.0.0.1:0", map[string]*Tree{"nm": tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ac := tr.NewAccessor()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i % 4096
			ac.Insert(k)
			ac.Delete(k)
		}
	}()

	var prev uint64
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 3; i++ {
		m := tr.Metrics()
		total := m.Counters["ops_insert_total"] + m.Counters["ops_delete_total"]
		if total < prev {
			t.Fatalf("scrape %d went backwards: %d < %d", i, total, prev)
		}
		prev = total
		body := httpGet(t, "http://"+srv.Addr()+"/metrics")
		if !strings.Contains(body, `bst_ops_total{tree="nm",op="insert"}`) {
			t.Fatalf("mid-load scrape missing ops series:\n%s", body)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	close(stop)
	<-done
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree invalid after scraped run: %v", err)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}

func ExampleTree_Metrics() {
	tr := New(WithMetrics(1), WithCapacity(1<<12))
	tr.Insert(1)
	tr.Insert(2)
	tr.Delete(1)
	m := tr.Metrics()
	fmt.Println(m.Counters["ops_insert_total"], m.Counters["ops_delete_total"])
	// Output: 2 1
}

// treeSeries is every series a WithMetrics(0), WithOrderStatistics() tree
// serves on /metrics, as its "# TYPE" name and type. A renamed or removed
// series fails TestServedSeriesGolden; a new one must be added here.
var treeSeries = []string{
	"bst_arena_allocated_nodes gauge",
	"bst_arena_capacity_nodes gauge",
	"bst_arena_recycled_nodes_total counter",
	"bst_arena_spill_hits_total counter",
	"bst_batch_ops_total counter",
	"bst_batch_seek_skipped_levels_total counter",
	"bst_capacity_failures_total counter",
	"bst_capacity_retries_total counter",
	"bst_cas_failures_total counter",
	"bst_forest_shards gauge",
	"bst_help_total counter",
	"bst_insert_retries_total counter",
	"bst_latency_sample_period_ops gauge",
	"bst_op_latency_seconds histogram",
	"bst_ops_total counter",
	"bst_orderstat_buckets gauge",
	"bst_orderstat_buckets_rescanned_total counter",
	"bst_orderstat_full_waves_total counter",
	"bst_orderstat_keys_walked_total counter",
	"bst_orderstat_served_total counter",
	"bst_orderstat_wave_nanos_total counter",
	"bst_orderstat_waves_total counter",
	"bst_pruned_leaves_total counter",
	"bst_seek_restarts_total counter",
	"bst_splice_wins_total counter",
}

// TestServedSeriesGolden pins the series names and types MetricsHandler
// serves for an order-statistics tree with metrics, on one shard and on
// four: the same list for both.
func TestServedSeriesGolden(t *testing.T) {
	for _, shards := range []int{1, 4} {
		tr := New(WithMetrics(0), WithOrderStatistics(), WithShards(shards))
		for i := int64(0); i < 500; i++ {
			tr.Insert(i << 52)
			tr.Contains(i << 52)
		}
		if _, err := tr.CountRange(0, MaxKey, Exact); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(MetricsHandler(map[string]*Tree{"t": tr}))
		var got []string
		for _, l := range strings.Split(httpGet(t, srv.URL+"/metrics"), "\n") {
			if name, ok := strings.CutPrefix(l, "# TYPE "); ok {
				got = append(got, name)
			}
		}
		srv.Close()
		tr.Close()
		slices.Sort(got)
		if !slices.Equal(got, treeSeries) {
			t.Errorf("shards=%d serves\n%s\nwant\n%s", shards, strings.Join(got, "\n"), strings.Join(treeSeries, "\n"))
		}
	}
}
