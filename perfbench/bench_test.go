package main

import (
	"encoding/json"
	"os"
	"testing"
)

// listedMetrics reads one metric list of BENCHMARK.json: name to unit.
func listedMetrics(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench map[string]json.RawMessage
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bench[key], &metrics); err != nil {
		t.Fatalf("BENCHMARK.json %s: %v", key, err)
	}
	listed := map[string]string{}
	for _, m := range metrics {
		listed[m.Name] = m.Unit
	}
	if len(listed) == 0 {
		t.Fatalf("BENCHMARK.json lists no %s metrics", key)
	}
	return listed
}

// sameMetrics checks that a run reports exactly the listed metrics, in
// their units.
func sameMetrics(t *testing.T, listed map[string]string, got metricSet) {
	t.Helper()
	for name, unit := range listed {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("BENCHMARK.json lists %s in %q; the run reports %+v", name, unit, m)
		}
	}
	for name := range got {
		if _, ok := listed[name]; !ok {
			t.Errorf("the run reports %s, which BENCHMARK.json does not list", name)
		}
	}
}

func TestRunsReportTheListedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 500K-key store")
	}
	e := &env{name: "tree-mixed", seed: 3, seconds: 1, data: t.TempDir(), out: t.TempDir()}
	res, err := runPlain(e, workloads["tree-mixed"])
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, listedMetrics(t, "end_to_end"), res.metrics)

	e = &env{name: "wire-point", seed: 3, seconds: 1, data: t.TempDir(), out: t.TempDir()}
	if res, err = runTraced(e, workloads["wire-point"]); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, listedMetrics(t, "per_layer"), res.metrics)
}
