package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,64")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 64 {
		t.Fatalf("parseInts = %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := parseInts("0"); err == nil {
		t.Fatal("non-positive accepted")
	}
}

func TestParseTargets(t *testing.T) {
	ts, err := parseTargets("nm, efrb")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Name != "nm" || ts[1].Name != "efrb" {
		t.Fatalf("parseTargets wrong: %d targets", len(ts))
	}
	if _, err := parseTargets("nm,bogus"); err == nil {
		t.Fatal("bogus target accepted")
	}
}

// TestGridsRecordCells drives every grid through runGrid with a CSV table
// and a JSON document attached, and pins what each records per cell: the
// CSV algorithm label and the JSON cell's batch_size, shards and
// sync_policy, in column order for each thread count.
func TestGridsRecordCells(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the durable cells' data dirs
	mixed, err := workload.MixByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	targets, err := parseTargets("nm,efrb")
	if err != nil {
		t.Fatal(err)
	}
	s := settings{
		keyRanges: []int{1000}, mixes: []workload.Mix{mixed}, threads: []int{1, 2},
		cell: harness.Config{Duration: 5 * time.Millisecond, Seed: 1, Prefill: true},
		reps: 1,
	}
	// cell is one JSON cell's variant fields; absent fields stay zero.
	type cell struct {
		Algorithm  string `json:"algorithm"`
		Threads    int    `json:"threads"`
		BatchSize  int    `json:"batch_size"`
		Shards     int    `json:"shards"`
		SyncPolicy string `json:"sync_policy"`
	}
	for _, tc := range []struct {
		name   string
		g      grid
		labels []string
		cells  []cell // per thread count, in column order
	}{
		{"fig4", fig4Grid(targets, s), []string{"nm", "efrb"},
			[]cell{{Algorithm: "nm"}, {Algorithm: "efrb"}}},
		{"batch", batchGrid([]int{1, 8}, s), []string{"nm[b=1]", "nm[b=8]"},
			[]cell{{Algorithm: "nm", BatchSize: 1}, {Algorithm: "nm", BatchSize: 8}}},
		{"shards", shardGrid([]int{1, 2}, s), []string{"nm[s=1]", "nm[s=2]"},
			[]cell{{Algorithm: "nm", Shards: 1}, {Algorithm: "nm", Shards: 2}}},
		{"durable", durableGrid(s), []string{"nm[memory]", "nm[none]", "nm[interval]", "nm[fsync]"},
			[]cell{{Algorithm: "nm", SyncPolicy: "memory"}, {Algorithm: "nm", SyncPolicy: "none"},
				{Algorithm: "nm", SyncPolicy: "interval"}, {Algorithm: "nm", SyncPolicy: "fsync"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			csv := stats.NewTable("keyrange", "workload", "threads", "algorithm", "ops_per_sec")
			doc := newBenchJSON("5ms", 1, 1, 0, false, true, false)
			runGrid(tc.g, s, csv, doc)

			rows := strings.Split(strings.TrimSpace(csv.CSV()), "\n")[1:]
			b, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			var got struct{ Cells []cell }
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
			if want := len(s.threads) * len(tc.labels); len(rows) != want || len(got.Cells) != want {
				t.Fatalf("%d CSV rows and %d JSON cells, want %d of each", len(rows), len(got.Cells), want)
			}
			for i, row := range rows {
				th := s.threads[i/len(tc.labels)]
				if want := fmt.Sprintf("1000,mixed,%d,%s,", th, tc.labels[i%len(tc.labels)]); !strings.HasPrefix(row, want) {
					t.Errorf("CSV row %d = %q, want prefix %q", i, row, want)
				}
				want := tc.cells[i%len(tc.cells)]
				want.Threads = th
				if got.Cells[i] != want {
					t.Errorf("JSON cell %d = %+v, want %+v", i, got.Cells[i], want)
				}
				if doc.Cells[i].MedianOpsPerSec <= 0 {
					t.Errorf("JSON cell %d measured no throughput", i)
				}
			}
		})
	}
}

// TestGainLinesFollowColumns pins the gain lines' format, direction and
// order: Figure 4 reads base over column ("nm vs X"), the other grids
// column over base, and both list the non-base columns left to right.
func TestGainLinesFollowColumns(t *testing.T) {
	targets, err := parseTargets("efrb,nm,hj,bcco")
	if err != nil {
		t.Fatal(err)
	}
	var s settings
	var b strings.Builder
	fig4Grid(targets, s).writeGains(&b, [][]float64{{100, 100}, {150, 300}, {300, 150}, {150, 150}})
	want := "  nm vs efrb    : +50% .. +200% (across 2 thread counts)\n" +
		"  nm vs hj      : -50% .. +100% (across 2 thread counts)\n" +
		"  nm vs bcco    : +0% .. +100% (across 2 thread counts)\n"
	if b.String() != want {
		t.Errorf("Figure 4 gain lines:\n%s\nwant:\n%s", b.String(), want)
	}
	b.Reset()
	batchGrid([]int{8, 1}, s).writeGains(&b, [][]float64{{150, 300}, {100, 100}})
	if want := "  batch=8   vs single-op: +50% .. +200% (across 2 thread counts)\n"; b.String() != want {
		t.Errorf("batch gain lines = %q, want %q", b.String(), want)
	}
	b.Reset()
	shardGrid([]int{2, 4}, s).writeGains(&b, [][]float64{{1}, {2}})
	if b.String() != "" {
		t.Errorf("gain lines without a shards=1 column: %q", b.String())
	}
}
