package bst_test

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	bst "repro"
)

// TestOrderStatsDisabled: without WithOrderStatistics every aggregate
// query answers ErrNoOrderStats, on both layouts.
func TestOrderStatsDisabled(t *testing.T) {
	for _, opts := range [][]bst.Option{
		nil,
		{bst.WithShards(4), bst.WithShardRange(0, 1<<20)},
	} {
		tr := bst.New(opts...)
		tr.Insert(7)
		if _, err := tr.Rank(7, bst.Exact); !errors.Is(err, bst.ErrNoOrderStats) {
			t.Fatalf("Rank err = %v, want ErrNoOrderStats", err)
		}
		if _, err := tr.Select(0, bst.Exact); !errors.Is(err, bst.ErrNoOrderStats) {
			t.Fatalf("Select err = %v, want ErrNoOrderStats", err)
		}
		if _, err := tr.CountRange(0, 10, bst.Exact); !errors.Is(err, bst.ErrNoOrderStats) {
			t.Fatalf("CountRange err = %v, want ErrNoOrderStats", err)
		}
		if _, err := tr.SumRange(0, 10, bst.Exact); !errors.Is(err, bst.ErrNoOrderStats) {
			t.Fatalf("SumRange err = %v, want ErrNoOrderStats", err)
		}
		err := tr.ScanIndexed(0, 10, bst.Exact, func(int64) bool { return true })
		if !errors.Is(err, bst.ErrNoOrderStats) {
			t.Fatalf("ScanIndexed err = %v, want ErrNoOrderStats", err)
		}
		tr.Close()
	}
}

// TestOrderStatsAgainstReference drives the public API on both layouts
// against a sorted reference, including clamping and edge indices.
func TestOrderStatsAgainstReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []bst.Option
	}{
		{"single", []bst.Option{bst.WithOrderStatistics()}},
		{"sharded", []bst.Option{
			bst.WithOrderStatistics(),
			bst.WithShards(4), bst.WithShardRange(-1<<19, 1<<19),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := bst.New(tc.opts...)
			defer tr.Close()
			rng := rand.New(rand.NewSource(5))
			ref := map[int64]bool{}
			for i := 0; i < 3000; i++ {
				k := int64(rng.Intn(1<<20)) - 1<<19 // negatives included
				if rng.Intn(4) == 0 {
					tr.Delete(k)
					delete(ref, k)
				} else {
					tr.Insert(k)
					ref[k] = true
				}
			}
			sorted := make([]int64, 0, len(ref))
			for k := range ref {
				sorted = append(sorted, k)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

			for trial := 0; trial < 40; trial++ {
				k := int64(rng.Intn(1<<20)) - 1<<19
				want := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= k })
				if got, err := tr.Rank(k, bst.Exact); err != nil || got != want {
					t.Fatalf("Rank(%d) = (%d,%v), want %d", k, got, err, want)
				}

				lo := int64(rng.Intn(1<<20)) - 1<<19
				hi := lo + int64(rng.Intn(1<<19))
				wantN, wantS := 0, int64(0)
				for _, v := range sorted {
					if v >= lo && v <= hi {
						wantN++
						wantS += v
					}
				}
				if got, err := tr.CountRange(lo, hi, bst.Exact); err != nil || got != wantN {
					t.Fatalf("CountRange(%d,%d) = (%d,%v), want %d", lo, hi, got, err, wantN)
				}
				if got, err := tr.SumRange(lo, hi, bst.Exact); err != nil || got != wantS {
					t.Fatalf("SumRange(%d,%d) = (%d,%v), want %d", lo, hi, got, err, wantS)
				}

				i := rng.Intn(len(sorted))
				if got, err := tr.Select(i, bst.Exact); err != nil || got != sorted[i] {
					t.Fatalf("Select(%d) = (%d,%v), want %d", i, got, err, sorted[i])
				}
			}

			// Edges: rank above MaxKey is the population, inverted and
			// clamped ranges, select out of bounds.
			if got, err := tr.Rank(bst.MaxKey+1, bst.Exact); err != nil || got != len(sorted) {
				t.Fatalf("Rank(MaxKey+1) = (%d,%v), want %d", got, err, len(sorted))
			}
			if got, err := tr.CountRange(10, 0, bst.Exact); err != nil || got != 0 {
				t.Fatalf("CountRange inverted = (%d,%v), want 0", got, err)
			}
			minK := int64(-1 << 63)
			if got, err := tr.CountRange(minK, bst.MaxKey+2, bst.Exact); err != nil || got != len(sorted) {
				t.Fatalf("CountRange full clamped = (%d,%v), want %d", got, err, len(sorted))
			}
			if _, err := tr.Select(len(sorted), bst.Exact); !errors.Is(err, bst.ErrSelectOutOfRange) {
				t.Fatalf("Select(len) err = %v, want ErrSelectOutOfRange", err)
			}
			if _, err := tr.Select(-1, bst.Exact); !errors.Is(err, bst.ErrSelectOutOfRange) {
				t.Fatalf("Select(-1) err = %v, want ErrSelectOutOfRange", err)
			}

			// ScanIndexed streams exactly the in-range reference keys.
			lo, hi := int64(-1<<18), int64(1<<18)
			var got []int64
			if err := tr.ScanIndexed(lo, hi, bst.Exact, func(k int64) bool {
				got = append(got, k)
				return true
			}); err != nil {
				t.Fatalf("ScanIndexed: %v", err)
			}
			var want []int64
			for _, v := range sorted {
				if v >= lo && v <= hi {
					want = append(want, v)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("ScanIndexed yielded %d keys, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("ScanIndexed[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestShardedAggregatesAgreeWithScan is the cross-shard regression: on a
// forest, Exact CountRange over a boundary-spanning window must agree
// with the merged Scan's count once writers quiesce, and stay inside the
// acked/issued monotone window while they churn. Same for Exact Rank
// versus a scan-derived rank.
func TestShardedAggregatesAgreeWithScan(t *testing.T) {
	const (
		span    = 1 << 20
		workers = 4
		perW    = 3000
	)
	tr := bst.New(
		bst.WithOrderStatistics(),
		bst.WithShards(4), bst.WithShardRange(0, span),
	)
	defer tr.Close()

	// Window picked to straddle shard boundaries: the 4 shards split
	// [0, span] evenly, so [span/4 - 1000, 3*span/4 + 1000] crosses two.
	lo, hi := int64(span/4-1000), int64(3*span/4+1000)
	if tr.ShardOf(lo) == tr.ShardOf(hi) {
		t.Fatalf("test window does not span shards (%d..%d)", tr.ShardOf(lo), tr.ShardOf(hi))
	}

	var issued, acked atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct in-window keys per worker: every insert is new,
			// so completed inserts == in-window key count growth.
			for i := 0; i < perW; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := lo + int64(w*perW+i)
				issued.Add(1)
				tr.Insert(k)
				acked.Add(1)
			}
		}(w)
	}

	// Under churn: every Exact count sits inside the monotone window
	// [ackedBefore, issuedAfter], and successive exact counts never
	// decrease (insert-only workload). The Scan count obeys the same
	// window, so the two can only diverge within in-flight slack.
	prev := 0
	for q := 0; q < 200; q++ {
		before := acked.Load()
		got, err := tr.CountRange(lo, hi, bst.Exact)
		after := issued.Load()
		if err != nil {
			t.Fatalf("CountRange: %v", err)
		}
		if int64(got) < before || int64(got) > after {
			t.Fatalf("exact CountRange = %d outside [acked %d, issued %d]", got, before, after)
		}
		if got < prev {
			t.Fatalf("exact CountRange went backwards: %d after %d", got, prev)
		}
		prev = got

		before = acked.Load()
		rank, err := tr.Rank(hi+1, bst.Exact)
		after = issued.Load()
		if err != nil {
			t.Fatalf("Rank: %v", err)
		}
		if int64(rank) < before || int64(rank) > after {
			t.Fatalf("exact Rank = %d outside [acked %d, issued %d]", rank, before, after)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: aggregate answers and the merged Scan agree exactly.
	scanN := 0
	tr.Scan(lo, hi, func(int64) bool { scanN++; return true })
	if got, _ := tr.CountRange(lo, hi, bst.Exact); got != scanN {
		t.Fatalf("quiesced CountRange = %d, Scan count = %d", got, scanN)
	}
	scanRank := 0
	tr.Scan(0, hi, func(int64) bool { scanRank++; return true })
	if got, _ := tr.Rank(hi+1, bst.Exact); got != scanRank {
		t.Fatalf("quiesced Rank(%d) = %d, scan rank = %d", hi+1, got, scanRank)
	}
}

// TestBoundedStaleBudgetPublic: a BoundedStale answer is within the dirty
// budget of exact — asserted at the public API, per the documented bound.
func TestBoundedStaleBudgetPublic(t *testing.T) {
	const budget = 32
	tr := bst.New(bst.WithOrderStatistics())
	defer tr.Close()
	for k := int64(0); k < 1000; k++ {
		tr.Insert(k)
	}
	exact, err := tr.CountRange(0, 1<<20, bst.Exact)
	if err != nil || exact != 1000 {
		t.Fatalf("exact warmup count = (%d,%v)", exact, err)
	}
	// budget pending mutations: the stale answer may lag, but by no more
	// than the budget; the exact answer always reflects them all.
	for k := int64(1000); k < 1000+budget; k++ {
		tr.Insert(k)
	}
	stale, err := tr.CountRange(0, 1<<20, bst.BoundedStale(budget))
	if err != nil {
		t.Fatalf("stale count: %v", err)
	}
	if stale < 1000 || stale > 1000+budget {
		t.Fatalf("BoundedStale(%d) count = %d, want within [1000,%d]", budget, stale, 1000+budget)
	}
	if got, _ := tr.CountRange(0, 1<<20, bst.Exact); got != 1000+budget {
		t.Fatalf("exact count = %d, want %d", got, 1000+budget)
	}
}

// TestOrderStatsMetrics checks the refresh telemetry: on a WithMetrics
// tree the wave counters and the bucket gauge reach Metrics (summed over
// shards on a forest), they move only when a query runs a wave, a wave's
// probes are not counted as user searches or batches, and
// ExportOrderStatsMetrics hands the same series to a foreign registry.
func TestOrderStatsMetrics(t *testing.T) {
	for _, shards := range []int{1, 4} {
		tr := bst.New(bst.WithOrderStatistics(), bst.WithReclamation(), bst.WithMetrics(0),
			bst.WithShards(shards))
		for k := int64(0); k < 5000; k++ {
			tr.Insert(k * 7)
		}
		if _, err := tr.CountRange(0, 1000, bst.Exact); err != nil {
			t.Fatal(err)
		}
		m := tr.Metrics()
		if m.Counters["orderstat_waves_total"] == 0 || m.Counters["orderstat_keys_walked_total"] < 5000 ||
			m.Counters["orderstat_wave_nanos_total"] == 0 || m.Gauges["orderstat_buckets"] < 5000/256 {
			t.Fatalf("shards=%d: wave telemetry missing after a wave: %v %v", shards, m.Counters, m.Gauges)
		}
		for i := 0; i < 10; i++ { // cached: only the served counter moves
			tr.CountRange(0, 1000, bst.Exact)
		}
		d := tr.Metrics().Sub(m)
		if d.Counters["orderstat_waves_total"] != 0 || d.Counters["orderstat_served_total"] < 10 {
			t.Fatalf("shards=%d: cached queries moved waves by %d, served by %d",
				shards, d.Counters["orderstat_waves_total"], d.Counters["orderstat_served_total"])
		}
		for k := int64(1); k <= 20; k++ { // 10 deletes, 10 inserts: 20 probes
			if k%2 == 0 {
				tr.Delete(k * 7 * 100)
			} else {
				tr.Insert(k*7*100 + 1)
			}
		}
		tr.CountRange(0, 1000, bst.Exact)
		d = tr.Metrics().Sub(m)
		if d.Counters["orderstat_waves_total"] == 0 || d.Counters["orderstat_buckets_rescanned_total"] == 0 ||
			d.Counters["orderstat_full_waves_total"] != 0 || d.Counters["orderstat_keys_walked_total"] != 20 {
			t.Fatalf("shards=%d: 20 mutations should run an incremental wave probing 20 keys: %v", shards, d.Counters)
		}
		for _, name := range []string{"ops_search_total", "batch_ops_total", "batch_seek_skipped_levels_total"} {
			if d.Counters[name] != 0 {
				t.Fatalf("shards=%d: an incremental wave moved %s by %d", shards, name, d.Counters[name])
			}
		}

		counters, gauges := map[string]uint64{}, map[string]float64{}
		tr.ExportOrderStatsMetrics(counters, gauges)
		if m := tr.Metrics(); counters["orderstat_waves_total"] != m.Counters["orderstat_waves_total"] ||
			gauges["orderstat_buckets"] != m.Gauges["orderstat_buckets"] {
			t.Fatalf("shards=%d: export %v %v disagrees with Metrics", shards, counters, gauges)
		}
		tr.Close()
	}
}
