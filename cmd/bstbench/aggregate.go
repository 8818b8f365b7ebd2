package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	bst "repro"
	"repro/internal/stats"
)

// -aggregate mode: order-statistics queries against the scan they
// replace. Each key range gets one table — a row per query method, all
// answering the same window shapes over the same population — so "what
// does CountRange buy over counting a Scan" reads straight down the
// column. The -agg-writers flag adds churn: exact queries then pay
// summary refresh waves (the price of linearizing against completed
// mutations) while bounded-stale queries keep serving the cached summary,
// which is the Exact-vs-BoundedStale trade the docs table records.

// aggMethods orders the rows. scan-count is the baseline every other
// method is compared against.
var aggMethods = []string{
	"scan-count", "count-exact", "count-stale",
	"rank-exact", "select-exact", "sum-exact",
}

// aggStaleBudget is the BoundedStale dirty budget for the *-stale rows:
// large enough that a cell's churn rarely forces a wave, so the row shows
// the pure cached-summary cost.
const aggStaleBudget = 4096

// runAggregateCell measures one (method × key range) cell: reps
// measurement windows over one prefilled tree, random half-range windows
// per query.
func runAggregateCell(tree *bst.Tree, method string, kr int, reps int, dur time.Duration, seed uint64) []float64 {
	exact := bst.Exact
	stale := bst.BoundedStale(aggStaleBudget)
	runs := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(int64(seed) + int64(rep)*7919))
		queries := 0
		deadline := time.Now().Add(dur)
		for time.Now().Before(deadline) {
			// A fresh window per query, half the key range wide on
			// average, so summaries can't special-case one range.
			lo := int64(rng.Intn(kr))
			hi := lo + int64(rng.Intn(kr/2+1))
			switch method {
			case "scan-count":
				n := 0
				tree.Scan(lo, hi, func(int64) bool { n++; return true })
			case "count-exact":
				mustAgg(tree.CountRange(lo, hi, exact))
			case "count-stale":
				mustAgg(tree.CountRange(lo, hi, stale))
			case "rank-exact":
				mustAgg(tree.Rank(hi, exact))
			case "select-exact":
				// lo is almost always below the population; churn can push
				// it past the end, which is an answer, not a failure.
				if _, err := tree.Select(int(lo), exact); err != nil && !errors.Is(err, bst.ErrSelectOutOfRange) {
					fatal(err)
				}
			case "sum-exact":
				mustAgg64(tree.SumRange(lo, hi, exact))
			}
			queries++
		}
		runs = append(runs, float64(queries)/dur.Seconds())
	}
	return runs
}

func mustAgg(_ int, err error)     { fatal(err) }
func mustAgg64(_ int64, err error) { fatal(err) }

// runAggregateMode is the -aggregate entry point.
func runAggregateMode(keyRanges []int, writers, reps int, dur time.Duration, seed uint64, minSpeedup float64, csvTable *stats.Table, doc *benchJSON) {
	info := infoOut(csvTable)
	fmt.Fprintf(info, "# bstbench: order-statistics queries vs scan — %d key ranges × methods %v, writers=%d\n",
		len(keyRanges), aggMethods, writers)
	fmt.Fprintf(info, "# GOMAXPROCS=%d duration/cell=%v reps=%d stale_budget=%d\n",
		runtime.GOMAXPROCS(0), dur, reps, aggStaleBudget)

	var lastSpeedup float64
	for _, kr := range keyRanges {
		// Shuffled prefill: monotone insertion would build the external
		// tree as a spine and hand the scan baseline a pathological shape.
		// Reclamation is on because churned cells recycle nodes for the
		// whole measurement — without it the writers exhaust the arena.
		tree := bst.New(bst.WithOrderStatistics(), bst.WithReclamation(),
			bst.WithCapacity(nextPow2(2*kr+16)))
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, k := range rng.Perm(kr) {
			tree.Insert(int64(k))
		}
		// Warm the summary so quiescent cells measure steady state, not
		// the first wave.
		if _, err := tree.Rank(0, bst.Exact); err != nil {
			fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		var churn atomic.Uint64
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(int64(seed) + 1000003*int64(w+1)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := int64(wrng.Intn(kr))
					if wrng.Intn(2) == 0 {
						tree.Insert(k)
					} else {
						tree.Delete(k)
					}
					churn.Add(1)
				}
			}(w)
		}

		tbl := stats.NewTable("method", "queries_per_sec", "vs_scan")
		var scanQPS float64
		for _, method := range aggMethods {
			runs := runAggregateCell(tree, method, kr, reps, dur, seed)
			v := stats.Median(runs)
			if method == "scan-count" {
				scanQPS = v
			}
			ratio := 0.0
			if scanQPS > 0 {
				ratio = v / scanQPS
			}
			if method == "count-exact" {
				lastSpeedup = ratio
			}
			tbl.AddRow(method, stats.HumanCount(v), fmt.Sprintf("%.1fx", ratio))
			if csvTable != nil {
				csvTable.AddRow(kr, "aggregate", 1, "nm["+method+"]", v)
			}
			if doc != nil {
				doc.Cells = append(doc.Cells, cellJSON{
					Algorithm:       "nm",
					Threads:         1,
					KeyRange:        kr,
					Workload:        "aggregate",
					Reps:            reps,
					AggMethod:       method,
					AggWriters:      writers,
					OpsPerSec:       runs,
					MedianOpsPerSec: v,
				})
			}
		}
		close(stop)
		wg.Wait()
		if csvTable == nil {
			fmt.Printf("\n== key range %d, aggregate queries (writers=%d, churned %d mutations) ==\n",
				kr, writers, churn.Load())
			fmt.Print(tbl.String())
		}
		tree.Close()
	}

	// The smoke gate's assertion line — always last on stdout, or on
	// stderr under -csv.
	status := "ok"
	if minSpeedup > 0 && lastSpeedup < minSpeedup {
		status = fmt.Sprintf("FAIL (need ≥%.0fx)", minSpeedup)
	}
	fmt.Fprintf(info, "aggregate: count-exact vs scan-count %.1fx at %d keys: %s\n",
		lastSpeedup, keyRanges[len(keyRanges)-1], status)
	if minSpeedup > 0 && lastSpeedup < minSpeedup {
		fatal(fmt.Errorf("aggregate speedup gate failed: %.1fx < %.1fx", lastSpeedup, minSpeedup))
	}
}

// nextPow2 rounds n up to a power of two (arena capacities require it).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
