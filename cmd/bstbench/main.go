// bstbench regenerates Figure 4 of "Fast Concurrent Lock-Free Binary
// Search Trees" (Natarajan & Mittal, PPoPP 2014): system throughput of
// four concurrent BST implementations across key ranges (maximum tree
// size), workload mixes and thread counts.
//
// Each (key range × workload) pair corresponds to one graph of Figure 4;
// this tool prints one table per graph with a row per thread count and a
// column per algorithm, followed by the paper-style relative-speedup
// summary of NM-BST against each baseline, in column order. The -batch,
// -shards and -durable grids print the same tables with a column per batch
// size, shard count or store variant, and gain lines against their
// batch=1, shards=1 or in-memory column.
//
// Examples:
//
//	bstbench                                  # full Figure 4 grid, quick cells
//	bstbench -keyranges 1000 -workloads write-dominated -threads 1,2,4,8
//	bstbench -duration 5s -reps 3             # slower, tighter cells
//	bstbench -csv > fig4.csv                  # machine-readable series
//	bstbench -json BENCH.json -metrics        # stable JSON + telemetry deltas
//	bstbench -metrics -metrics-addr :9100     # scrape /metrics while it runs
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	runtrace "runtime/trace"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/rtrace"
	"repro/internal/stats"
	"repro/internal/workload"
)

// curRegistry is the registry of the cell currently measuring, read by the
// live -metrics-addr endpoint (registries rotate per rep so JSON deltas
// stay per-cell).
var curRegistry atomic.Pointer[metrics.Registry]

func main() {
	var (
		targetsFlag   = flag.String("targets", "nm,efrb,hj,bcco", "comma-separated algorithms (nm, nm-boxed, efrb, hj, bcco, cgl, kst4, kst16)")
		keyRangesFlag = flag.String("keyranges", "1000,10000,100000,1000000", "comma-separated key ranges (paper: 1K,10K,100K,1M)")
		workloadsFlag = flag.String("workloads", "write-dominated,mixed,read-dominated", "comma-separated workload mixes")
		threadsFlag   = flag.String("threads", "1,2,4,8,16,32,64", "comma-separated thread counts")
		duration      = flag.Duration("duration", 500*time.Millisecond, "measurement duration per cell")
		reps          = flag.Int("reps", 1, "repetitions per cell (median reported)")
		seed          = flag.Uint64("seed", 1, "base RNG seed")
		zipfS         = flag.Float64("zipf", 0, "Zipf skew parameter (>1 enables skewed keys; 0 = uniform as in the paper)")
		reclaim       = flag.Bool("reclaim", false, "enable epoch reclamation on the NM tree (ablation; paper runs without)")
		csv           = flag.Bool("csv", false, "emit one CSV stream instead of tables")
		noPrefill     = flag.Bool("no-prefill", false, "skip pre-population (paper pre-populates to half the key range)")
		jsonPath      = flag.String("json", "", "also write a stable bst-bench/v1 JSON document to this path (\"-\" for stdout)")
		batchMode     = flag.Bool("batch", false, "measure batched vs single-op throughput on the nm tree (cells per -batchsizes) instead of the Figure 4 grid")
		shardsFlag    = flag.String("shards", "", "comma-separated shard counts; when set, measure the nm tree sharded across these counts (shard-mode table) instead of the Figure 4 grid")
		durableMode   = flag.Bool("durable", false, "measure durability overhead on the nm tree (in-memory baseline vs WAL sync policies fsync/interval/none) instead of the Figure 4 grid")
		batchSizes    = flag.String("batchsizes", "1,8,64", "comma-separated batch sizes for -batch mode (1 = single-op baseline)")
		aggMode       = flag.Bool("aggregate", false, "measure order-statistics queries (rank/select/count/sum) vs the scan baseline on an indexed nm tree instead of the Figure 4 grid")
		aggWriters    = flag.Int("agg-writers", 0, "concurrent mutators churning the tree during -aggregate cells (0 = quiescent)")
		aggMinSpeedup = flag.Float64("agg-min-speedup", 0, "fail unless count-exact beats scan-count by this factor at the largest key range (0 = no assertion)")
		metricsOn     = flag.Bool("metrics", false, "enable live contention telemetry on the nm tree (counters + sampled latency histograms)")
		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/vars (JSON) on this address while running (implies -metrics)")
		traceFile     = flag.String("trace", "", "write a runtime/trace capture of the whole run to this file")
		traceSample   = flag.Int("trace-sample", 0, "flight recorder: sample every Nth operation per worker and report per-phase time in the JSON cells (0 disables)")
	)
	flag.Parse()
	if *metricsAddr != "" {
		*metricsOn = true
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		fatal(err)
		fatal(runtrace.Start(f))
		defer func() { runtrace.Stop(); f.Close() }()
	}
	if *metricsAddr != "" {
		h := metrics.Handler(func() []metrics.Source {
			return []metrics.Source{{Name: harness.TargetNM, Registry: curRegistry.Load()}}
		})
		srv, err := serveHTTP(*metricsAddr, h)
		fatal(err)
		fmt.Printf("# metrics endpoint: http://%s/metrics\n", srv)
	}

	targets, err := parseTargets(*targetsFlag)
	fatal(err)
	keyRanges, err := parseInts(*keyRangesFlag)
	fatal(err)
	threads, err := parseInts(*threadsFlag)
	fatal(err)
	var mixes []workload.Mix
	for _, name := range strings.Split(*workloadsFlag, ",") {
		m, err := workload.MixByName(strings.TrimSpace(name))
		fatal(err)
		mixes = append(mixes, m)
	}

	var csvTable *stats.Table
	if *csv {
		csvTable = stats.NewTable("keyrange", "workload", "threads", "algorithm", "ops_per_sec")
	}
	var doc *benchJSON
	if *jsonPath != "" {
		doc = newBenchJSON(duration.String(), *reps, *seed, *zipfS, *reclaim, !*noPrefill, *metricsOn)
	}
	s := settings{
		keyRanges:   keyRanges,
		mixes:       mixes,
		threads:     threads,
		cell:        harness.Config{Duration: *duration, Seed: *seed, Prefill: !*noPrefill, ZipfS: *zipfS, Reclaim: *reclaim},
		reps:        *reps,
		metricsOn:   *metricsOn,
		traceSample: *traceSample,
	}

	switch {
	case *aggMode:
		runAggregateMode(keyRanges, *aggWriters, *reps, *duration, *seed, *aggMinSpeedup, csvTable, doc)
	case *durableMode:
		runGrid(durableGrid(s), s, csvTable, doc)
	case *shardsFlag != "":
		counts, err := parseInts(*shardsFlag)
		fatal(err)
		runGrid(shardGrid(counts, s), s, csvTable, doc)
	case *batchMode:
		sizes, err := parseInts(*batchSizes)
		fatal(err)
		runGrid(batchGrid(sizes, s), s, csvTable, doc)
	default:
		runGrid(fig4Grid(targets, s), s, csvTable, doc)
	}
	if csvTable != nil {
		fmt.Print(csvTable.CSV())
	}
	if doc != nil {
		fatal(doc.write(*jsonPath))
	}
}

// settings are the flag values every grid shares.
type settings struct {
	keyRanges   []int
	mixes       []workload.Mix
	threads     []int
	cell        harness.Config // Duration, Seed, Prefill, ZipfS and Reclaim of every cell
	reps        int
	metricsOn   bool
	traceSample int
}

// dims is the grid shape every first header line reports.
func (s settings) dims() string {
	return fmt.Sprintf("%d key ranges × %d workloads × %d thread counts", len(s.keyRanges), len(s.mixes), len(s.threads))
}

// runLine is the second header line of the tree grids.
func (s settings) runLine() string {
	return fmt.Sprintf("# GOMAXPROCS=%d duration/cell=%v reps=%d zipf=%v reclaim=%v",
		runtime.GOMAXPROCS(0), s.cell.Duration, s.reps, s.cell.ZipfS, s.cell.Reclaim)
}

// A grid is one bstbench table family. For every key range × workload it
// is a table with a row per thread count and a column per variant,
// followed by one gain line per column against the base column.
type grid struct {
	title    [2]string // the two "#" header lines
	suffix   string    // appended to each "== key range …" section line
	cols     []column
	base     string // header of the column the gain lines compare against
	baseOver bool   // gain is base over column (Figure 4's "nm vs X"), not column over base
}

// A column is one variant measured in every cell of a grid.
type column struct {
	header string // table column header
	label  string // CSV algorithm label
	gain   string // gain-line label
	run    func(harness.Config) cellJSON
}

// fig4Grid is the paper's Figure 4: a column per algorithm and the
// paper-style "NM outperforms X by a%-b%" gain lines.
func fig4Grid(targets []harness.Target, s settings) grid {
	g := grid{
		title: [2]string{
			fmt.Sprintf("# bstbench: Figure 4 reproduction — %d algorithms × %s", len(targets), s.dims()),
			s.runLine(),
		},
		base:     harness.TargetNM,
		baseOver: true,
	}
	for _, tg := range targets {
		g.cols = append(g.cols, column{
			header: tg.Name,
			label:  tg.Name,
			gain:   fmt.Sprintf("nm vs %-8s", tg.Name),
			run:    func(c harness.Config) cellJSON { return runCell(tg, c, s) },
		})
	}
	return g
}

// batchGrid measures the nm tree's batched entry points against its own
// single-op loop, a column per batch size. Identical workload generators
// feed every cell, so a column's gain is purely the batch path — one epoch
// pin per group and sorted path-sharing seeks.
func batchGrid(sizes []int, s settings) grid {
	nm, err := harness.TargetByName(harness.TargetNM)
	fatal(err)
	g := grid{
		title: [2]string{
			fmt.Sprintf("# bstbench: batch amortization on %s — %s × batch sizes %v", nm.Name, s.dims(), sizes),
			s.runLine(),
		},
		suffix: ", batched",
		base:   "batch=1",
	}
	for _, b := range sizes {
		g.cols = append(g.cols, column{
			header: fmt.Sprintf("batch=%d", b),
			label:  fmt.Sprintf("nm[b=%d]", b),
			gain:   fmt.Sprintf("batch=%-3d vs single-op", b),
			run:    func(c harness.Config) cellJSON { c.BatchSize = b; return runCell(nm, c, s) },
		})
	}
	return g
}

// shardGrid measures the nm tree partitioned into a forest, a column per
// shard count. Identical workload generators feed every cell, so a
// column's gain is purely the partitioning — per-shard arenas remove
// allocation-path sharing and per-shard epoch domains shrink reclamation
// scopes.
func shardGrid(counts []int, s settings) grid {
	nm, err := harness.TargetByName(harness.TargetNM)
	fatal(err)
	g := grid{
		title: [2]string{
			fmt.Sprintf("# bstbench: sharded forest scaling on %s — %s × shard counts %v", nm.Name, s.dims(), counts),
			s.runLine(),
		},
		suffix: ", sharded",
		base:   "shards=1",
	}
	for _, n := range counts {
		g.cols = append(g.cols, column{
			header: fmt.Sprintf("shards=%d", n),
			label:  fmt.Sprintf("nm[s=%d]", n),
			gain:   fmt.Sprintf("shards=%-3d vs single tree", n),
			run:    func(c harness.Config) cellJSON { c.Shards = n; return runCell(nm, c, s) },
		})
	}
	return g
}

// runGrid measures every cell of g. Per key range × workload it prints
// the table and its gain lines, or, when csv is set, adds one CSV row per
// cell instead. Every cell is appended to doc when doc is set.
func runGrid(g grid, s settings, csv *stats.Table, doc *benchJSON) {
	fmt.Println(g.title[0])
	fmt.Println(g.title[1])
	header := []string{"threads"}
	for _, col := range g.cols {
		header = append(header, col.header)
	}
	for _, kr := range s.keyRanges {
		for _, mix := range s.mixes {
			if csv == nil {
				fmt.Printf("\n== key range %d, workload %s%s ==\n", kr, mix.Name, g.suffix)
			}
			tbl := stats.NewTable(header...)
			tp := make([][]float64, len(g.cols)) // column → per-thread medians
			for _, th := range s.threads {
				row := []any{th}
				for i, col := range g.cols {
					cfg := s.cell
					cfg.Threads, cfg.KeyRange, cfg.Mix = th, int64(kr), mix
					cell := col.run(cfg)
					tp[i] = append(tp[i], cell.MedianOpsPerSec)
					row = append(row, stats.HumanCount(cell.MedianOpsPerSec))
					if csv != nil {
						csv.AddRow(kr, mix.Name, th, col.label, cell.MedianOpsPerSec)
					}
					if doc != nil {
						doc.Cells = append(doc.Cells, cell)
					}
				}
				tbl.AddRow(row...)
			}
			if csv == nil {
				fmt.Print(tbl.String())
				g.writeGains(os.Stdout, tp)
			}
		}
	}
}

// writeGains writes, in column order, each non-base column's lowest and
// highest gain across thread counts, when the base column was measured.
func (g grid) writeGains(w io.Writer, tp [][]float64) {
	b := slices.IndexFunc(g.cols, func(c column) bool { return c.header == g.base })
	if b < 0 {
		return
	}
	for i, col := range g.cols {
		if col.header == g.base {
			continue
		}
		lo, hi := 0.0, 0.0
		for t, v := range tp[i] {
			s := stats.Speedup(v, tp[b][t])
			if g.baseOver {
				s = stats.Speedup(tp[b][t], v)
			}
			if t == 0 || s < lo {
				lo = s
			}
			if t == 0 || s > hi {
				hi = s
			}
		}
		fmt.Fprintf(w, "  %s: %+.0f%% .. %+.0f%% (across %d thread counts)\n", col.gain, lo, hi, len(tp[i]))
	}
}

// runCell measures one (algorithm × threads × key range × workload) cell:
// reps fresh instances, each with its own telemetry registry when metricsOn
// (so every counter in the cell's JSON is a per-cell delta), summed across
// reps. The cell records the config's batch size and shard count.
func runCell(tg harness.Target, cfg harness.Config, s settings) cellJSON {
	cell := cellJSON{
		Algorithm: tg.Name,
		Threads:   cfg.Threads,
		KeyRange:  int(cfg.KeyRange),
		Workload:  cfg.Mix.Name,
		Reps:      s.reps,
		BatchSize: cfg.BatchSize,
		Shards:    cfg.Shards,
	}
	var agg [metrics.NumOps]metrics.LatencySnapshot
	runs := make([]float64, 0, s.reps)
	for i := 0; i < s.reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*1_000_003
		var reg *metrics.Registry
		if s.metricsOn && tg.Name == harness.TargetNM {
			reg = metrics.NewRegistry(0)
			c.Metrics = reg
			curRegistry.Store(reg)
		}
		var rec *rtrace.Recorder
		if s.traceSample > 0 {
			// Fresh recorder per rep: the folded phase aggregates are
			// per-cell deltas, same discipline as the metrics registries.
			rec = rtrace.New(rtrace.Options{SampleEvery: s.traceSample})
			c.Trace = rec
		}
		res := harness.RunTarget(tg, c)
		runs = append(runs, res.Throughput())
		if reg != nil {
			cell.addMetrics(reg.Snapshot(), &agg)
		}
		if rec != nil {
			cell.addTracePhases(rec.Phases())
		}
	}
	cell.OpsPerSec = runs
	cell.MedianOpsPerSec = stats.Median(runs)
	if cell.Metrics != nil {
		cell.finishLatency(&agg)
	}
	return cell
}

func parseTargets(s string) ([]harness.Target, error) {
	var out []harness.Target
	for _, name := range strings.Split(s, ",") {
		t, err := harness.TargetByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no targets given")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// serveHTTP starts a background HTTP server and returns its bound address.
// The server lives for the process; bench runs exit when measurement ends.
func serveHTTP(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bstbench:", err)
		os.Exit(1)
	}
}
