package main

import (
	"fmt"
	"os"
	"runtime"

	bst "repro"
	"repro/internal/durable"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/rtrace"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/workload"
)

// -durable mode: the cost of log-before-ack. Each (key range × workload)
// table has a row per thread count and a column per store variant — the
// in-memory baseline plus one durable.Tree per WAL sync policy — so the
// overhead of the write-ahead log (and of actually waiting for fsync)
// reads directly across a row. Group commit is what keeps the fsync
// column usable at higher thread counts: concurrent appenders share one
// flush, so the per-op fsync cost divides by the group size.

// durablePolicies orders the columns. "memory" is bst.New behind the same
// Accessor API — the zero-durability baseline.
var durablePolicies = []string{"memory", "none", "interval", "fsync"}

// setInstance adapts the public int64-keyed bst.Accessor surface (shared
// by bst.Tree and durable.Tree) to the harness's internal-key Accessor.
type setInstance struct {
	newAcc func() bst.Accessor
}

type setAccessor struct{ a bst.Accessor }

func (i setInstance) NewAccessor() harness.Accessor { return setAccessor{i.newAcc()} }

func (a setAccessor) Search(u uint64) bool { return a.a.Contains(keys.Unmap(u)) }
func (a setAccessor) Insert(u uint64) bool { return a.a.Insert(keys.Unmap(u)) }
func (a setAccessor) Delete(u uint64) bool { return a.a.Delete(keys.Unmap(u)) }

// runDurableCell measures one (policy × cfg) cell: reps fresh stores, each
// on a fresh data dir.
func runDurableCell(policy string, cfg harness.Config, s settings) cellJSON {
	cell := cellJSON{
		Algorithm:  harness.TargetNM,
		SyncPolicy: policy,
		Threads:    cfg.Threads,
		KeyRange:   int(cfg.KeyRange),
		Workload:   cfg.Mix.Name,
		Reps:       s.reps,
	}
	runs := make([]float64, 0, s.reps)
	for i := 0; i < s.reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*1_000_003
		var rec *rtrace.Recorder
		if s.traceSample > 0 {
			rec = rtrace.New(rtrace.Options{SampleEvery: s.traceSample})
		}
		runs = append(runs, durableRep(policy, c, rec))
		if rec != nil {
			cell.addTracePhases(rec.Phases())
		}
	}
	cell.OpsPerSec = runs
	cell.MedianOpsPerSec = stats.Median(runs)
	return cell
}

func durableRep(policy string, cfg harness.Config, rec *rtrace.Recorder) float64 {
	treeOpts := []bst.Option{bst.WithCapacity(1 << 22)}
	if cfg.Reclaim {
		treeOpts = append(treeOpts, bst.WithReclamation())
	}
	var inst setInstance
	var prefillAcc func() bst.Accessor
	var cleanup func()
	if policy == "memory" {
		tree := bst.New(treeOpts...)
		inst = setInstance{newAcc: tree.NewAccessor}
		prefillAcc = tree.NewAccessor
		cleanup = func() { tree.Close() }
		// No WAL here: the harness's own sampling records the KTreeOp
		// baseline the durable columns compare against.
		cfg.Trace = rec
	} else {
		sync, err := wal.ParseSyncPolicy(policy)
		fatal(err)
		dir, err := os.MkdirTemp("", "bstbench-durable-")
		fatal(err)
		// Sampling lives in the durable layer for WAL-backed cells — it
		// splits each mutation into KTreeOp (apply + enqueue) and KWALWait
		// (group-commit wait), which is the whole point of tracing a
		// durability cell. The harness layer stays untraced so the phases
		// are recorded exactly once.
		dur, err := durable.Open(dir, durable.Options{Sync: sync, TreeOptions: treeOpts, Trace: rec})
		fatal(err)
		inst = setInstance{newAcc: dur.NewAccessor}
		// Prefill bypasses the WAL (straight into the wrapped tree): the
		// cell measures steady-state logged throughput, not the one-time
		// cost of logging the prefill.
		prefillAcc = dur.Underlying().NewAccessor
		cleanup = func() { dur.Close(); os.RemoveAll(dir) }
	}
	defer cleanup()

	if cfg.Prefill {
		p := workload.Prefiller{KeyRange: cfg.KeyRange, Seed: cfg.Seed}
		acc := prefillAcc()
		p.Fill(func(k int64) bool { return acc.Insert(k) })
	}
	c := cfg
	c.Prefill = false // done above, without timing it
	res := harness.Run(harness.TargetNM+"-durable-"+policy, inst, c)
	return res.Throughput()
}

// durableGrid is the -durable grid: a column per store variant, each
// policy's cost read against the in-memory column.
func durableGrid(s settings) grid {
	g := grid{
		title: [2]string{
			fmt.Sprintf("# bstbench: durability overhead on %s — %s × policies %v", harness.TargetNM, s.dims(), durablePolicies),
			fmt.Sprintf("# GOMAXPROCS=%d duration/cell=%v reps=%d reclaim=%v (acked⇒durable only under fsync)",
				runtime.GOMAXPROCS(0), s.cell.Duration, s.reps, s.cell.Reclaim),
		},
		suffix: ", durable",
		base:   "memory",
	}
	for _, policy := range durablePolicies {
		g.cols = append(g.cols, column{
			header: policy,
			label:  "nm[" + policy + "]",
			gain:   fmt.Sprintf("sync=%-8s vs in-memory", policy),
			run:    func(c harness.Config) cellJSON { return runDurableCell(policy, c, s) },
		})
	}
	return g
}
