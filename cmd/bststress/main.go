// bststress is a correctness gate: it hammers every concurrent BST
// implementation with adversarial concurrent workloads and fails loudly on
// any violation of the sequential set semantics.
//
// Two checks run per round:
//
//  1. Counting invariant: per key, successful inserts minus successful
//     deletes must equal the key's final presence (0 or 1).
//  2. Linearizability: a recorded timestamped history over a small hot key
//     set must admit a valid linearization (Wing & Gong check against the
//     dictionary specification) — the paper's Section 3.3 claim.
//
// With -exhaust a third check runs against the arena-backed tree only:
// workers drive a deliberately tiny arena (-capacity) past ErrCapacity and
// the round verifies graceful degradation — no panics, reads and deletes
// keep working at the bound, and inserts succeed again once reclamation
// recycles freed nodes.
//
// With -crash the durability gate runs (see crash.go): a re-exec'd durable
// fsync server is SIGKILLed mid-load, the data dir is recovered in-process,
// and every wire-acknowledged mutation must have survived — plus a timed
// 1M-key snapshot + 100k-op WAL tail recovery under a hard budget.
//
// With -failover the replication gate runs (see failover.go): a
// semi-synchronous leader seeded at 1M-key + 100k-tail scale replicates to
// a follower, is SIGKILLed mid-load, and the promoted follower must serve
// writes within the recovery budget while an over-the-wire audit shows
// 100% of acked mutations present and zero ghost keys.
//
// Exit status is non-zero if any round fails. Intended for CI and soak
// runs (-duration 10m).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	bst "repro"
	"repro/internal/check"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// curRegistry holds the telemetry registry of the round currently running,
// so the -metrics endpoint always serves live numbers while registries
// rotate per round.
var curRegistry atomic.Pointer[metrics.Registry]

func main() {
	var (
		duration    = flag.Duration("duration", 10*time.Second, "total stress budget")
		workers     = flag.Int("workers", 8, "concurrent workers per round")
		keySpace    = flag.Int64("keyspace", 64, "hot key range (small = high contention)")
		targetsFlag = flag.String("targets", "nm,nm-boxed,efrb,hj,bcco,cgl,kst4,kst16", "implementations to stress")
		capacity    = flag.Int("capacity", 512, "arena bound (nodes) for the -exhaust round")
		exhaust     = flag.Bool("exhaust", false, "also stress capacity exhaustion and recovery on the arena-backed tree")
		serve       = flag.Bool("serve", false, "also soak the network serving layer: in-process bstserve + retrying clients, counting invariant verified over the wire")
		batch       = flag.Bool("batch", false, "also check linearizability of batched operations racing single ops (targets with batch entry points)")
		metricsAddr = flag.String("metrics", "", "serve live telemetry on this address (/metrics Prometheus, /debug/vars JSON) while stressing")
		traceFile   = flag.String("trace", "", "write a runtime/trace capture (rounds appear as tasks with per-check regions)")
		aggregate   = flag.Bool("aggregate", false, "also check Exact-mode order-statistics linearizability: rank/count bracket checker racing concurrent inserts and deletes on indexed single and sharded trees")
		crash       = flag.Bool("crash", false, "also run the durability gate: kill -9 a durable fsync server mid-load, recover, audit every acked mutation, and clock a 1M-key recovery")
		crashShards = flag.Int("crash-shards", 1, "shard count for the -crash round's durable store (>1 = per-shard WAL lanes, parallel lane replay on recovery)")

		failover = flag.Bool("failover", false, "also run the failover gate: seed a 1M-key leader, replicate to a follower, kill -9 the leader mid-load, promote, and audit every acked mutation on the new leader")

		chaos     = flag.Bool("chaos", false, "also run the chaos gate: a 3-node auto-failover cluster behind a fault-injecting proxy mesh — scripted partitions fence the old leader, kill -9 takes the successor — auditing every acked mutation and exactly one leader per term")
		chaosSeed = flag.Uint64("chaos-seed", 1, "deterministic seed for the -chaos fault schedule")

		crashChild    = flag.Bool("crash-child", false, "internal: run as the -crash round's durable server child")
		crashData     = flag.String("crash-data", "", "internal: data dir for -crash-child")
		crashAddrFile = flag.String("crash-addr-file", "", "internal: where -crash-child writes its data address")
		crashRangeHi  = flag.Int64("crash-range-hi", 0, "internal: sharded key-range upper bound for -crash-child")

		foChild     = flag.Bool("failover-child", false, "internal: run as a -failover/-chaos round cluster node child")
		foData      = flag.String("fo-data", "", "internal: data dir for -failover-child")
		foAddrFile  = flag.String("fo-addr-file", "", "internal: where -failover-child writes its addresses")
		foReplicaOf = flag.String("fo-replica-of", "", "internal: leader repl address for a follower -failover-child")
		foPeers     = flag.String("fo-peers", "", "internal: comma-separated peer repl addrs for -failover-child elections")
		foPriority  = flag.Int("fo-priority", 0, "internal: election priority for -failover-child")
		foAuto      = flag.Bool("fo-auto", false, "internal: enable automatic elections in -failover-child")
	)
	flag.Parse()
	if *crashChild {
		os.Exit(runCrashChild(*crashData, *crashAddrFile, *crashShards, *crashRangeHi))
	}
	if *foChild {
		os.Exit(runFailoverChild(*foData, *foAddrFile, childOpts{
			replicaOf: *foReplicaOf, peers: *foPeers, priority: *foPriority, auto: *foAuto,
		}))
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bststress:", err)
			os.Exit(2)
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "bststress:", err)
			os.Exit(2)
		}
		defer func() { rtrace.Stop(); f.Close() }()
	}
	if *metricsAddr != "" {
		h := metrics.Handler(func() []metrics.Source {
			return []metrics.Source{{Name: "nm", Registry: curRegistry.Load()}}
		})
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bststress:", err)
			os.Exit(2)
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		go srv.Serve(ln)
		fmt.Printf("metrics endpoint: http://%s/metrics\n", ln.Addr())
	}
	if *exhaust && *capacity < 16 {
		// Below ~8 slots the tree cannot even allocate its sentinels.
		fmt.Fprintln(os.Stderr, "bststress: -capacity must be at least 16 for -exhaust")
		os.Exit(2)
	}

	var targets []harness.Target
	for _, name := range strings.Split(*targetsFlag, ",") {
		t, err := harness.TargetByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bststress:", err)
			os.Exit(2)
		}
		targets = append(targets, t)
	}

	// SIGINT/SIGTERM request a graceful stop: the current round runs to
	// completion (its invariant checks still count), then the final report
	// prints and the exit status reflects failures so far. A second signal
	// kills the process via the default handler.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	interrupted := func() (os.Signal, bool) {
		select {
		case sig := <-sigc:
			signal.Stop(sigc)
			return sig, true
		default:
			return nil, false
		}
	}

	deadline := time.Now().Add(*duration)
	round := 0
	failures := 0
	for time.Now().Before(deadline) {
		if sig, stop := interrupted(); stop {
			fmt.Printf("bststress: %v — finishing after %d complete round(s)\n", sig, round)
			break
		}
		round++
		// Fresh telemetry registry per round (served live via -metrics);
		// only the arena-backed nm tree consumes it.
		reg := metrics.NewRegistry(0)
		curRegistry.Store(reg)
		// Each round is a runtime/trace task; each check on each target is
		// a region labelled for pprof, so per-check, per-algorithm costs
		// show up in standard Go tooling when -trace or profiling is on.
		ctx, task := rtrace.NewTask(context.Background(), fmt.Sprintf("stress-round-%d", round))
		for _, target := range targets {
			runCheck(ctx, "counting", target.Name, func() {
				if err := countingRound(target, *workers, *keySpace, uint64(round), reg); err != nil {
					failures++
					fmt.Printf("FAIL [counting] %s round %d: %v\n", target.Name, round, err)
				}
			})
			runCheck(ctx, "linearizability", target.Name, func() {
				if err := linearizabilityRound(target, *workers, uint64(round), reg); err != nil {
					failures++
					fmt.Printf("FAIL [linearizability] %s round %d: %v\n", target.Name, round, err)
				}
			})
			if *batch {
				runCheck(ctx, "batch-linearizability", target.Name, func() {
					if err := batchLinearizabilityRound(target, *workers, uint64(round), reg); err != nil {
						failures++
						fmt.Printf("FAIL [batch-linearizability] %s round %d: %v\n", target.Name, round, err)
					}
				})
			}
		}
		if *exhaust {
			runCheck(ctx, "exhaust", "nm", func() {
				if err := exhaustRound(*capacity, *workers, *keySpace, uint64(round), reg); err != nil {
					failures++
					fmt.Printf("FAIL [exhaust] nm round %d: %v\n", round, err)
				}
			})
		}
		if *serve {
			runCheck(ctx, "serve", "nm", func() {
				if err := serveRound(*workers, *keySpace, uint64(round)); err != nil {
					failures++
					fmt.Printf("FAIL [serve] nm round %d: %v\n", round, err)
				}
			})
		}
		if *aggregate {
			runCheck(ctx, "aggregate", "nm", func() {
				if err := aggregateRound(*workers, uint64(round)); err != nil {
					failures++
					fmt.Printf("FAIL [aggregate] nm round %d: %v\n", round, err)
				}
			})
		}
		if *crash {
			runCheck(ctx, "crash", "nm", func() {
				if err := crashRound(*workers, *crashShards, uint64(round)); err != nil {
					failures++
					fmt.Printf("FAIL [crash] nm round %d: %v\n", round, err)
				}
			})
		}
		if *failover {
			runCheck(ctx, "failover", "nm", func() {
				if err := failoverRound(*workers, uint64(round)); err != nil {
					failures++
					fmt.Printf("FAIL [failover] nm round %d: %v\n", round, err)
				}
			})
		}
		if *chaos {
			runCheck(ctx, "chaos", "nm", func() {
				if err := chaosRound(*workers, *chaosSeed+uint64(round)-1); err != nil {
					failures++
					fmt.Printf("FAIL [chaos] nm round %d: %v\n", round, err)
				}
			})
		}
		task.End()
		fmt.Printf("round %d complete (%d targets, %d failures so far)\n", round, len(targets), failures)
	}
	if failures > 0 {
		fmt.Printf("bststress: %d failure(s) over %d rounds\n", failures, round)
		os.Exit(1)
	}
	fmt.Printf("bststress: OK — %d rounds × %d targets, no violations\n", round, len(targets))
}

// runCheck runs one correctness check under pprof labels and a trace
// region, so profiles and traces attribute costs to (check, target).
func runCheck(ctx context.Context, check, target string, fn func()) {
	labels := pprof.Labels("bst_check", check, "bst_target", target)
	pprof.Do(ctx, labels, func(ctx context.Context) {
		rtrace.WithRegion(ctx, check+":"+target, fn)
	})
}

func countingRound(target harness.Target, workers int, keySpace int64, seed uint64, reg *metrics.Registry) error {
	inst := target.New(harness.Config{ArenaCapacity: 1 << 22, Metrics: reg})
	ins := make([]atomic.Int64, keySpace)
	del := make([]atomic.Int64, keySpace)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := inst.NewAccessor()
			rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(w)))
			for i := 0; i < 30000; i++ {
				k := rng.Int63n(keySpace)
				u := keys.Map(k)
				switch rng.Intn(3) {
				case 0:
					if acc.Insert(u) {
						ins[k].Add(1)
					}
				case 1:
					if acc.Delete(u) {
						del[k].Add(1)
					}
				default:
					acc.Search(u)
				}
			}
		}(w)
	}
	wg.Wait()
	acc := inst.NewAccessor()
	for k := int64(0); k < keySpace; k++ {
		diff := ins[k].Load() - del[k].Load()
		present := acc.Search(keys.Map(k))
		if !(diff == 0 && !present || diff == 1 && present) {
			return fmt.Errorf("key %d: %d successful inserts, %d successful deletes, present=%v",
				k, ins[k].Load(), del[k].Load(), present)
		}
	}
	return nil
}

// exhaustRound drives a reclaiming arena-backed tree to its capacity bound
// from every worker at once, then verifies graceful degradation: ErrCapacity
// (never a panic) at the bound, reads and deletes still serving, structural
// validity throughout, and inserts succeeding again after frees.
func exhaustRound(capacity, workers int, keySpace int64, seed uint64, reg *metrics.Registry) error {
	tr := core.New(core.Config{Capacity: capacity, Reclaim: true, Metrics: reg})
	_ = keySpace // exhaust uses disjoint per-worker ranges; contention comes from the shared arena

	type result struct {
		inserted  []int64 // keys this worker holds live
		sawCap    bool
		recovered int
		err       error
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			h := tr.NewHandle()
			defer h.Close()
			base := int64(seed)*1_000_000_000 + int64(w)*10_000_000

			// Phase 1: insert fresh keys until the arena pushes back.
			for k := base; ; k++ {
				ok, err := h.TryInsert(keys.Map(k))
				if err != nil {
					if !errors.Is(err, core.ErrCapacity) {
						r.err = fmt.Errorf("TryInsert: %v, want ErrCapacity", err)
						return
					}
					r.sawCap = true
					break
				}
				if !ok {
					r.err = fmt.Errorf("TryInsert(%d) = false on a fresh key", k)
					return
				}
				r.inserted = append(r.inserted, k)
				if len(r.inserted) > capacity {
					r.err = fmt.Errorf("worker alone inserted %d keys into a %d-node arena", len(r.inserted), capacity)
					return
				}
			}

			// Phase 2: a full tree still serves reads and deletes.
			for _, k := range r.inserted {
				if !h.Search(keys.Map(k)) {
					r.err = fmt.Errorf("key %d lost at the capacity bound", k)
					return
				}
			}
			half := r.inserted[:len(r.inserted)/2]
			for _, k := range half {
				if !h.Delete(keys.Map(k)) {
					r.err = fmt.Errorf("Delete(%d) failed at the capacity bound", k)
					return
				}
			}
			r.inserted = r.inserted[len(half):]

			// Phase 3: recovery — freed nodes recycle (the TryInsert retry
			// path forces epoch flushes) and inserts succeed again.
			for k := base + 5_000_000; k < base+5_000_000+int64(len(half)); k++ {
				ok, err := h.TryInsert(keys.Map(k))
				if err != nil {
					break // peers may still hold the recycled slots; not a failure by itself
				}
				if !ok {
					r.err = fmt.Errorf("recovery TryInsert(%d) = false on a fresh key", k)
					return
				}
				r.inserted = append(r.inserted, k)
				r.recovered++
			}
		}(w)
	}
	wg.Wait()

	recovered := 0
	for w := range results {
		r := &results[w]
		if r.err != nil {
			return fmt.Errorf("worker %d: %v", w, r.err)
		}
		if !r.sawCap {
			return fmt.Errorf("worker %d never hit ErrCapacity; bound not enforced", w)
		}
		recovered += r.recovered
	}
	if recovered == 0 {
		return errors.New("no worker recovered any insert after frees; reclamation recycled nothing")
	}

	// Final audit: every live key present, structure valid, health sane.
	h := tr.NewHandle()
	defer h.Close()
	for w := range results {
		for _, k := range results[w].inserted {
			if !h.Search(keys.Map(k)) {
				return fmt.Errorf("live key %d missing in final audit", k)
			}
		}
	}
	if err := tr.Audit(); err != nil {
		return fmt.Errorf("tree invalid after exhaust/recover cycle: %v", err)
	}
	hl := tr.Health()
	if hl.Recycled == 0 {
		return fmt.Errorf("health reports no recycling after recovery: %+v", hl)
	}
	return nil
}

// serveRound soaks the network serving layer: an in-process bstserve with a
// deliberately low in-flight cap (so shedding really happens) fronting the
// arena-backed tree, hammered by one retrying client per worker. The
// counting invariant is verified purely through acknowledgements that
// crossed the wire, then the server drains gracefully — any dropped-but-
// acknowledged operation, stuck drain, or structural damage fails the round.
func serveRound(workers int, keySpace int64, seed uint64) error {
	tree := bst.New(bst.WithCapacity(1<<20), bst.WithReclamation())
	srv := server.New(server.Config{Store: tree, MaxInFlight: max(2, workers/2)})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	addr := srv.Addr().String()

	ins := make([]atomic.Int64, keySpace)
	del := make([]atomic.Int64, keySpace)
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(client.Config{Addr: addr, Conns: 1, Seed: int64(seed)*1000 + int64(w)})
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(w)))
			for i := 0; i < 2000; i++ {
				k := rng.Int63n(keySpace)
				var ok bool
				var err error
				switch rng.Intn(3) {
				case 0:
					if ok, err = cl.Insert(ctx, k); ok {
						ins[k].Add(1)
					}
				case 1:
					if ok, err = cl.Delete(ctx, k); ok {
						del[k].Add(1)
					}
				default:
					_, err = cl.Lookup(ctx, k)
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("worker %d op %d: %w", w, i, err))
					return
				}
			}
		}(w)
	}
	wg.Wait()

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return err
	}
	for k := int64(0); k < keySpace; k++ {
		diff := ins[k].Load() - del[k].Load()
		present := tree.Contains(k)
		if !(diff == 0 && !present || diff == 1 && present) {
			return fmt.Errorf("key %d: %d acked inserts, %d acked deletes over the wire, present=%v",
				k, ins[k].Load(), del[k].Load(), present)
		}
	}
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("tree invalid after serve soak: %v", err)
	}
	if c := srv.Counters(); c.InFlight != 0 || c.OpenConns != 0 {
		return fmt.Errorf("post-drain counters: %+v", c)
	}
	return tree.Close()
}

// batchLinearizabilityRound races batched operations against single ops on
// a hot key set and checks the merged history. Each batched call records
// all its operations with the shared invocation/response window — the
// batch is per-op linearizable, not atomic, so every operation's
// linearization point may fall anywhere inside the call and the checker
// must find a consistent placement against the concurrently recorded
// singles. Targets without batch entry points are skipped.
func batchLinearizabilityRound(target harness.Target, workers int, seed uint64, reg *metrics.Registry) error {
	const (
		keySpace  = 128
		batchSize = 16
		rounds    = 8
		singles   = 8 // single ops interleaved per round, racing peers' batches
	)
	inst := target.New(harness.Config{ArenaCapacity: 1 << 20, Metrics: reg})
	if _, ok := inst.NewAccessor().(harness.BatchAccessor); !ok {
		return nil
	}
	rec := trace.NewRecorder(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ba := inst.NewAccessor().(harness.BatchAccessor)
			tape := rec.Worker(w)
			gen := workload.NewGenerator(workload.Mix{Name: "hot", Search: 20, Insert: 40, Delete_: 40},
				keySpace, seed*61+uint64(w)+1)
			var (
				ks   = make([]int64, batchSize)
				us   = make([]uint64, batchSize)
				out  = make([]bool, batchSize)
				errs = make([]error, batchSize)
				ops  = make([]workload.OpKind, batchSize)
			)
			fill := func(kind workload.OpKind) {
				for i := 0; i < batchSize; i++ {
					_, k := gen.Next() // keys only; the kind is the batch's
					ks[i], us[i], ops[i] = k, keys.Map(k), kind
				}
			}
			for r := 0; r < rounds; r++ {
				fill(workload.OpInsert)
				tape.RecordGroup(ops, ks, out, func() { ba.InsertBatch(us, out, errs) })
				fill(workload.OpDelete)
				tape.RecordGroup(ops, ks, out, func() { ba.DeleteBatch(us, out) })
				fill(workload.OpSearch)
				tape.RecordGroup(ops, ks, out, func() { ba.LookupBatch(us, out) })
				for i := 0; i < singles; i++ {
					op, k := gen.Next()
					u := keys.Map(k)
					switch op {
					case workload.OpSearch:
						tape.Record(op, k, func() bool { return ba.Search(u) })
					case workload.OpInsert:
						tape.Record(op, k, func() bool { return ba.Insert(u) })
					default:
						tape.Record(op, k, func() bool { return ba.Delete(u) })
					}
				}
			}
		}(w)
	}
	wg.Wait()
	events := rec.Events()
	if err := check.Linearizable(events, nil); err != nil {
		return fmt.Errorf("%v (%s)", err, check.Stats(events))
	}
	return nil
}

func linearizabilityRound(target harness.Target, workers int, seed uint64, reg *metrics.Registry) error {
	const (
		opsEach  = 400
		keySpace = 96
	)
	inst := target.New(harness.Config{ArenaCapacity: 1 << 20, Metrics: reg})
	rec := trace.NewRecorder(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := inst.NewAccessor()
			tape := rec.Worker(w)
			gen := workload.NewGenerator(workload.Mix{Name: "hot", Search: 20, Insert: 40, Delete_: 40},
				keySpace, seed*31+uint64(w)+1)
			for i := 0; i < opsEach; i++ {
				op, k := gen.Next()
				u := keys.Map(k)
				switch op {
				case workload.OpSearch:
					tape.Record(op, k, func() bool { return acc.Search(u) })
				case workload.OpInsert:
					tape.Record(op, k, func() bool { return acc.Insert(u) })
				default:
					tape.Record(op, k, func() bool { return acc.Delete(u) })
				}
			}
		}(w)
	}
	wg.Wait()
	events := rec.Events()
	if err := check.Linearizable(events, nil); err != nil {
		return fmt.Errorf("%v (%s)", err, check.Stats(events))
	}
	return nil
}
