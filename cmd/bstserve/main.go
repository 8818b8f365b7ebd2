// bstserve serves one lock-free BST over TCP (the internal/wire binary
// protocol) behind the full robustness stack of internal/server: bounded
// in-flight admission with explicit load shedding, per-request deadlines,
// fail-soft capacity errors, panic isolation, slow-loris defense, and
// graceful drain on SIGTERM/SIGINT — stop accepting, finish every request
// already received, fold per-connection accessor stats, close the
// reclamation domain, then exit 0.
//
// A side HTTP listener (-admin) serves /healthz, /readyz, /metrics
// (Prometheus) and /debug/vars, deliberately separate from the data port so
// probes and scrapes bypass admission control.
//
// With -data <dir> the store becomes durable: mutations are written to a
// group-commit WAL before they are acknowledged (-sync picks the policy),
// epoch-consistent snapshots bound recovery time (-checkpoint-every, plus
// POST /checkpoint on demand), startup replays snapshot + WAL tail, and the
// SIGTERM drain finishes with a final fsync + checkpoint.
//
// With -listen-repl the node serves the replication protocol to followers,
// and with -replica-of it runs as a follower of another bstserve: the
// leader streams committed WAL frames, the follower catches up (snapshot
// bulk-load plus WAL-tail replay) and then rides the live tail, refusing
// writes with a redirect to the leader while serving reads (including
// ReadAtLeast read-your-writes). POST /promote on the admin port flips a
// follower to leader during operator-driven failover. -repl-sync makes the
// leader semi-synchronous: a mutation is not acknowledged until a follower
// ack covers it. Replication requires -data.
//
// With -shards N the key space is partitioned across N independent trees
// (own arena, epoch domain, and — with -data — WAL lane and snapshot chain
// per shard), removing the shared allocation and group-commit bottlenecks
// under write-heavy load. Sharding is incompatible with replication, which
// streams a single dense WAL sequence.
//
// With -smoke the binary instead runs a deterministic in-process
// self-test — one shed response, one capacity response, one graceful
// drain, then a batch/pipelining stage that requires the pipelined client
// to beat request-per-round-trip throughput — and exits 0/1.
// `make serve-smoke` wires it into CI.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	bst "repro"
	"repro/internal/client"
	"repro/internal/durable"
	"repro/internal/failpoint"
	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/rtrace"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:9044", "data listener address")
		adminAddr    = flag.String("admin", "127.0.0.1:9045", "admin HTTP address (/healthz /readyz /metrics); empty disables")
		capacity     = flag.Int("capacity", 1<<20, "arena bound in nodes (0 = unbounded)")
		reclaim      = flag.Bool("reclaim", true, "enable epoch-based node reclamation")
		shards       = flag.Int("shards", 1, "partition the key space across this many independent trees (rounded up to a power of two; incompatible with replication)")
		orderStats   = flag.Bool("order-stats", false, "maintain the order-statistics index so clients can issue rank/select/count/sum aggregate queries (OpAggregate); without it those queries answer no-index")
		maxInFlight  = flag.Int("max-inflight", 256, "admission cap: concurrently executing requests before shedding")
		deadline     = flag.Duration("deadline", time.Second, "default per-request deadline for requests that carry none")
		readTimeout  = flag.Duration("read-timeout", 60*time.Second, "per-frame read deadline (idle + slow-loris bound)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain may wait for in-flight requests")
		smoke        = flag.Bool("smoke", false, "run the in-process serve smoke test and exit")

		dataDir      = flag.String("data", "", "durability directory (WAL + snapshots); empty = in-memory only")
		syncPolicy   = flag.String("sync", "fsync", "WAL sync policy with -data: fsync | interval | none")
		syncInterval = flag.Duration("sync-interval", 5*time.Millisecond, "background fsync cadence for -sync interval")
		ckptEvery    = flag.Int("checkpoint-every", 1_000_000, "auto-checkpoint after this many logged mutations (0 disables)")

		listenRepl = flag.String("listen-repl", "", "replication listener address (serves WAL streaming to followers); empty disables")
		replicaOf  = flag.String("replica-of", "", "run as a follower of this leader replication address (requires -data)")
		advertise  = flag.String("advertise", "", "data address advertised to the cluster for client redirects (default -addr)")
		replSync   = flag.Bool("repl-sync", false, "semi-synchronous: acknowledge mutations only after a follower ack covers them")

		peers        = flag.String("peers", "", "comma-separated replication addresses of the other cluster members (election probes and leader watch)")
		priority     = flag.Int("priority", 0, "election priority: higher wins; ties break on applied seq, then advertise address")
		autoFailover = flag.Bool("auto-failover", false, "self-promote when the leader's heartbeat lease expires (deterministic rank, no quorum — see DESIGN)")
		holdOff      = flag.Duration("holdoff", 0, "per-rank election hold-off step (default 2x heartbeat)")

		traceSample = flag.Int("trace-sample", 0, "flight recorder: self-sample every Nth request per connection (0 disables tracing)")
		slowOp      = flag.Duration("slow-op", 20*time.Millisecond, "slow-op log threshold for sampled requests (with -trace-sample)")
		debugAddr   = flag.String("debug-addr", "", "net/http/pprof listener (profiling); empty disables — exposes heap and execution internals, never bind publicly")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "bstserve: SMOKE FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("bstserve: smoke OK — shed, capacity, drain, batch and pipeline paths all exercised")
		return
	}

	opts := []bst.Option{}
	if *capacity > 0 {
		opts = append(opts, bst.WithCapacity(*capacity))
	}
	if *reclaim {
		opts = append(opts, bst.WithReclamation())
	}
	if *orderStats {
		opts = append(opts, bst.WithOrderStatistics())
	}
	if *shards > 1 {
		// Replication ships one dense WAL sequence; a sharded store has one
		// lane per shard, so the two are mutually exclusive (see DESIGN §14).
		if *listenRepl != "" || *replicaOf != "" {
			fmt.Fprintln(os.Stderr, "bstserve: -shards > 1 is incompatible with -listen-repl/-replica-of (replication streams a single WAL lane)")
			os.Exit(2)
		}
		opts = append(opts, bst.WithShards(*shards))
	}
	logger := logx.New(os.Stderr, *addr)
	// The storage layers keep printf-style hooks; bridge them here so the
	// whole process logs through one handler.
	logf := logx.Printf(logger)

	// The flight recorder is shared by every layer that records spans:
	// server (admission/tree/WAL/repl waits), replication (cross-node
	// linkage), and the admin endpoints that export it.
	var rec *rtrace.Recorder
	if *traceSample > 0 {
		rec = rtrace.New(rtrace.Options{SampleEvery: *traceSample, SlowOp: *slowOp})
	}

	cfg := server.Config{
		MaxInFlight:     *maxInFlight,
		DefaultDeadline: *deadline,
		ReadTimeout:     *readTimeout,
		Logger:          logger,
		Trace:           rec,
	}

	// With -data the server fronts a durable.Tree: every mutation is
	// WAL-logged before it is acknowledged, and startup replays snapshot +
	// log tail. Without it the tree is memory-only, exactly as before.
	var dur *durable.Tree
	var tree *bst.Tree
	reg := metrics.NewRegistry(0)
	if rec != nil {
		reg.AddHook(rec.MetricsHook)
	}
	cfg.Metrics = reg
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*syncPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bstserve:", err)
			os.Exit(2)
		}
		start := time.Now()
		dur, err = durable.Open(*dataDir, durable.Options{
			Sync:            policy,
			SyncInterval:    *syncInterval,
			CheckpointEvery: *ckptEvery,
			TreeOptions:     opts,
			Logf:            logf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bstserve: recovery failed:", err)
			os.Exit(2)
		}
		rs := dur.RecoveryStats()
		fmt.Printf("bstserve: recovered %s — %d snapshot keys + %d WAL ops replayed in %v (snapshot %q, %d corrupt skipped)\n",
			*dataDir, rs.SnapshotKeys, rs.ReplayedOps, time.Since(start).Round(time.Millisecond),
			rs.SnapshotPath, rs.CorruptSnapshots)
		reg.AddHook(dur.MetricsHook)
		cfg.Store = dur
		tree = dur.Underlying()
	} else {
		tree = bst.New(opts...)
		cfg.Store = tree
	}
	if *orderStats {
		reg.AddHook(func(s *metrics.Snapshot) { tree.ExportOrderStatsMetrics(s.External, s.Gauges) })
	}

	// Replication rides the durable store's WAL: a node with a replication
	// listener streams committed frames to followers; a node with
	// -replica-of pulls them and refuses direct writes.
	var node *repl.Node
	if *listenRepl != "" || *replicaOf != "" {
		if dur == nil {
			fmt.Fprintln(os.Stderr, "bstserve: replication requires -data (the WAL is the replication stream)")
			os.Exit(2)
		}
		adv := *advertise
		if adv == "" {
			adv = *addr
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *autoFailover && len(peerList) == 0 && *replicaOf != "" {
			fmt.Fprintln(os.Stderr, "bstserve: -auto-failover on a follower needs -peers (who to probe and rank against)")
			os.Exit(2)
		}
		var err error
		node, err = repl.Start(repl.Config{
			Store:        dur,
			Advertise:    adv,
			ListenRepl:   *listenRepl,
			ReplicaOf:    *replicaOf,
			RequireAck:   *replSync,
			Priority:     int32(*priority),
			Peers:        peerList,
			AutoFailover: *autoFailover,
			HoldOff:      *holdOff,
			Trace:        rec,
			Logger:       logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bstserve: replication:", err)
			os.Exit(2)
		}
		cfg.Metrics.AddHook(node.MetricsHook)
		cfg.Cluster = node
	}

	srv := server.New(cfg)
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "bstserve:", err)
		os.Exit(2)
	}
	durDesc := "off"
	if dur != nil {
		durDesc = fmt.Sprintf("%s sync=%s checkpoint-every=%d", *dataDir, *syncPolicy, *ckptEvery)
	}
	fmt.Printf("bstserve: serving on %s (capacity=%d reclaim=%v shards=%d max-inflight=%d durability=%s)\n",
		srv.Addr(), *capacity, *reclaim, *shards, *maxInFlight, durDesc)
	if node != nil {
		role := "follower of " + *replicaOf
		if node.IsLeader() {
			role = "leader"
		}
		fmt.Printf("bstserve: cluster role=%s term=%d repl-listen=%s semi-sync=%v auto-failover=%v priority=%d\n",
			role, node.Term(), node.ReplAddr(), *replSync, *autoFailover, *priority)
	}

	// -debug-addr mounts net/http/pprof on its own listener, separate from
	// both the data plane and the admin surface: profiles reveal memory
	// contents and execution structure, so this port must stay loopback or
	// firewalled — it exists for incident debugging, not for dashboards.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bstserve:", err)
			os.Exit(2)
		}
		go (&http.Server{Handler: dmux, ReadHeaderTimeout: 5 * time.Second}).Serve(dln)
		fmt.Printf("bstserve: pprof on http://%s/debug/pprof/ (keep private)\n", dln.Addr())
	}

	var adminSrv *http.Server
	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bstserve:", err)
			os.Exit(2)
		}
		adminSrv = &http.Server{Handler: srv.AdminHandler(), ReadHeaderTimeout: 5 * time.Second}
		go adminSrv.Serve(ln)
		adminDesc := "/healthz /readyz /metrics"
		if rec != nil {
			adminDesc += " /debug/rtrace"
		}
		fmt.Printf("bstserve: admin on http://%s (%s)\n", ln.Addr(), adminDesc)
	}

	// Graceful drain on SIGTERM/SIGINT: readiness flips first (the admin
	// listener stays up so load balancers observe the drain), then the data
	// plane flushes, then the reclamation domain closes.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "bstserve: %v — draining (up to %v)\n", sig, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	if adminSrv != nil {
		adminSrv.Close()
	}
	if node != nil {
		// Stop streaming/pulling before the final checkpoint: a follower
		// must not apply records into a store that is flushing to close.
		node.Close()
	}
	if dur != nil {
		// Final fsync + checkpoint: a clean shutdown leaves a data dir
		// that recovers with zero WAL replay.
		if cerr := dur.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "bstserve: durable close:", cerr)
			if err == nil {
				err = cerr
			}
		} else {
			fmt.Println("bstserve: final checkpoint written, WAL synced")
		}
	} else {
		tree.Close()
	}

	c := srv.Counters()
	fmt.Printf("bstserve: drained — %d requests served, %d shed, %d capacity errors, %d timeouts, %d panics, %d conns\n",
		c.Requests, c.Shed, c.CapacityErrs, c.Timeouts, c.Panics, c.ConnsAccepted)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bstserve: drain incomplete:", err)
		os.Exit(1)
	}
}

// runSmoke is the deterministic self-test behind `make serve-smoke`: a real
// server on a loopback port must (1) shed a request while its single
// in-flight slot is frozen, (2) push back with a capacity error when its
// 128-node arena fills and accept writes again after deletes, (3) drain
// gracefully with the frozen request completing and acknowledged, and
// (4) answer batch frames with correct per-op statuses and deliver at
// least 2× single-op throughput to a pipelined client on the same link.
func runSmoke() error {
	tree := bst.New(bst.WithCapacity(128), bst.WithReclamation())
	fp := failpoint.NewSet()
	srv := server.New(server.Config{Store: tree, MaxInFlight: 1, Failpoints: fp})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	addr := srv.Addr().String()

	retrying, err := client.Dial(client.Config{Addr: addr, Seed: 1})
	if err != nil {
		return err
	}
	defer retrying.Close()
	oneShot, err := client.Dial(client.Config{Addr: addr, MaxAttempts: 1, Seed: 2})
	if err != nil {
		return err
	}
	defer oneShot.Close()
	ctx := context.Background()

	// 1. Shed: freeze the only admission slot, observe StatusOverloaded,
	// then release and confirm the frozen op was acknowledged truthfully.
	st := fp.Site(server.FPHandle)
	st.StallNext()
	frozen := make(chan error, 1)
	go func() {
		_, err := retrying.Insert(ctx, -1)
		frozen <- err
	}()
	if !st.WaitStalled(5 * time.Second) {
		return errors.New("insert never reached the handler failpoint")
	}
	if _, err := oneShot.Insert(ctx, -2); !errors.Is(err, client.ErrOverloaded) {
		return fmt.Errorf("probe during overload: err = %v, want ErrOverloaded", err)
	}
	st.Release()
	if err := <-frozen; err != nil {
		return fmt.Errorf("frozen insert: %v", err)
	}
	if !tree.Contains(-1) {
		return errors.New("acknowledged insert missing after stall release")
	}
	fmt.Println("bstserve: smoke 1/4 — load shed observed, frozen request completed")

	// 2. Capacity: fill the arena over the wire, verify the distinct wire
	// status, free half, verify the retrying client converges.
	var kept []int64
	for k := int64(0); ; k++ {
		ok, err := oneShot.Insert(ctx, k)
		if err != nil {
			if !errors.Is(err, bst.ErrCapacity) {
				return fmt.Errorf("fill: err = %v, want ErrCapacity", err)
			}
			break
		}
		if !ok {
			return fmt.Errorf("fill: Insert(%d) = false on a fresh key", k)
		}
		kept = append(kept, k)
		if k > 1<<20 {
			return errors.New("128-node arena accepted 1M inserts; bound not enforced")
		}
	}
	for _, k := range kept[:len(kept)/2] {
		if ok, err := retrying.Delete(ctx, k); err != nil || !ok {
			return fmt.Errorf("free: Delete(%d) = (%v, %v)", k, ok, err)
		}
	}
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	ok, err := retrying.Insert(rctx, 1<<40)
	cancel()
	if err != nil || !ok {
		return fmt.Errorf("recovery insert = (%v, %v); client stats %+v", ok, err, retrying.Stats())
	}
	fmt.Println("bstserve: smoke 2/4 — capacity pushback on the wire, backoff converged after frees")

	// 3. Drain with one request in flight; it must complete and be acked.
	st.StallNext()
	frozen2 := make(chan error, 1)
	go func() {
		ok, err := retrying.Delete(ctx, 1<<40)
		if err == nil && !ok {
			err = errors.New("drain-straddling delete returned false on a present key")
		}
		frozen2 <- err
	}()
	if !st.WaitStalled(5 * time.Second) {
		return errors.New("delete never reached the handler failpoint")
	}
	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Shutdown(dctx)
	}()
	time.Sleep(50 * time.Millisecond) // let the drain interrupt idle readers
	st.Release()
	if err := <-drained; err != nil {
		return fmt.Errorf("drain: %v", err)
	}
	if err := <-frozen2; err != nil {
		return fmt.Errorf("in-flight request during drain: %v", err)
	}
	if tree.Contains(1 << 40) {
		return errors.New("acknowledged delete not applied")
	}
	if err := tree.Close(); err != nil {
		return err
	}
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("tree invalid after smoke: %v", err)
	}
	c := srv.Counters()
	if c.Shed == 0 || c.CapacityErrs == 0 || c.Drains != 1 || c.InFlight != 0 || c.OpenConns != 0 {
		return fmt.Errorf("smoke counters off: %+v", c)
	}
	fmt.Println("bstserve: smoke 3/4 — graceful drain completed in-flight work, domain closed")

	return smokeBatchPipeline()
}

// smokeBatchPipeline is smoke stage 4: a fresh server answers a mixed
// OpBatch frame with per-op statuses, then the same workload is driven
// twice — synchronous request-per-round-trip versus one pipelined
// connection — and the pipeline must win by at least 2× ops/sec.
func smokeBatchPipeline() error {
	tree := bst.New(bst.WithReclamation())
	srv := server.New(server.Config{Store: tree})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), Seed: 3})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx := context.Background()

	// One frame, mixed kinds, an out-of-range slot in the middle: each op
	// answers for itself.
	ops := []client.Op{
		client.InsertOp(1),
		client.InsertOp(2),
		client.InsertOp(bst.MaxKey + 1),
		client.LookupOp(1),
		client.DeleteOp(1),
		client.LookupOp(1),
	}
	res, err := cl.Do(ctx, ops)
	if err != nil {
		return fmt.Errorf("batch: %v", err)
	}
	wantOK := []bool{true, true, false, true, true, false}
	for i, r := range res {
		if i == 2 {
			if !errors.Is(r.Err, bst.ErrKeyOutOfRange) {
				return fmt.Errorf("batch op %d: err = %v, want ErrKeyOutOfRange", i, r.Err)
			}
			continue
		}
		if r.Err != nil || r.OK != wantOK[i] {
			return fmt.Errorf("batch op %d: = (%v, %v), want (%v, nil)", i, r.OK, r.Err, wantOK[i])
		}
	}

	// Throughput: N fresh-key inserts per phase, drawn from one shuffled
	// deterministic sequence — random insertion order keeps the external
	// tree near log depth, so both phases do identical work. (Ascending
	// keys would build an n-deep spine during the first phase and bill the
	// traversal cost to the second.)
	const n = 4000
	keys := make([]int64, 2*n)
	for i := range keys {
		keys[i] = int64(10_000 + i)
	}
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	start := time.Now()
	for i := 0; i < n; i++ {
		if ok, err := cl.Insert(ctx, keys[i]); err != nil || !ok {
			return fmt.Errorf("sync insert %d: (%v, %v)", i, ok, err)
		}
	}
	syncDur := time.Since(start)

	p, err := cl.NewPipeline(ctx)
	if err != nil {
		return err
	}
	futs := make([]*client.Future, n)
	start = time.Now()
	for i := range futs {
		if futs[i], err = p.Submit(ctx, client.InsertOp(keys[n+i])); err != nil {
			return fmt.Errorf("pipeline submit %d: %v", i, err)
		}
	}
	for i, f := range futs {
		if ok, err := f.Wait(ctx); err != nil || !ok {
			return fmt.Errorf("pipeline insert %d: (%v, %v)", i, ok, err)
		}
	}
	pipeDur := time.Since(start)
	p.Close()

	speedup := float64(syncDur) / float64(pipeDur)
	if speedup < 2 {
		return fmt.Errorf("pipelined throughput only %.2fx of round-trip (sync %v, pipelined %v for %d ops); want >= 2x",
			speedup, syncDur, pipeDur, n)
	}
	if got := tree.Len(); got != 1+n+n { // key 2 + both insert ranges
		return fmt.Errorf("tree Len = %d after throughput runs, want %d", got, 1+n+n)
	}
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("tree invalid after batch smoke: %v", err)
	}
	if c := srv.Counters(); c.BatchOps != uint64(len(ops)) {
		return fmt.Errorf("BatchOps = %d, want %d", c.BatchOps, len(ops))
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("batch-stage drain: %v", err)
	}
	tree.Close()
	fmt.Printf("bstserve: smoke 4/4 — batch per-op statuses OK, pipelined client %.1fx over round-trip\n", speedup)
	return nil
}
