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
// probes and scrapes bypass admission control. The tree is built with
// metrics on, and one scrape carries its contention series, op latency
// histograms and order-statistics counters beside the server's, the WAL's
// and replication's.
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
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	bst "repro"
	"repro/internal/durable"
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

	opts := []bst.Option{bst.WithMetrics(0)}
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
	// The tree keeps its own registry (its per-accessor shards, arena,
	// epoch and order-statistics series); fold it into the admin registry
	// so one scrape carries the tree beside the server and storage layers.
	reg.AddHook(func(s *metrics.Snapshot) { foldTreeMetrics(s, tree.Metrics()) })

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

	// Catch SIGTERM/SIGINT before the listeners are announced, so a signal
	// sent as soon as they are printed drains instead of killing.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

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

// foldTreeMetrics adds the tree's telemetry to a registry snapshot: the
// fixed tree counters into Counters, every other counter (arena, epoch,
// order statistics) into External, the gauges, and the per-op latency
// histograms.
func foldTreeMetrics(s *metrics.Snapshot, m bst.Metrics) {
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		s.Counters[c] += m.Counters[c.Name()]
		delete(m.Counters, c.Name())
	}
	for k, v := range m.Counters {
		s.External[k] += v
	}
	for k, v := range m.Gauges {
		s.Gauges[k] += v
	}
	for op := metrics.Op(0); op < metrics.NumOps; op++ {
		l := m.Latency[op.Name()]
		h := metrics.LatencySnapshot{Count: l.Count, SumNanos: l.SumNanos}
		copy(h.Buckets[:], l.Buckets)
		s.Latency[op].Add(h)
	}
}
