package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/durable"
	"repro/internal/logx"
	"repro/internal/repl"
	"repro/internal/rtrace"
	"repro/internal/server"
	"repro/internal/wal"
)

// The -failover round is the replication gate, the cluster-scale sibling
// of -crash. It runs one full operator-driven failover at real scale:
//
//  1. The parent seeds a leader data directory with a 1M-key snapshot
//     plus a 100k-op WAL tail (the -crash phase-B shape), then re-execs
//     two children: a semi-synchronous leader that recovers that store,
//     and an empty follower that catches up over the replication stream —
//     snapshot bulk-load plus tail replay plus live tail, end to end.
//  2. Workers hammer the leader over the wire (one connection, one
//     attempt, disjoint key ranges) recording exactly which mutations
//     were acknowledged. Semi-sync means every ack implies the follower
//     applied the record — that is what makes the audit below exact.
//  3. Mid-load the leader is SIGKILLed. The parent promotes the follower
//     via POST /promote and clocks kill → first acknowledged write on the
//     new leader; the budget is recoveryBudget (shared with -crash).
//  4. The audit runs against the promoted node over the wire: 100% of
//     acked inserts present (unless acked-deleted), 100% of acked deletes
//     stuck, in-flight ops either way, and a full paginated Range scan
//     must show zero ghost keys — nothing beyond the seeded keyspace, the
//     acked ledger, the in-flight set, and the probe key.

// childOpts is the cluster shape of one re-exec'd node: who it follows,
// which peers it may probe for elections, and its election priority. The
// -failover round uses the zero value plus replicaOf (operator-driven
// promotion only); the -chaos round turns auto on everywhere.
type childOpts struct {
	replicaOf string // leader repl address ("" = start as leader)
	peers     string // comma-separated peer repl addrs (election probes)
	priority  int    // election priority (higher outranks)
	auto      bool   // stand for election when the heartbeat lease expires
}

// failoverChild runs one cluster node: durable store, replication node,
// data server, admin HTTP (for /promote and /healthz). It publishes
// "data repl admin" addresses to addrFile and parks until killed.
func runFailoverChild(dir, addrFile string, o childOpts) int {
	logger := logx.New(os.Stderr, "failover-child")
	logf := logx.Printf(logger)
	// Every child runs a sampled flight recorder so the parent can read
	// /debug/rtrace off the promoted node when the audit goes wrong: which
	// phase ate the time is the first question a failover regression asks.
	rec := rtrace.New(rtrace.Options{SampleEvery: 64, SlowOp: 50 * time.Millisecond})
	dur, err := durable.Open(dir, durable.Options{Sync: wal.SyncFsync, Logf: logf})
	if err != nil {
		logf("open: %v", err)
		return 1
	}
	// The repl node must advertise the data address before the server
	// binds it, so reserve a concrete port first.
	dataAddr, err := reserveAddr()
	if err != nil {
		logf("reserve: %v", err)
		return 1
	}
	var peers []string
	for _, p := range strings.Split(o.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	node, err := repl.Start(repl.Config{
		Store:       dur,
		Advertise:   dataAddr,
		ListenRepl:  "127.0.0.1:0",
		ReplicaOf:   o.replicaOf,
		Heartbeat:   50 * time.Millisecond,
		AckEvery:    1,
		AckInterval: 2 * time.Millisecond,
		// The seeded leader is semi-synchronous; with elections on, every
		// node is a potential leader and must carry the same guarantee.
		RequireAck:   o.replicaOf == "" || o.auto,
		AckTimeout:   10 * time.Second,
		Priority:     int32(o.priority),
		Peers:        peers,
		AutoFailover: o.auto,
		// A wide hold-off keeps lower-ranked candidates from racing the
		// winner to the same term under CI scheduling jitter.
		HoldOff: 400 * time.Millisecond,
		Trace:   rec,
		Logger:  logger,
	})
	if err != nil {
		logf("repl: %v", err)
		return 1
	}
	srv := server.New(server.Config{Store: dur, Cluster: node, MaxInFlight: 64, RangeLimit: 4096, Trace: rec, Logger: logger})
	if err := srv.Start(dataAddr); err != nil {
		logf("serve: %v", err)
		return 1
	}
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logf("admin: %v", err)
		return 1
	}
	go http.Serve(adminLn, srv.AdminHandler())
	addrs := fmt.Sprintf("%s %s %s", dataAddr, node.ReplAddr(), adminLn.Addr().String())
	if err := os.WriteFile(addrFile, []byte(addrs), 0o644); err != nil {
		logf("publish: %v", err)
		return 1
	}
	select {}
}

// dumpSlowOps prints the promoted node's /debug/rtrace slow-op log to
// stderr — best effort, for audit-failure forensics only.
func dumpSlowOps(adminAddr string) {
	resp, err := http.Get("http://" + adminAddr + "/debug/rtrace")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var body struct {
		Slow []json.RawMessage `json:"slow"`
	}
	if json.NewDecoder(resp.Body).Decode(&body) != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "failover: %d slow op(s) retained on the promoted node:\n", len(body.Slow))
	for _, so := range body.Slow {
		fmt.Fprintf(os.Stderr, "  %s\n", so)
	}
}

func reserveAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// childAddrs is what a failover child publishes.
type childAddrs struct {
	data, repl, admin string
}

// spawnFailoverChild re-execs this binary as one cluster node and waits
// for its published addresses. The returned kill func is idempotent.
func spawnFailoverChild(dir string, o childOpts) (childAddrs, func(), error) {
	var ca childAddrs
	addrDir, err := os.MkdirTemp("", "bst-failover-addr-")
	if err != nil {
		return ca, nil, err
	}
	addrFile := filepath.Join(addrDir, "addr")
	exe, err := os.Executable()
	if err != nil {
		os.RemoveAll(addrDir)
		return ca, nil, err
	}
	args := []string{"-failover-child", "-fo-data", dir, "-fo-addr-file", addrFile, "-fo-replica-of", o.replicaOf}
	if o.peers != "" {
		args = append(args, "-fo-peers", o.peers)
	}
	if o.priority != 0 {
		args = append(args, "-fo-priority", strconv.Itoa(o.priority))
	}
	if o.auto {
		args = append(args, "-fo-auto")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(addrDir)
		return ca, nil, fmt.Errorf("spawn child: %w", err)
	}
	var once sync.Once
	kill := func() {
		once.Do(func() {
			cmd.Process.Kill() // SIGKILL: no drain, no heads-up to peers
			cmd.Wait()
			os.RemoveAll(addrDir)
		})
	}
	// A leader child first recovers the 1.1M-op seed store; give it time.
	for waitUntil := time.Now().Add(60 * time.Second); ; {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			f := strings.Fields(string(b))
			if len(f) == 3 {
				ca.data, ca.repl, ca.admin = f[0], f[1], f[2]
				return ca, kill, nil
			}
		}
		if time.Now().After(waitUntil) {
			kill()
			return ca, nil, errors.New("child never published its addresses")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// clusterHealth is the slice of the admin /healthz body the rounds read.
type clusterHealth struct {
	Cluster struct {
		Role          string `json:"role"`
		Term          uint64 `json:"term"`
		AppliedSeq    uint64 `json:"applied_seq"`
		AckedSeq      uint64 `json:"acked_seq"`
		Followers     int    `json:"followers"`
		ElectionState string `json:"election_state"`
		Fenced        bool   `json:"fenced"`
	} `json:"cluster"`
}

func fetchHealth(adminAddr string) (clusterHealth, error) {
	var h clusterHealth
	resp, err := http.Get("http://" + adminAddr + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// waitHealth polls adminAddr until cond is satisfied or the budget runs
// out. The last health (and fetch error) ride along in the failure.
func waitHealth(adminAddr, what string, budget time.Duration, cond func(clusterHealth) bool) (clusterHealth, error) {
	deadline := time.Now().Add(budget)
	for {
		h, err := fetchHealth(adminAddr)
		if err == nil && cond(h) {
			return h, nil
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("%s: not reached within %v (last health %+v, err %v)", what, budget, h.Cluster, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// firstWrite retries an insert of key through cl until a node
// acknowledges it, and returns how long after since that was. It fails
// once recoveryBudget has passed since since; who names the node and after
// the event since marks.
func firstWrite(cl *client.Client, key int64, since time.Time, who, after string) (time.Duration, error) {
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		ok, err := cl.Insert(ctx, key)
		cancel()
		if err == nil && ok {
			return time.Since(since), nil
		}
		if time.Since(since) > recoveryBudget {
			return 0, fmt.Errorf("%s not serving writes %v after %s (budget %v; last err %v)",
				who, time.Since(since).Round(time.Millisecond), after, recoveryBudget, err)
		}
	}
}

const probeKey = int64(1) << 60 // first write on the promoted node

func failoverRound(workers int, seed uint64) (err error) {
	leaderDir, err := os.MkdirTemp("", "bst-failover-leader-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(leaderDir)
	followerDir, err := os.MkdirTemp("", "bst-failover-follower-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(followerDir)

	if err := seedStore(leaderDir, seed, snapKeys, tailOps); err != nil {
		return fmt.Errorf("seeding leader store: %w", err)
	}

	leader, killLeader, err := spawnFailoverChild(leaderDir, childOpts{})
	if err != nil {
		return err
	}
	defer killLeader()
	follower, killFollower, err := spawnFailoverChild(followerDir, childOpts{replicaOf: leader.repl})
	if err != nil {
		return err
	}
	defer killFollower()

	// Gate the load on the follower having fully caught up (snapshot
	// bulk-load + 1.1M-op horizon): the leader is semi-sync, so writes
	// before a follower connects would only time out.
	catchup := time.Now()
	if _, err := waitHealth(leader.admin, "follower catch-up", 120*time.Second, func(h clusterHealth) bool {
		return h.Cluster.Followers >= 1 && h.Cluster.AckedSeq >= h.Cluster.AppliedSeq && h.Cluster.AppliedSeq > 0
	}); err != nil {
		return err
	}
	fmt.Printf("failover: follower caught up %d-key + %d-op seed in %v\n",
		snapKeys, tailOps, time.Since(catchup).Round(time.Millisecond))

	// Load phase: the -crash ledger discipline, so the post-failover audit
	// is exact.
	load := make(chan []crashWorker, 1)
	go func() { load <- ledgerLoad(leader.data, workers, seed, disjointBase, nil) }()
	time.Sleep(time.Second)
	killStart := time.Now()
	killLeader() // SIGKILL mid-load: the cluster's data plane is down
	results := <-load
	totalAcked, inflight, err := tally(results, "pre-kill load")
	if err != nil {
		return err
	}

	// Operator-driven failover: promote the follower, then clock until the
	// promoted node acknowledges a write.
	promoted := false
	for time.Since(killStart) < recoveryBudget {
		resp, err := http.Post("http://"+follower.admin+"/promote", "", nil)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				promoted = true
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !promoted {
		return fmt.Errorf("POST /promote never succeeded within %v", recoveryBudget)
	}
	cl, err := client.Dial(client.Config{Addr: follower.data, Seed: int64(seed)})
	if err != nil {
		return err
	}
	defer cl.Close()
	// From here every failure is an audit failure against the promoted
	// node: dump its slow-op log so the report names the guilty phase.
	defer func() {
		if err != nil {
			dumpSlowOps(follower.admin)
		}
	}()
	served, err := firstWrite(cl, probeKey, killStart, "promoted node", "the kill")
	if err != nil {
		return err
	}

	// Audit over the wire against the promoted node. Semi-sync made every
	// client ack imply follower application, so this is exact, not
	// probabilistic: acked state must be 100% present, no ghosts.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	seen, err := auditOverWire(ctx, cl, [][]crashWorker{results}, snapKeys+tailOps, probeKey)
	if err != nil {
		return err
	}
	fmt.Printf("failover: promoted follower serving %v after kill -9 (budget %v) — %d acked ops (%d in flight) "+
		"audited 100%% present, 0 ghosts across %d keys\n",
		served.Round(time.Millisecond), recoveryBudget, totalAcked, inflight, seen)
	return nil
}

// auditOverWire checks the ledgers of one or more load phases against a
// live node through cl: every acked insert not later acked-deleted is
// present, every acked delete stuck, and every extra key (a probe the
// round wrote and had acknowledged) is present. A full Range scan must
// then find no ghost: nothing outside the seeded keys [0, seeded), the
// ledgers, the in-flight sets and extra. It returns the keys scanned.
func auditOverWire(ctx context.Context, cl *client.Client, phases [][]crashWorker, seeded int, extra ...int64) (int, error) {
	mustPresent := map[int64]bool{}
	mayEither := map[int64]bool{}
	for _, results := range phases {
		for w := range results {
			r := &results[w]
			for _, k := range r.ackedIns {
				mustPresent[k] = true
			}
			for _, k := range r.ackedDel {
				delete(mustPresent, k)
				if ok, err := cl.Lookup(ctx, k); err != nil {
					return 0, fmt.Errorf("audit Lookup(%d): %w", k, err)
				} else if ok {
					return 0, fmt.Errorf("key %d: delete was acked but the key survived the failover", k)
				}
			}
			for _, k := range r.inflight {
				delete(mustPresent, k)
				mayEither[k] = true
			}
		}
	}
	for _, k := range extra {
		mustPresent[k] = true
	}
	for k := range mustPresent {
		if ok, err := cl.Lookup(ctx, k); err != nil {
			return 0, fmt.Errorf("audit Lookup(%d): %w", k, err)
		} else if !ok {
			return 0, fmt.Errorf("key %d: insert was acked (semi-sync) but is gone after the failover", k)
		}
	}

	// Ghost scan: page the whole keyspace through Range and reject any key
	// with no explanation.
	seen := 0
	from := int64(-1) << 62
	for {
		keys, err := cl.Range(ctx, from, 1<<62, 4096)
		if err != nil {
			return 0, fmt.Errorf("audit Range from %d: %w", from, err)
		}
		if len(keys) == 0 {
			break
		}
		for _, k := range keys {
			seen++
			if k >= 0 && k < int64(seeded) || mustPresent[k] || mayEither[k] {
				continue
			}
			return 0, fmt.Errorf("ghost key %d after the failover: never seeded, acknowledged, or in flight", k)
		}
		from = keys[len(keys)-1] + 1
	}
	if seen < seeded {
		return 0, fmt.Errorf("audit scan saw %d keys, fewer than the %d seeded", seen, seeded)
	}
	return seen, nil
}
