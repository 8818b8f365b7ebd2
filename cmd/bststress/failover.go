package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	bst "repro"
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

// seedFailoverStore builds the leader's starting state on disk: snap
// shuffled inserts, a checkpoint, then a tail of inserts that only the
// WAL holds, ended with a dirty close — so the leader child recovers a
// real snapshot + tail, and the follower's catch-up must cross both.
func seedFailoverStore(dir string, seed uint64, snap, tail int) error {
	dur, err := durable.Open(dir, durable.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	ks := make([]int64, snap+tail)
	for i := range ks {
		ks[i] = int64(i)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })

	acc := dur.NewAccessor()
	insertAll := func(part []int64) error {
		out := make([]bst.OpResult, 4096)
		for len(part) > 0 {
			n := min(len(part), 4096)
			acc.InsertBatch(part[:n], out[:n])
			for i := 0; i < n; i++ {
				if out[i].Err != nil || !out[i].OK {
					return fmt.Errorf("seed InsertBatch(%d) = %+v", part[i], out[i])
				}
			}
			part = part[n:]
		}
		return nil
	}
	if err := insertAll(ks[:snap]); err != nil {
		acc.Close()
		return err
	}
	if _, err := dur.Checkpoint(); err != nil {
		acc.Close()
		return fmt.Errorf("seed checkpoint: %w", err)
	}
	if err := insertAll(ks[snap:]); err != nil {
		acc.Close()
		return err
	}
	acc.Close()
	return dur.Crash()
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

	if err := seedFailoverStore(leaderDir, seed, snapKeys, tailOps); err != nil {
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
	for {
		h, err := fetchHealth(leader.admin)
		if err == nil && h.Cluster.Followers >= 1 && h.Cluster.AckedSeq >= h.Cluster.AppliedSeq && h.Cluster.AppliedSeq > 0 {
			break
		}
		if time.Since(catchup) > 120*time.Second {
			return fmt.Errorf("follower never caught up to the leader (last health: %+v, err: %v)", h, err)
		}
		time.Sleep(50 * time.Millisecond)
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
	var served time.Duration
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		ok, err := cl.Insert(ctx, probeKey)
		cancel()
		if err == nil && ok {
			served = time.Since(killStart)
			break
		}
		if time.Since(killStart) > recoveryBudget {
			return fmt.Errorf("promoted node not serving writes %v after the kill (budget %v; last err %v)",
				time.Since(killStart).Round(time.Millisecond), recoveryBudget, err)
		}
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
