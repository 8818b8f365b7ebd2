package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/netchaos"
)

// The -chaos round is the self-healing gate: nobody promotes anything by
// hand. Three auto-failover nodes run behind a full mesh of six netchaos
// proxies (one per directed link), so the round can partition, blackhole,
// and delay any link on a deterministic, seeded schedule while the parent
// keeps direct access to every node's data and admin ports.
//
// The script, and what each step proves:
//
//  1. A (priority 0) leads a seeded store; B (priority 2) and C
//     (priority 1) catch up as semi-sync followers. Latency/jitter noise
//     plays over the links while workers hammer A with the exact-ledger
//     discipline of -crash.
//  2. The round quiesces — stops the load and waits until B and C have
//     applied everything A acked. Semi-sync acks are satisfied by ANY
//     follower, so only a converged cut makes "acked implies on the next
//     leader" exact; the election ranks priority above applied-seq and
//     genuinely cannot promise it (DESIGN §13).
//  3. All four of A's links partition. B's lease expires, it outranks C,
//     self-promotes to the next term and announces; C defers. No operator.
//  4. The partition heals. A — still a zombie leader of the old term —
//     probes its peers, observes the newer term, fences itself, and
//     rejoins as B's follower. Direct writes to A must all answer
//     StatusFenced.
//  5. A's link to B gets a fat latency rule. A stays a healthy follower
//     (the lease budget dwarfs the lag) but its cumulative acks now trail
//     C's by the lag, so B's semi-sync watermark only ever advances on
//     C's acks — the final audit is exact again with two followers up.
//  6. Workers hammer B; mid-load B is SIGKILL'd. C outranks the fenced A,
//     promotes to a third term, and serves within the recovery budget.
//  7. The audit, against C over the wire: every acked insert present,
//     every acked delete stuck, zero ghost keys in a full Range scan, all
//     fenced writes absent — and a health poller that watched all three
//     nodes the whole time must have seen at most one leader per term.
const (
	chaosSnapKeys = 50_000
	chaosTailOps  = 5_000

	// Mirrors runFailoverChild: Heartbeat 50ms, lease 5× the heartbeat
	// (the repl default multiplier), hold-off 400ms per rank.
	chaosHeartbeat = 50 * time.Millisecond
	chaosLease     = 5 * chaosHeartbeat
	chaosHoldOff   = 400 * time.Millisecond
)

// chaosProbeB/C are the first writes clocked on each self-promoted
// leader; chaosCanary proves A's pull stream is live again after the
// heal; chaosRedirect is written through the fenced ex-leader by a
// retrying client following the StatusFenced redirect; chaosFenceBase
// keys are pinned writes the fenced ex-leader must refuse.
const (
	chaosProbeB    = int64(1)<<60 + 1
	chaosProbeC    = int64(1)<<60 + 2
	chaosCanary    = int64(1)<<60 + 3
	chaosRedirect  = int64(1)<<60 + 4
	chaosFenceBase = int64(1)<<59 + 1

	// ackLag is the latency injected on A's link in phase 2. Far below
	// the lease budget, far above the ack interval: A keeps following
	// but its acks always trail C's, keeping the semi-sync watermark
	// pinned to C.
	chaosAckLag = 75 * time.Millisecond
)

// termLeaders tracks which nodes were ever observed leading which term.
// The poller samples /healthz on every node a few dozen times per second;
// the invariant it guards — at most one leader per term — is the one the
// deterministic-rank election promises even without consensus.
type termLeaders struct {
	mu      sync.Mutex
	leaders map[uint64]map[string]bool
	fencedA bool
}

func (t *termLeaders) note(name string, h clusterHealth) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h.Cluster.Role == "leader" {
		if t.leaders[h.Cluster.Term] == nil {
			t.leaders[h.Cluster.Term] = map[string]bool{}
		}
		t.leaders[h.Cluster.Term][name] = true
	}
	if name == "A" && h.Cluster.Fenced {
		t.fencedA = true
	}
}

func (t *termLeaders) check() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for term, who := range t.leaders {
		if len(who) > 1 {
			names := make([]string, 0, len(who))
			for n := range who {
				names = append(names, n)
			}
			return fmt.Errorf("term %d had %d leaders: %v", term, len(who), names)
		}
	}
	if !t.fencedA {
		return errors.New("the deposed leader A was never observed fenced")
	}
	return nil
}

func chaosRound(workers int, seed uint64) (err error) {
	logf := func(format string, a ...any) { fmt.Printf("chaos: "+format+"\n", a...) }
	logf("seed=%d workers=%d", seed, workers)

	dirs := make([]string, 3)
	for i := range dirs {
		d, derr := os.MkdirTemp("", "bst-chaos-node-")
		if derr != nil {
			return derr
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	if err := seedStore(dirs[0], seed, chaosSnapKeys, chaosTailOps); err != nil {
		return fmt.Errorf("seeding leader store: %w", err)
	}

	// The proxy mesh exists before any node so every child can be
	// configured with stable link addresses: pXY is X's dialing view of Y.
	var pAB, pAC, pBA, pBC, pCA, pCB *netchaos.Proxy
	for i, slot := range []**netchaos.Proxy{&pAB, &pAC, &pBA, &pBC, &pCA, &pCB} {
		p, perr := netchaos.New(seed*16 + uint64(i))
		if perr != nil {
			return perr
		}
		defer p.Close()
		*slot = p
	}

	// A leads the seeded store. Its priority is the lowest on purpose:
	// once deposed it must never outrank the healthy followers, or a
	// stale store could win a later election.
	a, killA, err := spawnFailoverChild(dirs[0], childOpts{
		peers: pAB.Addr() + "," + pAC.Addr(), priority: 0, auto: true,
	})
	if err != nil {
		return err
	}
	defer killA()
	pBA.SetTarget(a.repl)
	pCA.SetTarget(a.repl)

	b, killB, err := spawnFailoverChild(dirs[1], childOpts{
		replicaOf: pBA.Addr(), peers: pBA.Addr() + "," + pBC.Addr(), priority: 2, auto: true,
	})
	if err != nil {
		return err
	}
	defer killB()
	c, killC, err := spawnFailoverChild(dirs[2], childOpts{
		replicaOf: pCA.Addr(), peers: pCA.Addr() + "," + pCB.Addr(), priority: 1, auto: true,
	})
	if err != nil {
		return err
	}
	defer killC()
	pAB.SetTarget(b.repl)
	pCB.SetTarget(b.repl)
	pAC.SetTarget(c.repl)
	pBC.SetTarget(c.repl)

	// Both followers must fully converge before the load starts: the
	// leader is semi-sync, and the audit depends on a clean baseline.
	catchup := time.Now()
	ha, err := waitHealth(a.admin, "cluster catch-up", 120*time.Second, func(h clusterHealth) bool {
		if h.Cluster.Followers < 2 || h.Cluster.AppliedSeq == 0 || h.Cluster.AckedSeq < h.Cluster.AppliedSeq {
			return false
		}
		hb, berr := fetchHealth(b.admin)
		hc, cerr := fetchHealth(c.admin)
		return berr == nil && cerr == nil &&
			hb.Cluster.AppliedSeq == h.Cluster.AppliedSeq &&
			hc.Cluster.AppliedSeq == h.Cluster.AppliedSeq
	})
	if err != nil {
		return err
	}
	term0 := ha.Cluster.Term
	logf("3-node cluster converged on %d-key + %d-op seed in %v (term %d)",
		chaosSnapKeys, chaosTailOps, time.Since(catchup).Round(time.Millisecond), term0)

	// Leader-per-term poller: watches every node's /healthz for the whole
	// round. Sampling can miss a sub-20ms flicker, but any election bug
	// that leaves two leaders standing is caught.
	obs := &termLeaders{leaders: map[uint64]map[string]bool{}}
	pollStop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		nodes := []struct{ name, admin string }{{"A", a.admin}, {"B", b.admin}, {"C", c.admin}}
		for {
			select {
			case <-pollStop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			for _, nd := range nodes {
				if h, herr := fetchHealth(nd.admin); herr == nil {
					obs.note(nd.name, h)
				}
			}
		}
	}()
	defer pollWG.Wait()
	defer func() {
		select {
		case <-pollStop:
		default:
			close(pollStop)
		}
	}()

	// Phase 1: load on A under seeded latency/jitter noise on random
	// links. The noise is deliberately far below the lease budget — this
	// phase proves tolerance of a degraded-but-connected network.
	rng := netchaos.NewRand(seed ^ 0x9e3779b97f4a7c15)
	links := []*netchaos.Proxy{pAB, pAC, pBA, pBC, pCA, pCB}
	var events []netchaos.Event
	for i := 0; i < 6; i++ {
		li := rng.Intn(len(links))
		p := links[li]
		lat := time.Duration(1+rng.Intn(8)) * time.Millisecond
		jit := rng.Duration(3 * time.Millisecond)
		events = append(events, netchaos.Event{
			At:   time.Duration(i) * 200 * time.Millisecond,
			Name: fmt.Sprintf("latency %v jitter %v on link %d", lat, jit, li),
			Do:   func() { p.SetRule(netchaos.Rule{Latency: lat, Jitter: jit}) },
		})
	}
	events = append(events, netchaos.Event{
		At: 1400 * time.Millisecond, Name: "clear noise",
		Do: func() {
			for _, p := range links {
				p.SetRule(netchaos.Rule{})
			}
		},
	})
	scheduleDone := make(chan error, 1)
	go func() { scheduleDone <- netchaos.RunSchedule(events, pollStop, logf) }()

	stop1 := make(chan struct{})
	time.AfterFunc(1600*time.Millisecond, func() { close(stop1) })
	phase1 := ledgerLoad(a.data, workers, seed, disjointBase, stop1)
	if serr := <-scheduleDone; serr != nil {
		return fmt.Errorf("noise schedule: %w", serr)
	}
	acked1, inflight1, err := tally(phase1, "phase 1")
	if err != nil {
		return err
	}

	// Quiesce to a converged cut (see the file comment for why).
	if _, err := waitHealth(a.admin, "pre-partition quiesce", 15*time.Second, func(h clusterHealth) bool {
		if h.Cluster.AckedSeq < h.Cluster.AppliedSeq {
			return false
		}
		hb, berr := fetchHealth(b.admin)
		hc, cerr := fetchHealth(c.admin)
		return berr == nil && cerr == nil &&
			hb.Cluster.AppliedSeq == h.Cluster.AppliedSeq &&
			hc.Cluster.AppliedSeq == h.Cluster.AppliedSeq
	}); err != nil {
		return err
	}
	logf("phase 1: %d acked ops under link noise, cluster quiesced", acked1)

	// Phase 2: partition every one of A's links. B must notice the dead
	// lease, outrank C, and self-promote — no /promote anywhere.
	aLinks := []*netchaos.Proxy{pAB, pAC, pBA, pCA}
	for _, p := range aLinks {
		p.SetRule(netchaos.Rule{Partition: true})
	}
	partStart := time.Now()
	logf("partitioned A from the cluster")
	hb, err := waitHealth(b.admin, "B self-promotion", recoveryBudget, func(h clusterHealth) bool {
		return h.Cluster.Role == "leader" && h.Cluster.Term > term0
	})
	if err != nil {
		return err
	}
	termB := hb.Cluster.Term
	promotedIn := time.Since(partStart)

	clB, err := client.Dial(client.Config{Addr: b.data, Seed: int64(seed)})
	if err != nil {
		return err
	}
	defer clB.Close()
	servedB, err := firstWrite(clB, chaosProbeB, partStart, "B", "the partition")
	if err != nil {
		return err
	}
	logf("B self-promoted to term %d in %v, serving writes in %v (lease %v + hold-off %v budget, hard cap %v)",
		termB, promotedIn.Round(time.Millisecond), servedB.Round(time.Millisecond), chaosLease, chaosHoldOff, recoveryBudget)

	// Phase 3: heal. The zombie leader A probes its peers, sees term B,
	// fences, and rejoins as a follower — then must refuse direct writes.
	for _, p := range aLinks {
		p.SetRule(netchaos.Rule{})
	}
	healStart := time.Now()
	if _, err := waitHealth(a.admin, "A fencing after heal", 15*time.Second, func(h clusterHealth) bool {
		return h.Cluster.Fenced && h.Cluster.Role == "follower" && h.Cluster.Term >= termB
	}); err != nil {
		return err
	}
	logf("healed: A fenced itself and rejoined in %v", time.Since(healStart).Round(time.Millisecond))
	hb2, err := fetchHealth(b.admin)
	if err != nil {
		return fmt.Errorf("B health after heal: %w", err)
	}
	if _, err := waitHealth(a.admin, "A catching up under B", 15*time.Second, func(h clusterHealth) bool {
		return h.Cluster.AppliedSeq >= hb2.Cluster.AppliedSeq
	}); err != nil {
		return err
	}
	// The applied-seq check above can pass on A's pre-partition state
	// alone (nothing was written during the outage), so prove A's pull
	// stream is actually live: write a canary through B and wait until A
	// has streamed it.
	{
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		ok, werr := clB.Insert(ctx, chaosCanary)
		cancel()
		if werr != nil || !ok {
			return fmt.Errorf("canary insert on B: ok=%v err=%v", ok, werr)
		}
	}
	hb3, err := fetchHealth(b.admin)
	if err != nil {
		return fmt.Errorf("B health after canary: %w", err)
	}
	if _, err := waitHealth(a.admin, "A streaming live from B", 15*time.Second, func(h clusterHealth) bool {
		return h.Cluster.AppliedSeq >= hb3.Cluster.AppliedSeq
	}); err != nil {
		return err
	}

	// Pinned fence probes: each write uses a fresh one-shot client so the
	// learned-leader cache cannot route around A — the request must land
	// on the fenced node itself and come back StatusFenced.
	for i := int64(0); i < 5; i++ {
		clA, derr := client.Dial(client.Config{Addr: a.data, Conns: 1, MaxAttempts: 1, Seed: int64(seed) + i})
		if derr != nil {
			return derr
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, werr := clA.Insert(ctx, chaosFenceBase+i)
		cancel()
		clA.Close()
		if !errors.Is(werr, client.ErrFenced) {
			return fmt.Errorf("write %d to the fenced ex-leader: want StatusFenced, got %v", i, werr)
		}
	}
	// The flip side of fencing: a retrying client pointed at the fenced
	// ex-leader must follow the StatusFenced redirect to the live leader
	// and land its write there transparently.
	clRedir, err := client.Dial(client.Config{Addr: a.data, Conns: 1, Seed: int64(seed)})
	if err != nil {
		return err
	}
	{
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		ok, werr := clRedir.Insert(ctx, chaosRedirect)
		cancel()
		clRedir.Close()
		if werr != nil || !ok {
			return fmt.Errorf("redirected write via the fenced ex-leader: ok=%v err=%v", ok, werr)
		}
	}
	logf("all 5 pinned writes to the fenced ex-leader refused with StatusFenced; retrying client redirected to the live leader")

	// Phase 4: lag A's link. A's acks now always trail C's, so B's
	// semi-sync watermark only advances on C's acks and every acked write
	// is provably on C — the node about to win the next election.
	pAB.SetRule(netchaos.Rule{Latency: chaosAckLag})

	stop2 := make(chan struct{})
	phase2ch := make(chan []crashWorker, 1)
	go func() {
		phase2ch <- ledgerLoad(b.data, workers, seed+101,
			func(w int) int64 { return disjointBase(w) | 1<<30 }, stop2)
	}()
	time.Sleep(time.Second)
	killStart := time.Now()
	killB() // SIGKILL mid-load: the second leader dies ungracefully
	close(stop2)
	phase2 := <-phase2ch
	pAB.SetRule(netchaos.Rule{})
	acked2, inflight2, err := tally(phase2, "phase 2")
	if err != nil {
		return err
	}

	// C must outrank the fenced, lowest-priority A and take the next term.
	hc, err := waitHealth(c.admin, "C self-promotion", recoveryBudget, func(h clusterHealth) bool {
		return h.Cluster.Role == "leader" && h.Cluster.Term > termB
	})
	if err != nil {
		return err
	}
	termC := hc.Cluster.Term

	clC, err := client.Dial(client.Config{Addr: c.data, Seed: int64(seed)})
	if err != nil {
		return err
	}
	defer clC.Close()
	// Audit failures from here should name the guilty phase on C.
	defer func() {
		if err != nil {
			dumpSlowOps(c.admin)
		}
	}()
	servedC, err := firstWrite(clC, chaosProbeC, killStart, "C", "kill -9 of B")
	if err != nil {
		return err
	}
	logf("B killed mid-load; C self-promoted to term %d, serving writes %v after the kill",
		termC, servedC.Round(time.Millisecond))

	// The audit, against the final leader C. Phase-1 acks are covered by
	// the pre-partition quiesce; phase-2 acks by the lagged link to A.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := int64(0); i < 5; i++ {
		if ok, lerr := clC.Lookup(ctx, chaosFenceBase+i); lerr != nil {
			return fmt.Errorf("audit Lookup(fence %d): %w", i, lerr)
		} else if ok {
			return fmt.Errorf("fenced write %d leaked into the cluster despite StatusFenced", i)
		}
	}
	seen, err := auditOverWire(ctx, clC, [][]crashWorker{phase1, phase2}, chaosSnapKeys+chaosTailOps,
		chaosProbeB, chaosProbeC, chaosCanary, chaosRedirect)
	if err != nil {
		return err
	}

	close(pollStop)
	pollWG.Wait()
	if oerr := obs.check(); oerr != nil {
		return fmt.Errorf("leader-per-term audit: %w", oerr)
	}

	logf("OK — 2 elections (terms %d→%d→%d), 1 fenced ex-leader, %d acked ops (%d in flight) audited 100%% present, 0 ghosts across %d keys, exactly one leader per term",
		term0, termB, termC, acked1+acked2, inflight1+inflight2, seen)
	return nil
}
