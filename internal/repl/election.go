package repl

import (
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// This file is the automatic-failover engine (Config.AutoFailover). There
// are no votes and no quorum: when a follower's heartbeat lease expires it
// probes the configured peers, ranks every reachable non-leader candidate
// by (priority desc, applied seq desc, advertise addr asc), and waits
// rank × HoldOff before self-promoting — the deterministic winner moves
// first and the losers observe its announcement instead of racing it. The
// same status exchange doubles as the leader's peer watch: a leader that
// probes its peers and hears a newer term fences itself and rejoins as a
// follower, which is how a healed partition converges without an operator.

// peerView is one successful probe: the peer's status plus the address we
// dialed it at. Retargeting always uses the dialed address, never the
// peer's self-reported listener — the configured entry may be a proxy
// (tests route every link through internal/netchaos) and bypassing it
// would bypass the fault being injected.
type peerView struct {
	addr string
	st   wire.PeerStatus
}

// candidate is the election-relevant slice of a node's identity. addr is
// the data-plane Advertise string: the one name every node agrees on for
// a given peer no matter which proxy or interface it dialed.
type candidate struct {
	priority int32
	applied  uint64
	addr     string
}

// better reports whether a outranks b: higher priority, then more applied
// log, then the lexically lowest advertise address as the final, total
// tiebreak.
func better(a, b candidate) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if a.applied != b.applied {
		return a.applied > b.applied
	}
	return a.addr < b.addr
}

// electLoop runs for the node's lifetime when AutoFailover is set. A
// follower checks its lease every heartbeat interval and stands for
// election when it expires; a leader probes the peer list once per lease
// interval so it cannot keep believing it leads after a partition heals
// around a newer term.
func (n *Node) electLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	var lastLeaderProbe time.Time
	for {
		select {
		case <-n.quit:
			return
		case <-t.C:
		}
		if n.closed.Load() {
			return
		}
		if n.IsLeader() {
			if now := n.now(); now.Sub(lastLeaderProbe) >= n.lease() {
				lastLeaderProbe = now
				n.probePeers()
			}
			continue
		}
		if !n.LeaseExpired() {
			continue
		}
		n.runElection()
	}
}

// runElection is one candidacy: probe the field, defer to any live leader,
// rank ourselves, hold off by rank, and promote if nobody beat us to it.
// Unreachable peers simply don't count — a candidate alone in a partition
// still promotes (see DESIGN for why that is the accepted trade).
func (n *Node) runElection() {
	startTerm := n.term.Load()
	n.electState.Store(stateCandidate)
	n.c.elections.Add(1)
	n.log.Warn("leader lease expired; standing for election",
		"term", startTerm, "priority", n.cfg.Priority, "applied_seq", n.store.LastSeq())

	views := n.probePeers()
	if n.deferToLeader(views) {
		return
	}
	if n.term.Load() != startTerm || n.Role() != Follower {
		// A probe (or an inbound announcement) moved the term under us;
		// back off and let the next tick re-evaluate against it.
		n.electState.Store(stateFollowing)
		return
	}

	if rank := n.rankAmong(views); rank > 0 {
		wait := time.Duration(rank) * n.cfg.HoldOff
		deadline := n.now().Add(wait)
		n.electState.Store(stateHoldingOff)
		n.holdOffUntil.Store(deadline.UnixNano())
		n.log.Info("holding off for higher-ranked candidates", "rank", rank, "wait", wait)
		ok := n.holdOff(deadline, startTerm)
		n.holdOffUntil.Store(0)
		if !ok {
			n.electState.Store(stateFollowing)
			return
		}
		// The favored candidates had their window; look once more before
		// concluding they are gone too.
		views = n.probePeers()
		if n.deferToLeader(views) {
			return
		}
		if n.term.Load() != startTerm || n.Role() != Follower {
			n.electState.Store(stateFollowing)
			return
		}
	}

	term, err := n.promote(true)
	if err != nil {
		n.electState.Store(stateFollowing)
		return
	}
	n.log.Warn("self-promoted after lease expiry", "term", term)
	n.announce()
}

// deferToLeader ends a candidacy when any probe found a live leader at our
// term or newer: follow it instead of standing.
func (n *Node) deferToLeader(views []peerView) bool {
	for _, v := range views {
		if v.st.IsLeader && v.st.Term >= n.term.Load() {
			n.followLeaderFrom(v.addr, v.st)
			return true
		}
	}
	return false
}

// followLeaderFrom points the node at a leader discovered by probing:
// retarget the pull loop at the address we dialed, grant a fresh lease so
// the subscription has time to establish, and sever any stale connection
// so the redial happens now.
func (n *Node) followLeaderFrom(addr string, st wire.PeerStatus) {
	if st.Advertise != "" {
		n.leaderAddr.Store(st.Advertise)
	}
	n.leaderRepl.Store(addr)
	n.lastHeard.Store(n.now().UnixNano())
	n.electState.Store(stateFollowing)
	n.holdOffUntil.Store(0)
	n.log.Info("following discovered leader", "leader", st.Advertise, "repl", addr, "term", st.Term)
	n.severPull()
	n.startFollowerLoop()
}

// holdOff waits until deadline in heartbeat-quarter slices, aborting when
// the node closes, the role or term moves (someone else won), or the lease
// recovers (the old leader was merely slow). Returns true only when the
// full hold-off elapsed with the world unchanged.
func (n *Node) holdOff(deadline time.Time, startTerm uint64) bool {
	step := n.cfg.Heartbeat / 4
	if step <= 0 {
		step = 10 * time.Millisecond
	}
	for n.now().Before(deadline) {
		select {
		case <-n.quit:
			return false
		case <-time.After(step):
		}
		if n.closed.Load() || n.Role() != Follower || n.term.Load() != startTerm || !n.LeaseExpired() {
			return false
		}
	}
	return true
}

// rankAmong counts how many reachable non-leader candidates outrank this
// node. Peers are deduplicated by Advertise (two configured routes to the
// same node must not count it twice), and self-views are skipped the same
// way.
func (n *Node) rankAmong(views []peerView) int {
	self := candidate{priority: n.cfg.Priority, applied: n.store.LastSeq(), addr: n.cfg.Advertise}
	seen := map[string]bool{self.addr: true}
	rank := 0
	for _, v := range views {
		if v.st.IsLeader || v.st.Advertise == "" || seen[v.st.Advertise] {
			continue
		}
		seen[v.st.Advertise] = true
		if better(candidate{v.st.Priority, v.st.AppliedSeq, v.st.Advertise}, self) {
			rank++
		}
	}
	return rank
}

// probePeers exchanges status with every configured peer concurrently and
// returns the successful views, after feeding any news they carried into
// the node: a live leader at a newer term fences and retargets us (the
// zombie-leader healing path), a bare newer term at least fences.
func (n *Node) probePeers() []peerView {
	peers := n.cfg.Peers
	if len(peers) == 0 {
		return nil
	}
	type res struct {
		v  peerView
		ok bool
	}
	ch := make(chan res, len(peers))
	for _, addr := range peers {
		go func(addr string) {
			st, err := n.probePeer(addr)
			ch <- res{peerView{addr: addr, st: st}, err == nil}
		}(addr)
	}
	out := make([]peerView, 0, len(peers))
	for range peers {
		if r := <-ch; r.ok {
			out = append(out, r.v)
		}
	}
	for _, v := range out {
		if v.st.Term > n.term.Load() {
			if v.st.IsLeader {
				n.observeTerm(v.st.Term, v.st.Advertise, v.addr)
			} else {
				n.observeTerm(v.st.Term, "", "")
			}
		}
	}
	return out
}

// probePeer runs one symmetric status exchange against addr: send our
// status, read the peer's. The send doubles as an announcement — the peer
// learns our term and role from the same frame — so a freshly promoted
// leader "announces" by probing.
func (n *Node) probePeer(addr string) (wire.PeerStatus, error) {
	var ps wire.PeerStatus
	d := n.probeTimeout()
	c, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return ps, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(d))
	bp := wire.GetBuf()
	*bp = wire.AppendReplPeerStatus((*bp)[:0], n.localStatus())
	err = wire.WriteFrame(c, *bp)
	wire.PutBuf(bp)
	if err != nil {
		return ps, err
	}
	frame, _, err := wire.ReadFrame(c, nil)
	if err != nil {
		return ps, err
	}
	return wire.DecodeReplPeerStatus(frame)
}

// probeTimeout bounds one probe's dial+exchange: half the lease, clamped
// to [100ms, 2s], so a full probe round always fits inside the failover
// budget yet tolerates a chaos layer injecting latency.
func (n *Node) probeTimeout() time.Duration {
	d := n.lease() / 2
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// localStatus is this node's side of a status exchange.
func (n *Node) localStatus() wire.PeerStatus {
	return wire.PeerStatus{
		Term:       n.term.Load(),
		IsLeader:   n.IsLeader(),
		Priority:   n.cfg.Priority,
		AppliedSeq: n.store.LastSeq(),
		Advertise:  n.cfg.Advertise,
		ReplAddr:   n.ReplAddr(),
	}
}

// announce pushes the new leader's status at every peer at once. Best
// effort: a peer that is unreachable right now discovers the new term on
// its own next probe; one that answers with an even newer term fences us
// straight back (probePeers-style processing via the exchange itself is
// not needed — the reply is only logged, and a newer-term reply will also
// reach us through acks, subscribes, or our own leader watch).
func (n *Node) announce() {
	var wg sync.WaitGroup
	for _, addr := range n.cfg.Peers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			st, err := n.probePeer(addr)
			if err != nil {
				n.log.Info("leader announcement not delivered", "peer", addr, "err", err)
				return
			}
			if st.Term > n.term.Load() {
				if st.IsLeader {
					n.observeTerm(st.Term, st.Advertise, addr)
				} else {
					n.observeTerm(st.Term, "", "")
				}
			}
		}(addr)
	}
	wg.Wait()
}
