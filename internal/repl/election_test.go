package repl

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// reserveAddr grabs a concrete loopback address that a node can be told
// to listen on later — the only way to hand two nodes each other's
// addresses in their Config before either has started.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestLeaseEdgeExactlyAtExpiry pins the lease boundary semantics: a
// heartbeat landing exactly one lease after the last one still counts
// — the lease is expired only when silence strictly exceeds the budget.
// The race this guards: an election firing at the same instant a healthy
// heartbeat arrives must lose to the heartbeat, not split the cluster.
// The follower points at a dead leader so the injected clock and
// manually-stored heartbeats are the only lease inputs.
func TestLeaseEdgeExactlyAtExpiry(t *testing.T) {
	fs := openStore(t)
	follower := startFollower(t, fs, reserveAddr(t), nil)

	base := time.Now()
	follower.lastHeard.Store(base.UnixNano())

	follower.setClock(func() time.Time { return base.Add(follower.lease()) })
	if follower.LeaseExpired() {
		t.Fatal("lease expired exactly at the deadline; the edge must still count as alive")
	}
	if rem := follower.LeaseRemaining(); rem != 0 {
		t.Fatalf("LeaseRemaining at the deadline = %v, want 0", rem)
	}

	follower.setClock(func() time.Time { return base.Add(follower.lease() + time.Nanosecond) })
	if !follower.LeaseExpired() {
		t.Fatal("lease not expired one nanosecond past the deadline")
	}

	// A heartbeat at the edge re-arms the full budget: refresh lastHeard
	// at the deadline instant and the next full lease must be available.
	follower.lastHeard.Store(base.Add(follower.lease()).UnixNano())
	if follower.LeaseExpired() {
		t.Fatal("lease expired immediately after an edge heartbeat")
	}
	if rem := follower.LeaseRemaining(); rem != follower.lease()-time.Nanosecond {
		t.Fatalf("LeaseRemaining after edge heartbeat = %v, want %v",
			rem, follower.lease()-time.Nanosecond)
	}
}

// TestLeaseClockJitter drives the lease check with a deliberately nasty
// clock — skewing forward and backward around on-time heartbeats — and
// asserts the check stays sane: jitter smaller than the remaining budget
// never fakes an expiry, a backward step never panics or goes negative,
// and only a genuine overshoot reports expired.
func TestLeaseClockJitter(t *testing.T) {
	fs := openStore(t)
	follower := startFollower(t, fs, reserveAddr(t), nil)

	lease := follower.lease()
	base := time.Now()
	jitters := []time.Duration{0, lease / 4, -lease / 4, lease / 2, -lease / 2, lease/2 - time.Millisecond}
	for i := 0; i < 50; i++ {
		beat := base.Add(time.Duration(i) * follower.cfg.Heartbeat)
		follower.lastHeard.Store(beat.UnixNano())
		j := jitters[i%len(jitters)]
		follower.setClock(func() time.Time { return beat.Add(j) })
		if follower.LeaseExpired() {
			t.Fatalf("iteration %d: jitter %v faked a lease expiry (budget %v)", i, j, lease)
		}
		// Negative jitter (clock behind the heartbeat) legitimately reads
		// as more than a full budget remaining; it must never go negative.
		if rem := follower.LeaseRemaining(); rem < 0 || (j >= 0 && rem > lease) {
			t.Fatalf("iteration %d: jitter %v gave LeaseRemaining %v (budget %v)", i, j, rem, lease)
		}
	}

	// A backward jump larger than the lease itself: silence is negative,
	// which must read as a fresh lease, not an overflow.
	now := base.Add(100 * follower.cfg.Heartbeat)
	follower.lastHeard.Store(now.UnixNano())
	follower.setClock(func() time.Time { return now.Add(-2 * lease) })
	if follower.LeaseExpired() {
		t.Fatal("clock running behind the heartbeat reported an expired lease")
	}
	// And a forward jump past the budget is a real expiry.
	follower.setClock(func() time.Time { return now.Add(lease + time.Millisecond) })
	if !follower.LeaseExpired() {
		t.Fatal("clock overshooting the budget did not expire the lease")
	}
}

// TestSimultaneousExpiryDeterministicRank starves two auto-failover
// followers of heartbeats at the same instant (a heartbeat-send failpoint
// on the leader drops every tick for every subscriber at once) and
// asserts the deterministic rank resolves the race: exactly the
// higher-priority follower promotes, and the other defers to it instead
// of claiming the same term.
func TestSimultaneousExpiryDeterministicRank(t *testing.T) {
	fps := failpoint.NewSet()
	ls := openStore(t)
	leader := startLeader(t, ls, func(c *Config) { c.Failpoints = fps })

	// Each candidate needs the other in its peer list before starting, so
	// both replication listen addresses are reserved up front. The dead
	// leader is deliberately absent from the lists: elections must work
	// with exactly the peers that are still reachable.
	addr1, addr2 := reserveAddr(t), reserveAddr(t)
	f1s, f2s := openStore(t), openStore(t)
	f1 := startFollower(t, f1s, leader.ReplAddr(), func(c *Config) {
		c.Advertise = "f1-data:1"
		c.ListenRepl = addr1
		c.Priority = 2
		c.AutoFailover = true
		c.Peers = []string{addr2}
	})
	f2 := startFollower(t, f2s, leader.ReplAddr(), func(c *Config) {
		c.Advertise = "f2-data:1"
		c.ListenRepl = addr2
		c.Priority = 1
		c.AutoFailover = true
		c.Peers = []string{addr1}
	})

	for i := int64(1); i <= 20; i++ {
		if !ls.Insert(i) {
			t.Fatalf("leader Insert(%d) = false", i)
		}
	}
	seq := ls.LastSeq()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f1.WaitApplied(ctx, seq); err != nil {
		t.Fatalf("f1 WaitApplied: %v", err)
	}
	if err := f2.WaitApplied(ctx, seq); err != nil {
		t.Fatalf("f2 WaitApplied: %v", err)
	}

	// Drop every heartbeat from here on: both leases expire together.
	fps.Site(FPHeartbeatSend).FailEveryN(1)

	waitFor(t, "priority-2 follower to win the election", func() bool {
		return f1.IsLeader() && f1.Term() == 2
	})
	waitFor(t, "priority-1 follower to defer to the winner", func() bool {
		return f2.Role() == Follower && f2.Term() == 2 && f2.replicaTarget() == addr1
	})
	if f2.IsLeader() {
		t.Fatal("both candidates promoted: rank was not deterministic")
	}
	waitFor(t, "loser re-subscribed to the winner", func() bool { return f1.Followers() >= 1 })
	waitFor(t, "loser learned the winner's data address", func() bool {
		return f2.LeaderAddr() == "f1-data:1"
	})
	if n := f1.c.elections.Load(); n == 0 {
		t.Fatal("winner's election counter never incremented")
	}
}

// TestDeposedLeaderRejoinsAsFollower exercises the zombie-healing path: a
// leader whose follower was promoted behind its back (an operator, or a
// partition it never noticed) probes its peers, observes the newer term,
// fences its store, and rejoins as a follower that replicates and acks
// the new leader — while refusing direct mutations of its own.
func TestDeposedLeaderRejoinsAsFollower(t *testing.T) {
	followerRepl := reserveAddr(t)
	ls := openStore(t)
	leader := startLeader(t, ls, func(c *Config) {
		c.AutoFailover = true
		c.Peers = []string{followerRepl}
	})
	fs := openStore(t)
	follower := startFollower(t, fs, leader.ReplAddr(), func(c *Config) {
		c.Advertise = "new-leader-data:1"
		c.ListenRepl = followerRepl
	})

	for i := int64(1); i <= 30; i++ {
		if !ls.Insert(i) {
			t.Fatalf("Insert(%d) = false", i)
		}
	}
	seq := ls.LastSeq()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := follower.WaitApplied(ctx, seq); err != nil {
		t.Fatalf("WaitApplied: %v", err)
	}

	// Operator-style promotion behind the old leader's back.
	if term, err := follower.Promote(); err != nil || term != 2 {
		t.Fatalf("Promote = (%d, %v), want (2, nil)", term, err)
	}

	// The old leader's periodic peer watch must fence and depose it.
	waitFor(t, "old leader to fence and step down", func() bool {
		return leader.Fenced() && leader.Role() == Follower && leader.Term() == 2
	})
	if got := ls.FencedTerm(); got != 2 {
		t.Fatalf("store fenced term = %d, want 2", got)
	}
	if leader.ElectionState() != "following" {
		t.Fatalf("deposed leader election state = %q, want following", leader.ElectionState())
	}
	// Direct mutations on the fenced store are refused...
	if ok, err := ls.TryInsert(1_000_000); ok || err == nil {
		t.Fatalf("direct insert on a fenced store: ok=%v err=%v, want refused", ok, err)
	}

	// ...but replicated state from the new leader flows in and is acked.
	for i := int64(31); i <= 60; i++ {
		if !fs.Insert(i) {
			t.Fatalf("new leader Insert(%d) = false", i)
		}
	}
	seq = fs.LastSeq()
	if err := leader.WaitApplied(ctx, seq); err != nil {
		t.Fatalf("deposed leader WaitApplied under new leader: %v", err)
	}
	if !ls.Contains(45) {
		t.Fatal("replicated key missing on the rejoined ex-leader")
	}
	// The new leader counts the rejoined node's term-carrying acks.
	waitFor(t, "new leader ack watermark", func() bool { return follower.AckedSeq() >= seq })
	waitFor(t, "rejoined ex-leader keeps a live lease", func() bool { return !leader.LeaseExpired() })
}

// TestStaleTermFramesRejected: a follower that has observed a newer term
// refuses frame batches stamped with an older one — and the rejection
// loop closes end to end: the follower's re-subscription carries the new
// term to the stale leader, which fences itself.
func TestStaleTermFramesRejected(t *testing.T) {
	ls := openStore(t)
	leader := startLeader(t, ls, nil)
	fs := openStore(t)
	follower := startFollower(t, fs, leader.ReplAddr(), nil)
	waitFor(t, "subscription", func() bool { return leader.Followers() == 1 })

	// The follower hears of term 3 out of band (an election elsewhere).
	follower.observeTerm(3, "", "")

	// The still-term-1 leader keeps heartbeating and writing; the
	// follower must reject the stale frames rather than apply them.
	for i := int64(1); i <= 10; i++ {
		ls.Insert(100 + i)
	}
	waitFor(t, "stale frames rejected", func() bool { return follower.c.fencedFrames.Load() >= 1 })
	if follower.Term() != 3 {
		t.Fatalf("follower term = %d, want 3", follower.Term())
	}
	// The rejection severs the stream; the redial's Subscribe announces
	// term 3, which deposes and fences the stale leader.
	waitFor(t, "stale leader fenced by its own subscriber", func() bool {
		return leader.Fenced() && leader.Role() == Follower
	})
}
