// Package repl turns two or more bstserve processes into a WAL-shipping
// replication cluster: one leader takes writes, streams committed WAL
// frames to followers, and followers apply them to their own durable
// stores — tree first, then local WAL, exactly like a leader-side
// mutation — so any follower can be promoted without replaying anything.
//
// # Shape
//
// The WAL is already a replication log: seq-dense, CRC-framed, idempotent
// to re-apply. The leader taps the log's flusher (durable.SetWALTap) and
// fans the verbatim frame bytes out to subscriber connections; the frames
// a follower receives are the same bytes the leader's disk holds. A
// follower that is too far behind the leader's retained WAL (a checkpoint
// GC'd the segments it needs) catches up from the leader's newest
// snapshot instead — streamed in chunks, bulk-loaded with the balanced
// BFS loader, pinned on the leader (snapshot.Pin) so a concurrent
// checkpoint cannot GC it mid-stream — and then rides the WAL tail.
//
// # Roles, terms, leases, elections
//
// A node is leader or follower; the role changes through operator-driven
// promotion (POST /promote on the admin port) or, with AutoFailover,
// through lease-expiry elections (still no quorum; this is a
// primary/backup design, not consensus). Each promotion increments a term
// number that rides every ReplFrames batch; a follower adopts any higher
// term it hears and records the sender as leader. The lease is the
// follower's view of leader liveness: heartbeats (empty ReplFrames)
// arrive every Heartbeat interval, and a follower that has heard nothing
// for five of them reports the lease expired through Status — and, with
// AutoFailover, stands for election: it probes Peers with a
// ReplStatus exchange, ranks the reachable candidates deterministically
// by (Priority, applied seq, Advertise address), holds off by its rank ×
// HoldOff, and self-promotes only if no newer-term leader appeared first;
// losers re-subscribe to the winner. Followers refuse writes regardless
// of lease state — wire.StatusNotLeader carries the leader's data
// address, so clients re-aim instead of guessing.
//
// # Term fencing
//
// A deposed leader that comes back is refused everywhere: followers
// reject ReplFrames carrying a term lower than their own, a semi-sync
// leader refuses to count acks stamped with a newer term (they are the
// proof it was deposed), and the moment a node observes a higher term
// while believing itself leader it steps down, fences its store
// (durable.Fence — even in-flight writes cannot be acknowledged), answers
// mutations with wire.StatusFenced, and rejoins as a follower of the
// winner. Leaders with Peers configured probe them on a lease cadence so
// a healed partition cannot leave a zombie leader serving stale reads and
// unackable writes indefinitely.
//
// # Ack windows and durability
//
// Followers acknowledge cumulatively: one ReplAck covers every record at
// or below its sequence — the replication analogue of the WAL's group
// commit. With RequireAck (semi-sync) the leader's server withholds write
// acknowledgements until a follower ack covers them, so "the client saw
// OK" implies "a follower has it" and a SIGKILLed leader loses nothing
// that was acknowledged; without it, acked-but-unreplicated writes are
// bounded by the follower's ack window (AckEvery records / AckInterval).
package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/failpoint"
	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/rtrace"
	"repro/internal/wire"
)

// Role is a node's current replication role.
type Role int32

const (
	Follower Role = iota
	Leader
)

func (r Role) String() string {
	if r == Leader {
		return "leader"
	}
	return "follower"
}

// ErrAckTimeout is returned by WaitReplicated when no follower
// acknowledged the sequence within AckTimeout — replication is degraded
// (follower down or lagging). The server maps it to a retryable status:
// the write is applied and locally durable, but not yet safe to
// acknowledge under semi-sync rules.
var ErrAckTimeout = errors.New("repl: no follower ack within timeout")

// ErrNotFollower is returned by Promote on a node that is already leader.
var ErrNotFollower = errors.New("repl: already leader")

// Failpoint site names (Config.Failpoints) for deterministic fault
// injection on the heartbeat path: FPHeartbeatSend drops an outgoing
// leader heartbeat before it is written, FPHeartbeatRecv drops an incoming
// ReplFrames batch before the follower processes it (the lease does not
// refresh), so tests can starve a lease without touching the network.
const (
	FPHeartbeatSend = "repl/heartbeat-send"
	FPHeartbeatRecv = "repl/heartbeat-recv"
)

// Election states, named by Status.ElectionState.
const (
	stateFollowing int32 = iota
	stateCandidate
	stateHoldingOff
	statePromoted
)

// Config configures a Node. Store and Advertise are required.
type Config struct {
	// Store is the node's durable tree (the same one the server fronts).
	Store *durable.Tree
	// Advertise is the data-plane address clients should be redirected to
	// when this node is (or becomes) leader. It rides replication frames,
	// so it may be at most wire.MaxReplAddr bytes.
	Advertise string
	// ListenRepl is the replication listener address. Required for a
	// leader; optional for a follower (serving it lets the follower feed
	// other subscribers after promotion).
	ListenRepl string
	// ReplicaOf is the leader's replication address. Empty means start as
	// leader.
	ReplicaOf string
	// Heartbeat is the leader's keepalive interval (default 200ms). The
	// lease is five of them (see Node.lease).
	Heartbeat time.Duration
	// AckEvery is the follower's ack window in records: one cumulative
	// ReplAck per AckEvery applied records (default 256).
	AckEvery int
	// AckInterval bounds how stale a follower's ack may go under a trickle
	// of records (default 50ms).
	AckInterval time.Duration
	// RequireAck enables semi-synchronous mode on the leader: write
	// acknowledgements wait for a follower ack (see WaitReplicated).
	RequireAck bool
	// AckTimeout bounds the semi-sync wait (default 2s).
	AckTimeout time.Duration
	// Priority ranks this node in automatic elections: higher wins; ties
	// break on highest applied sequence, then lowest Advertise address.
	Priority int32
	// Peers lists the replication-listener addresses of the other cluster
	// members as this node dials them (they may be proxies — see
	// internal/netchaos). Elections probe these addresses; a loser
	// re-subscribes to the winner through its configured address, and a
	// leader with Peers set probes them on a lease cadence so a healed
	// partition cannot leave it believing it still leads.
	Peers []string
	// AutoFailover enables the election loop: a follower whose heartbeat
	// lease expires probes Peers, ranks the reachable candidates by
	// (Priority, applied seq, Advertise), holds off in rank order, and
	// self-promotes if no newer-term leader appears first. No votes and no
	// quorum — see DESIGN for what this does and does not guarantee.
	AutoFailover bool
	// HoldOff is the per-rank hold-off step after a candidate decides to
	// stand (default 2×Heartbeat): the rank-i candidate waits i×HoldOff
	// before promoting, so the deterministic winner moves first and losers
	// observe it instead of racing it.
	HoldOff time.Duration
	// Failpoints enables the FPHeartbeat* injection sites. Nil in
	// production (a nil set costs one pointer check per site).
	Failpoints *failpoint.Set
	// Trace, when non-nil, links replication into request tracing: a
	// leader stamps shipped frame batches with the trace context of any
	// sampled mutation they cover (consulting the recorder's sampled-seq
	// table), and a follower records a KApply span — parented under the
	// leader's request span — for every stamped batch it applies. Nil
	// disables the linkage at a nil-check's cost.
	Trace *rtrace.Recorder
	// Logger, when non-nil, receives one structured record per notable
	// event. Every record is stamped — at emit time, not construction —
	// with the node's current role and term, so lines logged across a
	// failover carry the identity the node had when each line happened.
	Logger *slog.Logger
}

// Node is one member of a replication cluster. Create with Start; a server
// takes it as its cluster (server.Config.Cluster), and Status is the one
// view of its replication state that the admin endpoints and MetricsHook
// both serve.
type Node struct {
	cfg   Config
	store *durable.Tree
	log   *slog.Logger

	role       atomic.Int32
	term       atomic.Uint64
	leaderAddr atomic.Value // string: the current leader's data address
	// leaderRepl is the replication address of the current leader as this
	// node dials it (seeded from ReplicaOf; elections and probes move it).
	leaderRepl atomic.Value // string
	// fenced marks a node deposed by a newer term while it was leader;
	// sticky until the node is promoted again, so every write aimed at the
	// old leader keeps getting the unambiguous StatusFenced redirect.
	fenced atomic.Bool
	// electState/holdOffUntil drive Status's election fields.
	electState   atomic.Int32
	holdOffUntil atomic.Int64 // unix nanos; 0 = no hold-off pending
	// clock overrides time.Now for lease math (tests inject jitter).
	clock atomic.Value // func() time.Time

	// applied tracks the follower's apply progress; on a leader the store's
	// own LastSeq is authoritative (every local mutation is "applied").
	applied atomic.Uint64
	// lastHeard is the unix-nano timestamp of the last frame from the
	// leader (follower role).
	lastHeard atomic.Int64
	// leaderCommit is the leader's newest assigned sequence as of the last
	// ReplFrames batch (follower role); applied lag is measured against it.
	leaderCommit atomic.Uint64

	// notify is closed and replaced whenever applied (follower) or the
	// local WAL (leader, via the tap) advances; WaitApplied parks on it.
	notifyMu sync.Mutex
	notifyCh chan struct{}

	// ackCh is the same copy-on-notify channel for follower acks
	// (WaitReplicated parks on it); maxAck is the newest sequence any
	// follower has acknowledged as applied.
	ackMu  sync.Mutex
	ackCh  chan struct{}
	maxAck atomic.Uint64

	subMu sync.Mutex
	subs  map[*subscriber]struct{}

	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool
	quit   chan struct{}

	// loopMu serializes startFollowerLoop against Close so a late restart
	// (a deposed leader rejoining) cannot race the final wg.Wait;
	// followerRunning keeps the pull loop single-instance.
	loopMu          sync.Mutex
	followerRunning atomic.Bool

	// followerCancel interrupts the follower loop's current connection on
	// Promote/Close.
	followerConn struct {
		sync.Mutex
		c net.Conn
	}

	c counters
}

type counters struct {
	recordsSent         atomic.Uint64
	batchesSent         atomic.Uint64
	heartbeatsSent      atomic.Uint64
	recordsApplied      atomic.Uint64
	acksSent            atomic.Uint64
	acksReceived        atomic.Uint64
	snapshotsShipped    atomic.Uint64
	snapshotKeysShipped atomic.Uint64
	snapshotLoads       atomic.Uint64
	resyncs             atomic.Uint64
	reconnects          atomic.Uint64
	ackTimeouts         atomic.Uint64
	promotions          atomic.Uint64
	elections           atomic.Uint64
	fenceEvents         atomic.Uint64
	fencedFrames        atomic.Uint64
	staleAcks           atomic.Uint64
}

// Start creates a node, starts its replication listener (when configured)
// and, for a follower, the catch-up/apply loop.
func Start(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("repl: Config.Store is required")
	}
	if cfg.Advertise == "" {
		return nil, errors.New("repl: Config.Advertise is required")
	}
	if len(cfg.Advertise) > wire.MaxReplAddr {
		return nil, fmt.Errorf("repl: Config.Advertise is %d bytes, over the %d a replication frame carries", len(cfg.Advertise), wire.MaxReplAddr)
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 200 * time.Millisecond
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 256
	}
	if cfg.AckInterval <= 0 {
		cfg.AckInterval = 50 * time.Millisecond
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	if cfg.HoldOff <= 0 {
		cfg.HoldOff = 2 * cfg.Heartbeat
	}
	n := &Node{
		cfg:      cfg,
		store:    cfg.Store,
		notifyCh: make(chan struct{}),
		ackCh:    make(chan struct{}),
		subs:     make(map[*subscriber]struct{}),
		quit:     make(chan struct{}),
	}
	// Role and term flip during failover; resolve them per record rather
	// than freezing them into the handler at construction.
	n.log = logx.Dynamic(cfg.Logger, func() []slog.Attr {
		return []slog.Attr{
			slog.String("role", n.Role().String()),
			slog.Uint64("term", n.term.Load()),
		}
	})
	if cfg.Logger == nil {
		n.log = logx.Discard()
	}
	n.leaderRepl.Store(cfg.ReplicaOf)
	if cfg.ReplicaOf == "" {
		n.role.Store(int32(Leader))
		n.term.Store(1)
		n.leaderAddr.Store(cfg.Advertise)
	} else {
		n.role.Store(int32(Follower))
		n.leaderAddr.Store("") // unknown until the first heartbeat
		n.applied.Store(n.store.LastSeq())
		n.lastHeard.Store(n.now().UnixNano())
	}

	// The tap fans committed frames out to subscribers and doubles as the
	// "log advanced" wakeup for applied-seq waiters. It is installed on
	// every role: a follower's own flushes feed downstream subscribers
	// (chained replication) and, after promotion, the listener is already
	// live.
	n.store.SetWALTap(func(frames []byte, first, last uint64) {
		n.tapFanout(frames, first, last)
		n.wakeApplied()
	})

	if cfg.ListenRepl != "" {
		ln, err := net.Listen("tcp", cfg.ListenRepl)
		if err != nil {
			return nil, fmt.Errorf("repl: listen %s: %w", cfg.ListenRepl, err)
		}
		n.ln = ln
		n.wg.Add(1)
		go n.acceptLoop(ln)
	}
	if cfg.ReplicaOf != "" {
		n.startFollowerLoop()
	}
	if cfg.AutoFailover {
		n.wg.Add(1)
		go n.electLoop()
	}
	return n, nil
}

// now is the node's clock; tests may swap it (setClock) to jitter lease
// arithmetic without touching real timers.
func (n *Node) now() time.Time {
	if f, ok := n.clock.Load().(func() time.Time); ok {
		return f()
	}
	return time.Now()
}

func (n *Node) setClock(f func() time.Time) { n.clock.Store(f) }

// replicaTarget is the replication address the pull loop should dial: the
// leader learned from elections/probes, falling back to the configured
// ReplicaOf.
func (n *Node) replicaTarget() string {
	if a, _ := n.leaderRepl.Load().(string); a != "" {
		return a
	}
	return n.cfg.ReplicaOf
}

// startFollowerLoop launches the pull loop if it is not already running.
// Besides startup, this is how a deposed leader rejoins the cluster as a
// follower of whoever fenced it.
func (n *Node) startFollowerLoop() {
	n.loopMu.Lock()
	defer n.loopMu.Unlock()
	if n.closed.Load() || !n.followerRunning.CompareAndSwap(false, true) {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.followerRunning.Store(false)
		n.followerLoop()
	}()
}

// observeTerm folds a term observation from any source — frame batch,
// subscriber handshake, ack, status probe — into the node. A higher term
// than our own is adopted (recording the advertised leader when known);
// adopting one while we believe ourselves leader is a deposition: step
// down to follower, fence the store so in-flight writes cannot be
// acknowledged, and rejoin the cluster as a subscriber of whoever won.
func (n *Node) observeTerm(t uint64, leaderData, leaderRepl string) {
	for {
		old := n.term.Load()
		if t <= old {
			return
		}
		if n.term.CompareAndSwap(old, t) {
			break
		}
	}
	if leaderData != "" {
		n.leaderAddr.Store(leaderData)
	}
	if leaderRepl != "" {
		n.leaderRepl.Store(leaderRepl)
	}
	if n.role.CompareAndSwap(int32(Leader), int32(Follower)) {
		// Deposed. Fence before waking semi-sync waiters so no write that
		// was in flight when the newer term appeared can still be acked.
		n.fenced.Store(true)
		n.store.Fence(t)
		n.c.fenceEvents.Add(1)
		n.electState.Store(stateFollowing)
		// Grant the winner one fresh lease to reach us before the election
		// loop considers standing again.
		n.lastHeard.Store(n.now().UnixNano())
		n.wakeAcks()
		n.log.Warn("fenced: observed newer term, stepping down",
			"new_term", t, "new_leader", leaderData)
		n.startFollowerLoop()
	} else if leaderRepl != "" && n.Role() == Follower {
		// A plain follower learning who won: grant the winner a fresh
		// lease, drop any pull connection still pointed at the old leader,
		// and make sure the loop is running to redial the new target.
		n.lastHeard.Store(n.now().UnixNano())
		n.severPull()
		n.startFollowerLoop()
	}
}

// Role returns the node's current role.
func (n *Node) Role() Role { return Role(n.role.Load()) }

// IsLeader reports whether the node currently takes writes.
func (n *Node) IsLeader() bool { return n.Role() == Leader }

// LeaderAddr returns the data address of the cluster's current leader as
// this node knows it ("" when a follower has not heard a heartbeat yet).
func (n *Node) LeaderAddr() string {
	a, _ := n.leaderAddr.Load().(string)
	return a
}

// appliedSeq is the newest sequence number reflected in this node's tree:
// the WAL's last seq on a leader, the apply loop's progress on a follower.
func (n *Node) appliedSeq() uint64 {
	if n.IsLeader() {
		return n.store.LastSeq()
	}
	return n.applied.Load()
}

// AckedSeq returns the newest sequence number any follower has
// acknowledged as applied (leader; 0 on a follower).
func (n *Node) AckedSeq() uint64 { return n.maxAck.Load() }

// lease is how long a follower tolerates silence before reporting the
// leader lost: five heartbeat intervals. A leader with peers also probes
// them once per lease.
func (n *Node) lease() time.Duration { return 5 * n.cfg.Heartbeat }

// leaseLeft is how much of a follower's heartbeat lease is left at now.
// It goes negative only when silence strictly exceeds the lease, so a
// heartbeat landing exactly at the deadline still counts.
func (n *Node) leaseLeft(now time.Time) time.Duration {
	return n.lease() - now.Sub(time.Unix(0, n.lastHeard.Load()))
}

// leaseExpired reports whether a follower has gone a full lease without
// hearing from its leader. Always false on a leader.
func (n *Node) leaseExpired() bool {
	return !n.IsLeader() && n.leaseLeft(n.now()) < 0
}

// Fenced reports whether this node was deposed by a newer leader term.
// Sticky until the node is promoted again: clients that still aim writes
// here get StatusFenced (with the new leader's address once known) rather
// than a plain not-leader, so they know to drop their cached leader.
func (n *Node) Fenced() bool { return n.fenced.Load() }

// ReplAddr returns the bound replication listener address ("" when the
// node has no listener). Useful with ListenRepl ":0".
func (n *Node) ReplAddr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Status is a node's replication state as one value: who leads, how far
// this node has applied, and (on a leader) how far followers have
// acknowledged — the operator's promote/don't-promote dashboard. The
// admin /healthz document serves it as its "cluster" object and
// MetricsHook's repl_* gauges read it, so the two cannot disagree. The
// two staleness fields quantify a follower's distance from its leader:
// AppliedLag is how many records the leader has assigned that this node
// has yet to apply, and LeaseRemainingMS is how much heartbeat lease is
// left before it would declare the leader lost.
type Status struct {
	Role       string `json:"role"` // "leader" or "follower"
	Term       uint64 `json:"term"`
	LeaderAddr string `json:"leader_addr"`
	// AppliedSeq is the newest sequence reflected in this node's tree.
	AppliedSeq uint64 `json:"applied_seq"`
	// AckedSeq is the newest sequence a follower has acknowledged
	// (leader; 0 on a follower).
	AckedSeq uint64 `json:"acked_seq"`
	// AppliedLag is the leader's newest sequence, as its last frame batch
	// stamped it, less AppliedSeq, floored at 0: a follower can be ahead
	// of a newly promoted leader. Always 0 on a leader.
	AppliedLag uint64 `json:"applied_lag"`
	// LeaseRemainingMS is 0 once a follower's lease has expired; a leader
	// reports its full lease, it cannot lose itself.
	LeaseRemainingMS int64 `json:"lease_remaining_ms"`
	// Followers is the number of connected replication subscribers.
	Followers    int  `json:"followers"`
	LeaseExpired bool `json:"lease_expired"`
	// ElectionState is the failover state machine's position: "following",
	// "candidate", "holding_off", "promoted" (won an automatic election),
	// or "leading" (bootstrap/operator-promoted leader).
	ElectionState string `json:"election_state,omitempty"`
	// HoldOffRemainingMS is how long this candidate still defers to
	// higher-ranked peers before self-promoting (0 when not holding off).
	HoldOffRemainingMS int64 `json:"holdoff_remaining_ms"`
	// Fenced marks a deposed leader that has not re-promoted: its
	// mutations answer StatusFenced until it rejoins or wins a new term.
	Fenced bool `json:"fenced"`
}

// Status reads the node's replication state, with one reading of its role
// and of its clock.
func (n *Node) Status() Status {
	now, role := n.now(), n.Role()
	n.subMu.Lock()
	followers := len(n.subs)
	n.subMu.Unlock()
	st := Status{
		Role:          role.String(),
		Term:          n.term.Load(),
		LeaderAddr:    n.LeaderAddr(),
		AckedSeq:      n.maxAck.Load(),
		Followers:     followers,
		ElectionState: "following",
		Fenced:        n.fenced.Load(),
	}
	elect := n.electState.Load()
	if role == Leader {
		st.AppliedSeq = n.store.LastSeq()
		st.LeaseRemainingMS = n.lease().Milliseconds()
		st.ElectionState = "leading"
		if elect == statePromoted {
			st.ElectionState = "promoted"
		}
	} else {
		st.AppliedSeq = n.applied.Load()
		if commit := n.leaderCommit.Load(); commit > st.AppliedSeq {
			st.AppliedLag = commit - st.AppliedSeq
		}
		left := n.leaseLeft(now)
		st.LeaseExpired = left < 0
		st.LeaseRemainingMS = max(left, 0).Milliseconds()
		switch elect {
		case stateCandidate:
			st.ElectionState = "candidate"
		case stateHoldingOff:
			st.ElectionState = "holding_off"
		}
	}
	if ns := n.holdOffUntil.Load(); ns != 0 {
		st.HoldOffRemainingMS = max(time.Unix(0, ns).Sub(now), 0).Milliseconds()
	}
	return st
}

// wakeApplied re-arms the applied-seq notification channel.
func (n *Node) wakeApplied() {
	n.notifyMu.Lock()
	close(n.notifyCh)
	n.notifyCh = make(chan struct{})
	n.notifyMu.Unlock()
}

func (n *Node) appliedWake() <-chan struct{} {
	n.notifyMu.Lock()
	defer n.notifyMu.Unlock()
	return n.notifyCh
}

// noteAck folds a follower ack into the leader's watermark and wakes
// semi-sync waiters. The acker's term is the fencing check: an ack from a
// newer term is proof this leader was deposed — it fences the node instead
// of advancing the watermark — and an ack from an older term is not
// counted either (the subscriber predates our promotion; it re-acks with
// the right term within a heartbeat). Term 0 is a bootstrap follower that
// has not heard any term yet, and is counted.
func (n *Node) noteAck(applied, term uint64) {
	n.c.acksReceived.Add(1)
	if our := n.term.Load(); term != 0 && term != our {
		n.c.staleAcks.Add(1)
		if term > our {
			n.observeTerm(term, "", "")
		}
		return
	}
	for {
		old := n.maxAck.Load()
		if applied <= old {
			return
		}
		if n.maxAck.CompareAndSwap(old, applied) {
			break
		}
	}
	n.wakeAcks()
}

// wakeAcks re-arms the semi-sync ack notification channel.
func (n *Node) wakeAcks() {
	n.ackMu.Lock()
	close(n.ackCh)
	n.ackCh = make(chan struct{})
	n.ackMu.Unlock()
}

func (n *Node) ackWake() <-chan struct{} {
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	return n.ackCh
}

// WaitApplied blocks until this node's applied sequence reaches seq or
// ctx is done — the read-your-writes wait behind OpLookupAt: a client
// that saw seq acked can demand a follower read reflect it.
func (n *Node) WaitApplied(ctx context.Context, seq uint64) error {
	for {
		if n.appliedSeq() >= seq {
			return nil
		}
		wake := n.appliedWake()
		// Re-check after arming: the apply may have landed between the
		// load and the channel fetch.
		if n.appliedSeq() >= seq {
			return nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		case <-n.quit:
			return errors.New("repl: node closed")
		}
	}
}

// WaitReplicated blocks until a follower has acknowledged seq, the
// semi-sync gate for write acknowledgements. It returns immediately when
// the node is not a semi-sync leader; ErrAckTimeout when AckTimeout
// passes first (the caller should answer with a retryable status, not an
// ack); ctx errors pass through.
func (n *Node) WaitReplicated(ctx context.Context, seq uint64) error {
	if !n.cfg.RequireAck || seq == 0 {
		return nil
	}
	// The fence check must precede the role shortcut: a leader deposed
	// with this write in flight is a follower now, and returning nil here
	// would acknowledge a write the new leader's history may not contain.
	if n.fenced.Load() {
		return durable.ErrFenced
	}
	if !n.IsLeader() {
		return nil
	}
	t := time.NewTimer(n.cfg.AckTimeout)
	defer t.Stop()
	for {
		if n.fenced.Load() {
			return durable.ErrFenced
		}
		if n.maxAck.Load() >= seq {
			return nil
		}
		wake := n.ackWake()
		if n.maxAck.Load() >= seq {
			return nil
		}
		select {
		case <-wake:
		case <-t.C:
			n.c.ackTimeouts.Add(1)
			return ErrAckTimeout
		case <-ctx.Done():
			return ctx.Err()
		case <-n.quit:
			return errors.New("repl: node closed")
		}
	}
}

// Promote turns a follower into the leader: the pull loop stops, the term
// increments, and the node starts answering as leader (its replication
// listener, if any, keeps serving subscribers — now with the new term).
// Operator-driven; the caller is the admin endpoint. Automatic elections
// go through the same transition via promote(true).
func (n *Node) Promote() (term uint64, err error) {
	return n.promote(false)
}

func (n *Node) promote(auto bool) (term uint64, err error) {
	if n.closed.Load() {
		return 0, errors.New("repl: node closed")
	}
	if !n.role.CompareAndSwap(int32(Follower), int32(Leader)) {
		return n.term.Load(), ErrNotFollower
	}
	// Sever the pull connection; the follower loop observes the role flip
	// and exits instead of redialing.
	n.severPull()
	term = n.term.Add(1)
	// Taking leadership lifts any fence from an earlier deposition: this
	// node's writes are the history of the new term.
	n.fenced.Store(false)
	n.store.Unfence()
	n.leaderAddr.Store(n.cfg.Advertise)
	n.c.promotions.Add(1)
	if auto {
		n.electState.Store(statePromoted)
	} else {
		n.electState.Store(stateFollowing)
	}
	n.holdOffUntil.Store(0)
	// Catch the applied watermark up to the local log so reads gated on
	// WaitApplied never regress across the role change.
	n.applied.Store(n.store.LastSeq())
	n.wakeApplied()
	n.log.Info("promoted to leader", "applied_seq", n.store.LastSeq(), "auto", auto)
	return term, nil
}

// severPull closes the follower pull connection (if any), forcing the pull
// loop to redial — or exit, when the role changed.
func (n *Node) severPull() {
	n.followerConn.Lock()
	if c := n.followerConn.c; c != nil {
		c.Close()
	}
	n.followerConn.Unlock()
}

// Close stops the listener, the follower loop, and every subscriber
// stream. The store is not closed — its lifecycle belongs to the caller.
func (n *Node) Close() error {
	n.loopMu.Lock()
	already := n.closed.Swap(true)
	n.loopMu.Unlock()
	if already {
		return nil
	}
	close(n.quit)
	n.store.SetWALTap(nil)
	if n.ln != nil {
		n.ln.Close()
	}
	n.followerConn.Lock()
	if c := n.followerConn.c; c != nil {
		c.Close()
	}
	n.followerConn.Unlock()
	n.subMu.Lock()
	for s := range n.subs {
		s.conn.Close()
	}
	n.subMu.Unlock()
	n.wg.Wait()
	return nil
}

// electionGauge is repl_election_state's value for each
// Status.ElectionState; "following" and "leading" read 0.
var electionGauge = map[string]float64{"candidate": 1, "holding_off": 2, "promoted": 3}

// MetricsHook folds the node's replication telemetry into a registry
// snapshot (register with reg.AddHook(node.MetricsHook)). Series follow
// the repl_* naming convention alongside the wal_*/snapshot_* families;
// every gauge reads one Status.
func (n *Node) MetricsHook(s *metrics.Snapshot) {
	st := n.Status()
	leader := st.Role == Leader.String()
	s.Gauges["repl_is_leader"] = boolGauge(leader)
	s.Gauges["repl_term"] = float64(st.Term)
	s.Gauges["repl_applied_seq"] = float64(st.AppliedSeq)
	s.Gauges["repl_acked_seq"] = float64(st.AckedSeq)
	s.Gauges["repl_followers_connected"] = float64(st.Followers)
	// Lag: what a leader still has to ship (its log past the newest
	// follower ack), or what a follower still has to apply (AppliedLag).
	lag := st.AppliedLag
	if leader && st.Followers > 0 && st.AppliedSeq > st.AckedSeq {
		lag = st.AppliedSeq - st.AckedSeq
	}
	s.Gauges["repl_lag_records"] = float64(lag)
	s.Gauges["repl_lease_expired"] = boolGauge(st.LeaseExpired)
	s.Gauges["repl_lease_remaining_seconds"] = float64(st.LeaseRemainingMS) / 1e3
	s.Gauges["repl_fenced"] = boolGauge(st.Fenced)
	s.Gauges["repl_election_state"] = electionGauge[st.ElectionState]
	s.Gauges["repl_holdoff_remaining_seconds"] = float64(st.HoldOffRemainingMS) / 1e3
	c := &n.c
	s.External["repl_records_sent_total"] += c.recordsSent.Load()
	s.External["repl_batches_sent_total"] += c.batchesSent.Load()
	s.External["repl_heartbeats_sent_total"] += c.heartbeatsSent.Load()
	s.External["repl_records_applied_total"] += c.recordsApplied.Load()
	s.External["repl_acks_sent_total"] += c.acksSent.Load()
	s.External["repl_acks_received_total"] += c.acksReceived.Load()
	s.External["repl_snapshots_shipped_total"] += c.snapshotsShipped.Load()
	s.External["repl_snapshot_keys_shipped_total"] += c.snapshotKeysShipped.Load()
	s.External["repl_snapshot_loads_total"] += c.snapshotLoads.Load()
	s.External["repl_resyncs_total"] += c.resyncs.Load()
	s.External["repl_reconnects_total"] += c.reconnects.Load()
	s.External["repl_ack_timeouts_total"] += c.ackTimeouts.Load()
	s.External["repl_promotions_total"] += c.promotions.Load()
	s.External["repl_elections_total"] += c.elections.Load()
	s.External["repl_fence_events_total"] += c.fenceEvents.Load()
	s.External["repl_fenced_frames_total"] += c.fencedFrames.Load()
	s.External["repl_stale_acks_total"] += c.staleAcks.Load()
}

// send writes m as one frame to w, flushing w when it is buffered, so
// every replication frame leaves whole and at once.
func send(w io.Writer, m *wire.Repl) error {
	bp := wire.GetBuf()
	*bp = wire.AppendRepl((*bp)[:0], m)
	err := wire.WriteFrame(w, *bp)
	wire.PutBuf(bp)
	if bw, ok := w.(*bufio.Writer); ok && err == nil {
		err = bw.Flush()
	}
	return err
}

// decode decodes one received frame into m and refuses every kind but
// the ones its receive site takes.
func decode(frame []byte, m *wire.Repl, kinds ...uint8) error {
	if err := wire.DecodeRepl(frame, m); err != nil {
		return err
	}
	if !slices.Contains(kinds, m.Kind) {
		return fmt.Errorf("repl: unexpected frame kind %d", m.Kind)
	}
	return nil
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
