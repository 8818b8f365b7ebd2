// Package server exposes a bst.Tree over a TCP binary protocol
// (internal/wire) behind a production robustness stack:
//
//   - admission control: a bounded in-flight semaphore; requests beyond
//     the cap are shed with wire.StatusOverloaded *before* touching the
//     tree, so an overloaded server stays responsive instead of queueing
//     without bound;
//   - deadlines: every request carries a time budget (or inherits the
//     server default), checked against the clock between units of work;
//     expired requests answer wire.StatusDeadlineExceeded rather than
//     consuming tree time;
//   - fail-soft tree errors: bst.ErrCapacity and bst.ErrKeyOutOfRange map
//     to distinct wire statuses, so clients can apply distinct retry
//     policies (wait-for-deletes vs give-up);
//   - panic isolation: a panic while serving a request is confined to its
//     connection — the client gets wire.StatusInternal, the connection is
//     poisoned and closed, every other connection keeps serving;
//   - slow-loris defense: a per-frame read deadline; a peer that dribbles
//     bytes or goes silent mid-frame is disconnected;
//   - graceful drain: Shutdown stops accepting, lets every in-flight
//     request finish and get its response, closes per-connection
//     accessors (folding their stats/metrics), and leaves the tree ready
//     for Tree.Close — nothing acknowledged is ever dropped.
//
// One goroutine serves each connection, owning a private bst.Accessor —
// the paper's per-thread handle discipline carried over the network
// boundary: requests on one connection execute in order on one handle, so
// the single-goroutine contract holds with zero locking on the hot path.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	bst "repro"
	"repro/internal/durable"
	"repro/internal/failpoint"
	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/rtrace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Failpoint site names understood by servers built with Config.Failpoints.
const (
	// FPHandle fires after admission (the semaphore slot is held) and
	// before the request executes. A stall here freezes one in-flight
	// request, which is how tests make shedding and drain deterministic.
	FPHandle = "server-handle"
	// FPPanic fires at the same point; a triggered hit panics, exercising
	// the per-connection isolation path.
	FPPanic = "server-panic"
)

// Store is the data plane a Server fronts: per-connection accessors for
// point and batch operations, the epoch-pinned concurrent scan for range
// queries, and the health report the admin endpoints serve. *bst.Tree
// satisfies it directly (the in-memory server), and durable.Tree satisfies
// it with write-ahead logging layered under every mutation — the server
// code cannot tell the difference, which is the point: durability is a
// deployment choice, not a protocol change.
type Store interface {
	NewAccessor() bst.Accessor
	Scan(from, to int64, yield func(key int64) bool)
	Health() bst.Health
}

// Cluster is the replication control plane a server consults when it is
// part of a WAL-shipping cluster (repl.Node implements it). All methods
// must be safe for concurrent use. A nil Config.Cluster means standalone
// serving — every check compiles down to one nil test.
type Cluster interface {
	// IsLeader reports whether this node currently takes writes.
	IsLeader() bool
	// LeaderAddr is the data address of the cluster's leader as this node
	// knows it ("" when unknown); carried in StatusNotLeader redirects.
	LeaderAddr() string
	// Term is the current promotion term (diagnostics).
	Term() uint64
	// AppliedSeq is the newest WAL sequence reflected in this node's tree.
	AppliedSeq() uint64
	// AckedSeq is the newest sequence a follower has acknowledged
	// (leader; 0 on followers).
	AckedSeq() uint64
	// WaitApplied blocks until AppliedSeq reaches seq or ctx is done —
	// the read-your-writes gate behind OpLookupAt.
	WaitApplied(ctx context.Context, seq uint64) error
	// WaitReplicated blocks until a follower ack covers seq (semi-sync
	// leaders; immediate nil otherwise). An error means the write must
	// not be acknowledged yet — the server answers retryably instead.
	WaitReplicated(ctx context.Context, seq uint64) error
	// LeaseExpired reports a follower that has lost contact with its
	// leader (health/readiness surface).
	LeaseExpired() bool
	// LeaseRemaining is how much of the follower's heartbeat lease is
	// left before it considers the leader lost (0 when expired; a
	// leader reports its full lease, it never expires on itself).
	LeaseRemaining() time.Duration
	// LeaderCommit is the newest WAL sequence this node has heard the
	// leader commit — on a follower, AppliedSeq lagging this is
	// replication staleness; on the leader it equals its own last seq.
	LeaderCommit() uint64
	// Followers is the number of connected replication subscribers.
	Followers() int
	// Fenced reports a node deposed by a newer leader term that has not
	// re-promoted since: its writes answer StatusFenced.
	Fenced() bool
	// NoteFenced counts one request the server refused with StatusFenced,
	// so the cluster's metrics count them beside its own fence events.
	NoteFenced()
	// Promote makes this node the leader of a new term (the /promote
	// admin endpoint); an error reports why it cannot, with the current
	// term.
	Promote() (term uint64, err error)
	// ElectionState names the failover state machine's position:
	// "following", "candidate", "holding_off", "promoted" or "leading".
	ElectionState() string
	// HoldOffDeadline is when a holding-off candidate stops deferring to
	// higher-ranked peers (zero when no hold-off is pending).
	HoldOffDeadline() time.Time
}

// noteFenced counts one request refused for being fenced, in the server's
// own counters and the cluster's. A fenced standalone durable store
// reaches it too (through statusOf), with no cluster to tell.
func (s *Server) noteFenced() {
	s.stats.fenced.Add(1)
	if cl := s.cfg.Cluster; cl != nil {
		cl.NoteFenced()
	}
}

// Config tunes a Server. Store is required; everything else has serving
// defaults.
type Config struct {
	// Store is the data plane: a *bst.Tree serves the in-memory set, a
	// durable.Tree the logged one. The server creates one Accessor per
	// connection and Closes it when the connection ends.
	Store Store
	// MaxInFlight bounds concurrently executing requests across all
	// connections; excess requests are shed with StatusOverloaded at
	// once — under overload the cheapest thing a server can do is say no
	// quickly. Default 256.
	MaxInFlight int
	// DefaultDeadline applies to requests that carry no deadline of their
	// own. Default 1s.
	DefaultDeadline time.Duration
	// ReadTimeout is the per-frame read deadline: the longest the server
	// waits for a request frame to start *and* finish arriving. Idle
	// connections beyond it are closed (clients reconnect transparently);
	// mid-frame it is the slow-loris guard. Default 60s.
	ReadTimeout time.Duration
	// Metrics, when non-nil, is the registry the admin endpoint serves;
	// the server adds its counters (shed, timeouts, drains, ...) to it as
	// external series on every snapshot. The server never reads the
	// store's own telemetry: the caller supplies the tree's series with a
	// hook of its own (bstserve folds Tree.Metrics in), or they read 0.
	// When nil a private registry is created for the admin endpoint.
	Metrics *metrics.Registry
	// Cluster, when non-nil, makes the server role-aware: mutations on a
	// follower answer StatusNotLeader with the leader's address, lookups
	// can carry read-your-writes sequence floors (OpLookupAt), and write
	// acknowledgements respect the cluster's semi-sync gate.
	Cluster Cluster
	// Failpoints wires the FP* sites for fault-injection tests. Leave nil
	// in production.
	Failpoints *failpoint.Set
	// Trace, when non-nil, is the flight recorder: each connection gets an
	// rtrace.Conn, requests arriving with a sampled wire context (or
	// self-sampled per the recorder's rate) record a span tree covering
	// the tree operation, the group-commit WAL wait and the semi-sync
	// replication wait, and slow requests land in the recorder's
	// slow-op log. Nil costs one pointer check per request.
	Trace *rtrace.Recorder
	// Logger, when non-nil, receives one structured record per notable
	// event (accept errors, panics, drain). Records emitted inside a
	// request path carry the connection ID and, when the request is
	// sampled, its trace ID. Nil means silent.
	Logger *slog.Logger
}

// rangeLimit caps the keys in one range response, and is the limit of a
// request that asks for 0: a response always fits in wire.MaxFrame, and
// one scan pins a reclamation epoch for at most this many keys. Clients
// page through longer ranges from the last key returned.
const rangeLimit = 1024

// Counters is a point-in-time snapshot of the server's serving statistics.
// Monotonic fields count since server creation; InFlight and OpenConns are
// instantaneous gauges.
type Counters struct {
	ConnsAccepted uint64 // connections accepted
	ConnsClosed   uint64 // connections fully torn down
	Requests      uint64 // requests admitted and executed (any status)
	BatchOps      uint64 // operations carried inside admitted batch frames
	Shed          uint64 // requests rejected with StatusOverloaded
	DrainRejected uint64 // requests rejected with StatusDraining
	Timeouts      uint64 // requests answered StatusDeadlineExceeded
	CapacityErrs  uint64 // requests answered StatusCapacity
	OutOfRange    uint64 // requests answered StatusKeyOutOfRange
	BadRequests   uint64 // malformed frames / unknown ops
	Panics        uint64 // requests answered StatusInternal (recovered panics)
	SlowReads     uint64 // connections dropped mid-frame by the read deadline
	Drains        uint64 // Shutdown calls that completed
	NotLeader     uint64 // writes redirected with StatusNotLeader (follower role)
	Fenced        uint64 // writes refused with StatusFenced (deposed leader)
	ReplLag       uint64 // OpLookupAt requests answered StatusReplLag
	ReplDegraded  uint64 // response windows degraded by a semi-sync ack timeout
	Aggregates    uint64 // OpAggregate requests admitted and executed
	NoIndex       uint64 // OpAggregate requests answered StatusNoIndex
	InFlight      int64  // requests currently holding an admission slot
	OpenConns     int64  // currently open connections
	Draining      bool
}

type counters struct {
	connsAccepted atomic.Uint64
	connsClosed   atomic.Uint64
	requests      atomic.Uint64
	batchOps      atomic.Uint64
	shed          atomic.Uint64
	drainRejected atomic.Uint64
	timeouts      atomic.Uint64
	capacityErrs  atomic.Uint64
	outOfRange    atomic.Uint64
	badRequests   atomic.Uint64
	panics        atomic.Uint64
	slowReads     atomic.Uint64
	drains        atomic.Uint64
	notLeader     atomic.Uint64
	fenced        atomic.Uint64
	replLag       atomic.Uint64
	replDegraded  atomic.Uint64
	aggregates    atomic.Uint64
	noIndex       atomic.Uint64
	openConns     atomic.Int64
}

// Server is a TCP front end for one bst.Tree. Create with New, start with
// Start or Serve, stop with Shutdown (graceful) or Close (abrupt).
type Server struct {
	cfg Config
	sem chan struct{} // admission semaphore: one token per in-flight request
	reg *metrics.Registry
	log *slog.Logger

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	closed   atomic.Bool

	connWG  sync.WaitGroup // one per live connection goroutine
	serveWG sync.WaitGroup // the accept loop

	stats counters
}

// New creates a server for the configured store. The server does not listen until
// Start or Serve is called.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("server: Config.Store is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 60 * time.Second
	}
	s := &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxInFlight),
		conns: make(map[net.Conn]struct{}),
		reg:   cfg.Metrics,
		log:   cfg.Logger,
	}
	if s.log == nil {
		s.log = logx.Discard()
	}
	if s.reg == nil {
		s.reg = metrics.NewRegistry(0)
	}
	// Serving counters ride the metrics snapshot as external series, so
	// the Prometheus endpoint exports tree and server health together.
	s.reg.AddHook(func(sn *metrics.Snapshot) {
		c := s.Counters()
		sn.External["server_conns_accepted_total"] += c.ConnsAccepted
		sn.External["server_conns_closed_total"] += c.ConnsClosed
		sn.External["server_requests_total"] += c.Requests
		sn.External["server_batch_ops_total"] += c.BatchOps
		sn.External["server_shed_total"] += c.Shed
		sn.External["server_drain_rejected_total"] += c.DrainRejected
		sn.External["server_deadline_timeouts_total"] += c.Timeouts
		sn.External["server_capacity_errors_total"] += c.CapacityErrs
		sn.External["server_out_of_range_total"] += c.OutOfRange
		sn.External["server_bad_requests_total"] += c.BadRequests
		sn.External["server_panics_total"] += c.Panics
		sn.External["server_slow_reads_total"] += c.SlowReads
		sn.External["server_drains_total"] += c.Drains
		sn.External["server_not_leader_total"] += c.NotLeader
		sn.External["server_fenced_total"] += c.Fenced
		sn.External["server_repl_lag_total"] += c.ReplLag
		sn.External["server_repl_degraded_total"] += c.ReplDegraded
		sn.External["server_aggregates_total"] += c.Aggregates
		sn.External["server_no_index_total"] += c.NoIndex
		sn.Gauges["server_inflight_requests"] = float64(c.InFlight)
		sn.Gauges["server_open_conns"] = float64(c.OpenConns)
		if c.Draining {
			sn.Gauges["server_draining"] = 1
		} else {
			sn.Gauges["server_draining"] = 0
		}
	})
	return s
}

// Counters returns a snapshot of the serving statistics.
func (s *Server) Counters() Counters {
	return Counters{
		ConnsAccepted: s.stats.connsAccepted.Load(),
		ConnsClosed:   s.stats.connsClosed.Load(),
		Requests:      s.stats.requests.Load(),
		BatchOps:      s.stats.batchOps.Load(),
		Shed:          s.stats.shed.Load(),
		DrainRejected: s.stats.drainRejected.Load(),
		Timeouts:      s.stats.timeouts.Load(),
		CapacityErrs:  s.stats.capacityErrs.Load(),
		OutOfRange:    s.stats.outOfRange.Load(),
		BadRequests:   s.stats.badRequests.Load(),
		Panics:        s.stats.panics.Load(),
		SlowReads:     s.stats.slowReads.Load(),
		Drains:        s.stats.drains.Load(),
		NotLeader:     s.stats.notLeader.Load(),
		Fenced:        s.stats.fenced.Load(),
		ReplLag:       s.stats.replLag.Load(),
		ReplDegraded:  s.stats.replDegraded.Load(),
		Aggregates:    s.stats.aggregates.Load(),
		NoIndex:       s.stats.noIndex.Load(),
		InFlight:      int64(len(s.sem)),
		OpenConns:     s.stats.openConns.Load(),
		Draining:      s.draining.Load(),
	}
}

// Start listens on addr and serves in a background goroutine. Use Addr to
// recover the bound address (handy with ":0").
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln // visible to Addr before the accept goroutine runs
	s.mu.Unlock()
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		s.Serve(ln)
	}()
	return nil
}

// Addr returns the listener address, or nil before Start/Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until the listener is closed (by
// Shutdown or Close). It returns nil on a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || s.closed.Load() {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		if s.draining.Load() || s.closed.Load() {
			c.Close() // raced the drain; never acknowledged, safe to drop
			continue
		}
		s.stats.connsAccepted.Add(1)
		s.stats.openConns.Add(1)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

// forgetConn unregisters and closes a connection.
func (s *Server) forgetConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
	s.stats.openConns.Add(-1)
	s.stats.connsClosed.Add(1)
}

// call is one request's trip through the server: the decoded frame, its
// deadline, the reply its execute step wrote, and the batch buffers. Each
// connection reuses one, bound to the connection's accessor, so the
// steady-state path decodes, executes and encodes without allocating.
type call struct {
	acc bst.Accessor   // the connection's accessor
	ta  ticketAccessor // acc's ticket methods; nil when it has none

	req      wire.Request // the decoded frame; its Ops capacity is reused
	arg      int64        // trace argument: the key, or a batch's op count
	mutates  bool         // a write: only a leader takes it
	deadline time.Time    // arrival plus the request's budget

	resp   wire.Response // the reply; its Results capacity is reused
	ticket wal.Ticket    // a single-op mutation's WAL record, waited on per window
	seq    uint64        // WAL horizon the semi-sync gate must cover (0: none)
	lost   error         // a batch's WAL failure: no response may be sent

	keys []int64 // one same-kind run of a batch
	res  []bst.OpResult
}

// expired reports whether the request's budget is spent.
func (x *call) expired() bool { return !time.Now().Before(x.deadline) }

// ticketAccessor is the asynchronous-durability surface of a store's
// accessor (durable.Tree's accessors implement it): mutations apply and
// enqueue their WAL record but return a ticket instead of waiting for the
// fsync, letting the connection batch one durability wait over a whole
// window of pipelined operations.
type ticketAccessor interface {
	TryInsertTicket(key int64) (bool, wal.Ticket, error)
	DeleteTicket(key int64) (bool, wal.Ticket, error)
}

// maxWindow bounds how many responses a connection defers before forcing
// a flush, so a relentless pipeline still sees bounded ack latency.
const maxWindow = 256

// pendingResp is one deferred response: the encoded payload, the op it
// answers and the WAL sequence it would acknowledge (0 for reads and
// failed ops).
type pendingResp struct {
	payload []byte
	op      uint8
	seq     uint64
}

// handleConn serves one connection: a private accessor, a read loop with a
// per-frame deadline, one response per request. Reads and writes both go
// through bufio, and responses are *windowed*: each response is staged
// with the WAL ticket of the mutation it acknowledges, and the window is
// flushed when the read buffer has no complete next request (the moment
// the client is actually waiting), when it reaches maxWindow, or on
// poisoning. One flush waits once on the window's last WAL ticket — group
// commits fsync in sequence order, so the last record durable implies
// every earlier one is — and once on the cluster's semi-sync gate, so a
// pipelined burst of n mutations pays one fsync wait and one replication
// wait instead of n of each. Returning closes the connection and folds
// the accessor's state back into the tree.
func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	defer s.forgetConn(c)
	acc := s.cfg.Store.NewAccessor()
	defer acc.Close()
	tr := s.cfg.Trace.NewConn() // nil Conn (a no-op) when tracing is off
	defer tr.Close()

	br := bufio.NewReaderSize(c, 32<<10)
	bw := bufio.NewWriterSize(c, 32<<10)
	defer bw.Flush()
	x := call{acc: acc}
	x.ta, _ = acc.(ticketAccessor)
	var scratch []byte
	out := wire.GetBuf()
	defer wire.PutBuf(out)

	var (
		win     []pendingResp
		nwin    int
		tickets wal.TicketSet
		maxSeq  uint64
	)
	stage := func(payload []byte, op uint8, t wal.Ticket, seq uint64) {
		if nwin < len(win) {
			win[nwin].payload = append(win[nwin].payload[:0], payload...)
			win[nwin].op, win[nwin].seq = op, seq
		} else {
			win = append(win, pendingResp{payload: append([]byte(nil), payload...), op: op, seq: seq})
		}
		nwin++
		// One ticket per WAL lane: a sharded store routes each mutation to
		// its key's lane, and waiting on one lane's newest ticket says
		// nothing about a sibling lane — the set keeps the newest per lane.
		tickets.Add(t)
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	flushWin := func() bool {
		if nwin == 0 {
			return true
		}
		// The window's durability and replication waits are attributed to
		// the sampled request currently tracked (under pipelining, the last
		// sampled request staged into this window — see rtrace.Conn).
		defer tr.EndRequest()
		if !tickets.Empty() {
			walStart := time.Now()
			if err := tickets.Wait(); err != nil {
				// Durability unknown for the window's mutations: acknowledge
				// nothing and sever the connection — a dropped response is a
				// retryable transport error to the client, never a false ack.
				s.log.Error("wal wait failed; severing connection", "conn", tr.ID(), "err", err)
				nwin = 0
				return false
			}
			tr.Span(rtrace.KWALWait, walStart, int64(maxSeq))
		}
		if cl := s.cfg.Cluster; cl != nil && maxSeq > 0 {
			replStart := time.Now()
			if err := cl.WaitReplicated(context.Background(), maxSeq); err != nil {
				// Semi-sync degraded: rewrite every response whose sequence
				// is not yet covered by a follower ack to StatusOverloaded
				// (retryable — the op is applied and locally durable, but
				// the cluster's ack contract isn't met). Covered responses
				// ship unchanged. A fence mid-window is stronger: the node
				// was deposed with these writes in flight, and acking them
				// would claim a durability the new leader's history may not
				// have — answer StatusFenced with a redirect instead.
				st, leader := wire.StatusOverloaded, ""
				if errors.Is(err, durable.ErrFenced) {
					st, leader = wire.StatusFenced, cl.LeaderAddr()
					s.noteFenced()
				} else {
					s.stats.replDegraded.Add(1)
				}
				acked := cl.AckedSeq()
				for i := 0; i < nwin; i++ {
					if win[i].seq > acked {
						id := binary.BigEndian.Uint64(win[i].payload[:8])
						win[i].payload = wire.AppendResponse(win[i].payload[:0], win[i].op,
							&wire.Response{ID: id, Status: st, Leader: leader})
					}
				}
			}
			tr.Span(rtrace.KReplWait, replStart, int64(maxSeq))
		}
		c.SetWriteDeadline(time.Now().Add(s.cfg.ReadTimeout))
		for i := 0; i < nwin; i++ {
			if wire.WriteFrame(bw, win[i].payload) != nil {
				nwin = 0
				return false
			}
		}
		nwin, maxSeq = 0, 0
		tickets.Reset()
		return bw.Flush() == nil
	}
	// Registered after bw.Flush's defer, so it runs first (LIFO): a drain
	// interrupt mid-burst still flushes every staged response.
	defer flushWin()

	for {
		if s.draining.Load() || s.closed.Load() {
			return
		}
		c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		frame, newScratch, err := wire.ReadFrame(br, scratch)
		scratch = newScratch
		if err != nil {
			// Timeouts while draining are the drain interrupt; timeouts
			// mid-frame otherwise are a dribbling (or dead) peer.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !s.draining.Load() {
				s.stats.slowReads.Add(1)
			}
			if errors.Is(err, wire.ErrFrameTooBig) {
				s.stats.badRequests.Add(1)
			}
			return
		}
		err = wire.DecodeRequest(frame, &x.req)
		if errors.Is(err, wire.ErrShortHeader) {
			// Cut inside the header or its trace extension: answer and
			// hang up, as nothing after it can be trusted.
			s.stats.badRequests.Add(1)
			if !flushWin() {
				return
			}
			*out = wire.AppendResponse((*out)[:0], x.req.Op, &wire.Response{ID: x.req.ID, Status: wire.StatusBadRequest})
			c.SetWriteDeadline(time.Now().Add(s.cfg.ReadTimeout))
			if wire.WriteFrame(bw, *out) == nil {
				bw.Flush()
			}
			return
		}
		poisoned := s.serve(&x, err, tr)
		if x.lost != nil {
			// A batch changed the tree but its WAL records failed: the same
			// rule as a failed window wait — acknowledge nothing, sever.
			s.log.Error("wal write failed; severing connection", "conn", tr.ID(), "err", x.lost)
			nwin = 0
			return
		}
		if st := x.resp.Status; (st == wire.StatusNotLeader || st == wire.StatusFenced) && s.cfg.Cluster != nil {
			x.resp.Leader = s.cfg.Cluster.LeaderAddr()
		}
		*out = wire.AppendResponse((*out)[:0], x.req.Op, &x.resp)
		stage(*out, x.req.Op, x.ticket, x.seq)
		// Flush only when no next request is already buffered: that is
		// the moment the client is actually waiting on us.
		if br.Buffered() == 0 || poisoned || nwin >= maxWindow {
			if !flushWin() || poisoned {
				return
			}
		}
	}
}

// serve runs one decoded request through the steps every frame kind
// shares, in one order: refuse a malformed tail (decodeErr: StatusBadRequest,
// and the connection survives, since the frame boundary held), open the
// trace, refuse while draining, gate writes by role, take an admission slot
// or shed, guard the slot against panics, count the request, hit the
// failpoints, set the deadline, refuse a request whose budget is already
// spent, and execute. The reply lands in x.resp. poisoned reports a
// recovered panic: the response is StatusInternal and the connection must
// close.
func (s *Server) serve(x *call, decodeErr error, tr *rtrace.Conn) (poisoned bool) {
	start := time.Now()
	x.resp = wire.Response{ID: x.req.ID, Results: x.resp.Results[:0]}
	x.ticket, x.seq, x.lost = wal.Ticket{}, 0, nil
	if decodeErr != nil {
		s.stats.badRequests.Add(1)
		x.resp.Status = wire.StatusBadRequest
		return false
	}
	x.arg, x.mutates = x.req.Key, x.req.Op == wire.OpInsert || x.req.Op == wire.OpDelete
	if x.req.Op == wire.OpBatch {
		x.arg = int64(len(x.req.Ops))
		for _, o := range x.req.Ops {
			x.mutates = x.mutates || o.Op != wire.OpLookup
		}
	}
	tr.StartRequest(x.req.Trace, x.req.Op, x.arg)
	if s.draining.Load() {
		s.stats.drainRejected.Add(1)
		x.resp.Status = wire.StatusDraining
		return false
	}
	// Role gate: a follower refuses writes with a redirect to the leader
	// instead of silently diverging from it; reads (lookups, lookup-only
	// batches, aggregates) are served from any role. A fenced node —
	// deposed by a newer term — answers StatusFenced instead of
	// StatusNotLeader so clients (and audits) can tell "never was the
	// leader" from "stop trusting this one"; handleConn adds the leader's
	// address to both.
	if cl := s.cfg.Cluster; cl != nil && x.mutates && !cl.IsLeader() {
		if cl.Fenced() {
			s.noteFenced()
			x.resp.Status = wire.StatusFenced
		} else {
			s.stats.notLeader.Add(1)
			x.resp.Status = wire.StatusNotLeader
		}
		return false
	}

	// Admission: take an in-flight token or shed at once; the server never
	// queues. One token per frame, so a batch multiplies useful work per
	// slot rather than competing for more.
	select {
	case s.sem <- struct{}{}:
	default:
		s.stats.shed.Add(1)
		x.resp.Status = wire.StatusOverloaded
		return false
	}
	defer func() {
		<-s.sem
		if p := recover(); p != nil {
			s.stats.panics.Add(1)
			s.log.Error("panic serving request", "op", wire.OpName(x.req.Op), "arg", x.arg,
				"conn", tr.ID(), "trace", tr.Context().TraceID, "panic", p)
			x.resp = wire.Response{ID: x.req.ID, Status: wire.StatusInternal, Results: x.resp.Results[:0]}
			x.ticket, x.seq = wal.Ticket{}, 0
			poisoned = true
		}
	}()
	s.stats.requests.Add(1)

	if fp := s.cfg.Failpoints; fp != nil {
		fp.Hit(FPHandle) // stall-style injection parks here, holding its slot
		if fp.Hit(FPPanic) {
			panic("failpoint " + FPPanic)
		}
	}

	// Deadline: the request's budget (or the server default), counted from
	// arrival. Execution compares the clock with it between units of work;
	// only a sequence-floor wait blocks on it (see reached).
	budget := s.cfg.DefaultDeadline
	if x.req.DeadlineMS > 0 {
		budget = time.Duration(x.req.DeadlineMS) * time.Millisecond
	}
	x.deadline = start.Add(budget)
	if x.expired() {
		x.resp.Status = s.statusOf(context.DeadlineExceeded)
		return false
	}

	opStart := time.Now()
	switch x.req.Op {
	case wire.OpBatch:
		s.executeBatch(x)
	case wire.OpAggregate:
		s.executeAggregate(x)
	default:
		s.execute(x)
	}
	tr.Span(rtrace.KTreeOp, opStart, x.arg)
	if x.seq != 0 {
		// Link the WAL sequence this request produced to its trace, so the
		// replication leader can stamp the shipped batch that covers it.
		s.cfg.Trace.NoteSampledSeq(x.seq, tr.Context())
	}
	return false
}

// errReplLag is execute's error for an OpLookupAt whose sequence floor the
// local tree did not reach within the request's deadline.
var errReplLag = errors.New("server: applied sequence below the request's floor")

// statusOf maps an execution error to its wire status and counts it: the
// one place the server turns errors into statuses.
func (s *Server) statusOf(err error) wire.Status {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, bst.ErrCapacity):
		s.stats.capacityErrs.Add(1)
		return wire.StatusCapacity
	case errors.Is(err, durable.ErrFenced):
		// Fenced between the role gate and the apply: the store's own gate
		// caught it. Redirect like the role gate does.
		s.noteFenced()
		return wire.StatusFenced
	case errors.Is(err, bst.ErrKeyOutOfRange), errors.Is(err, bst.ErrSelectOutOfRange):
		s.stats.outOfRange.Add(1)
		return wire.StatusKeyOutOfRange
	case errors.Is(err, bst.ErrNoOrderStats):
		s.stats.noIndex.Add(1)
		return wire.StatusNoIndex
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.timeouts.Add(1)
		return wire.StatusDeadlineExceeded
	case err == errReplLag:
		s.stats.replLag.Add(1)
		return wire.StatusReplLag
	default:
		s.stats.badRequests.Add(1)
		return wire.StatusBadRequest
	}
}

// executeBatch runs a batch's operations in program order, carving the
// batch into maximal same-kind runs so each run amortizes one shared tree
// descent through the accessor's batched operations. Every operation
// reports its own status. The deadline is checked between runs:
// operations past an expired budget answer StatusDeadlineExceeded without
// touching the tree (a run already started completes — point operations
// are not cancellable mid-CAS). The durability wait already happened
// inside the batched accessor; a slot whose WAL record failed sets x.lost
// and ends the batch, since its response must never be sent. The semi-sync
// replication wait is the response window's, so x.seq is the WAL horizon
// the batch reached.
func (s *Server) executeBatch(x *call) {
	ops := x.req.Ops
	s.stats.batchOps.Add(uint64(len(ops)))
	results := x.resp.Results[:0]
	for range ops {
		results = append(results, wire.BatchResult{})
	}
	x.resp.Results = results

	i := 0
	for i < len(ops) {
		if x.expired() {
			s.stats.timeouts.Add(1)
			for k := i; k < len(ops); k++ {
				results[k] = wire.BatchResult{Status: wire.StatusDeadlineExceeded}
			}
			break
		}
		j := i + 1
		for j < len(ops) && ops[j].Op == ops[i].Op {
			j++
		}
		keys := x.keys[:0]
		for k := i; k < j; k++ {
			keys = append(keys, ops[k].Key)
		}
		x.keys = keys
		if cap(x.res) < j-i {
			x.res = make([]bst.OpResult, j-i)
		}
		res := x.res[:j-i]
		switch ops[i].Op {
		case wire.OpInsert:
			x.acc.InsertBatch(keys, res)
		case wire.OpDelete:
			x.acc.DeleteBatch(keys, res)
		case wire.OpLookup:
			x.acc.ContainsBatch(keys, res)
		}
		for k := i; k < j; k++ {
			r := res[k-i]
			if r.Err != nil && errors.Is(r.Err, durable.ErrNotDurable) {
				x.lost = r.Err
				return
			}
			results[k] = wire.BatchResult{Status: s.statusOf(r.Err), OK: r.OK && r.Err == nil}
		}
		i = j
	}
	if x.mutates && s.cfg.Cluster != nil {
		// Conservative horizon for the semi-sync gate: every record this
		// batch logged has seq at or below the store's current last.
		if ds, can := s.cfg.Store.(interface{ LastSeq() uint64 }); can {
			x.seq = ds.LastSeq()
		}
	}
}

// execute performs a single-op request. For mutations on a
// ticket-capable accessor the durability wait is deferred to the caller:
// x.ticket and x.seq let one window flush cover many operations.
func (s *Server) execute(x *call) {
	req := &x.req
	var err error
	switch req.Op {
	case wire.OpInsert:
		if x.ta != nil {
			x.resp.OK, x.ticket, err = x.ta.TryInsertTicket(req.Key)
		} else {
			x.resp.OK, err = x.acc.TryInsert(req.Key)
		}
	case wire.OpDelete:
		if !keyInRange(req.Key) {
			err = bst.ErrKeyOutOfRange
		} else if x.ta != nil {
			x.resp.OK, x.ticket, err = x.ta.DeleteTicket(req.Key)
		} else {
			x.resp.OK = x.acc.Delete(req.Key)
		}
	case wire.OpLookup, wire.OpLookupAt:
		// Read-your-writes: OpLookupAt names the last sequence acked to the
		// client, waits (bounded by the deadline) until the local tree
		// reflects it, and answers StatusReplLag rather than serve a
		// provably stale read.
		switch {
		case !keyInRange(req.Key):
			err = bst.ErrKeyOutOfRange
		case req.Op == wire.OpLookupAt && !s.reached(x.deadline, req.MinSeq):
			err = errReplLag
		default:
			x.resp.OK = x.acc.Contains(req.Key)
		}
	case wire.OpRange:
		var keys []int64
		if keys, err = s.scan(x); err == nil {
			x.resp.OK, x.resp.Keys = true, keys
		}
	}
	x.seq = x.ticket.Seq()
	x.resp.OK = x.resp.OK && err == nil
	x.resp.Status = s.statusOf(err)
	if err == nil && req.Op != wire.OpRange && x.expired() {
		// The op completed after its budget. It *was* executed (point
		// operations are not cancellable mid-CAS), so report success:
		// dropping the acknowledgement would make the client retry a
		// non-idempotent observation. Count it for the operator.
		s.stats.timeouts.Add(1)
	}
}

// scan collects the keys in [req.Key, req.To], at most the request's
// limit. Scan is the epoch-protected concurrent traversal; the limit cap
// bounds how long one request can pin a reclamation epoch.
func (s *Server) scan(x *call) ([]int64, error) {
	req := &x.req
	limit := int(req.Limit)
	if limit <= 0 || limit > rangeLimit {
		limit = rangeLimit
	}
	keys := make([]int64, 0, min(limit, 64))
	var err error
	i := 0
	s.cfg.Store.Scan(req.Key, req.To, func(k int64) bool {
		// Deadline check every few keys: a huge range cannot hold its
		// admission slot past its budget.
		if i++; i&63 == 0 && x.expired() {
			err = context.DeadlineExceeded
			return false
		}
		keys = append(keys, k)
		return len(keys) < limit
	})
	return keys, err
}

// reached reports whether the local tree reflects WAL sequence seq: a
// cluster node waits for it (bounded by the request's deadline), a
// standalone durable store compares its own horizon, and a store with no
// sequence source can prove only seq 0 — lying would defeat the
// read-your-writes contract.
func (s *Server) reached(deadline time.Time, seq uint64) bool {
	if cl := s.cfg.Cluster; cl != nil {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		return cl.WaitApplied(ctx, seq) == nil
	}
	if ds, can := s.cfg.Store.(interface{ LastSeq() uint64 }); can {
		return ds.LastSeq() >= seq
	}
	return seq == 0
}

// keyInRange mirrors the public key bound (any int64 up to bst.MaxKey;
// negatives are storable) so Delete/Contains answer StatusKeyOutOfRange on
// the wire instead of panicking server-side.
func keyInRange(k int64) bool { return k <= bst.MaxKey }

// Shutdown drains the server: stop accepting, interrupt idle reads, let
// every request already received finish and flush its response, then close
// all connections (folding each accessor's stats and metrics shard into
// the tree) and return. If ctx expires first the remaining connections are
// severed and ctx.Err() is returned. After Shutdown the caller may
// Tree.Close the store; the per-connection accessors are already closed,
// so the reclamation domain retires cleanly.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		// A concurrent or repeated Shutdown waits for the first.
		done := make(chan struct{})
		go func() { s.connWG.Wait(); close(done) }()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.log.Info("draining")
	s.mu.Lock()
	ln := s.ln
	for c := range s.conns {
		// Interrupt reads at the frame boundary: goroutines blocked
		// waiting for a next request wake immediately; goroutines mid
		// request finish it and then observe draining.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.serveWG.Wait()
		s.stats.drains.Add(1)
		s.log.Info("drain complete", "requests", s.stats.requests.Load())
		return nil
	case <-ctx.Done():
		// Force the stragglers.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		s.serveWG.Wait()
		s.stats.drains.Add(1)
		return ctx.Err()
	}
}

// Close abruptly stops the server: the listener and every connection are
// closed without waiting for in-flight requests.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.mu.Lock()
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.connWG.Wait()
	s.serveWG.Wait()
	return nil
}
