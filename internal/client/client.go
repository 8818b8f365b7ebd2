// Package client is the retrying network client for the bstserve protocol
// (internal/wire, served by internal/server).
//
// The client owns a small pool of TCP connections. One table
// (statusTable) classifies every wire status — for single ops, aggregates,
// batch frames and their per-op slots, and pipelined futures alike — into
// the error it surfaces as and one of four retry classes:
//
//   - backoff (wire.StatusOverloaded, StatusDraining, StatusReplLag, and
//     transport trouble such as a dial failure or reset): retry after
//     short exponential backoff with jitter — the server is alive (or
//     restarting) and asked us to slow down, and jitter keeps a fleet of
//     clients from re-converging in lockstep;
//   - capacity backoff (wire.StatusCapacity): retry after a *longer*
//     backoff — arena slots return only after deletes plus reclamation
//     grace periods, so hammering is pointless;
//   - redirect (wire.StatusNotLeader, StatusFenced): see below;
//   - permanent (key out of range, malformed request, server panic,
//     deadline, no order-statistics index): never retried.
//
// Statuses surface as the in-process sentinels where one exists
// (bst.ErrCapacity, bst.ErrKeyOutOfRange, bst.ErrNoOrderStats), so
// errors.Is works across the network boundary exactly as it does in
// process. Deadlines flow from the context: the remaining budget rides in
// every request frame, and backoff sleeps never overrun the context.
//
// The client is replication-aware: a wire.StatusNotLeader response
// (mutation sent to a follower) carries the leader's advertised address,
// which the client adopts for subsequent connections and retries against
// immediately — redirects are topology information, not congestion, so
// they consume an attempt but no backoff. If the learned leader becomes
// undialable the client falls back to the configured seed address (which
// an operator points at a load balancer or any live node). A
// wire.StatusFenced response — the node was the leader but has been
// deposed by a newer term — is the same redirect with a stronger reason:
// the client adopts the named successor, or, when the fence names none,
// drops the cached leader and re-discovers from the seed under capped
// backoff. ReadAtLeast
// adds read-your-writes on followers: the request names a WAL sequence
// the replica must have applied before answering, and a replica that
// cannot catch up in time answers StatusReplLag, surfacing as ErrReplLag.
//
// Backoff adapts to observed contention: every backoff- or capacity-class
// status and every transport failure raises a contention level that widens
// the base backoff window (each level doubles it, up to 2^6×), and every
// clean response lowers it. A fleet of clients hammering a struggling
// server therefore backs off more aggressively than the per-attempt
// exponential alone, and recovers to tight latencies as soon as the
// server breathes again.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	bst "repro"
	"repro/internal/rtrace"
	"repro/internal/wire"
)

// Sentinel errors. ErrOverloaded and ErrDraining wrap the corresponding
// wire statuses when retries run out; capacity and key-range failures
// surface as bst.ErrCapacity / bst.ErrKeyOutOfRange instead, so callers
// use one errors.Is test whether the tree is local or remote.
var (
	ErrOverloaded = errors.New("client: server overloaded")
	ErrDraining   = errors.New("client: server draining")
	ErrInternal   = errors.New("client: server internal error")
	ErrBadRequest = errors.New("client: bad request")
	ErrDeadline   = errors.New("client: deadline exceeded")
)

// Replication sentinels. ErrNotLeader matches (via errors.Is) any
// NotLeaderError, however many redirect hops deep it is wrapped;
// ErrReplLag reports a replica that could not reach the sequence a
// ReadAtLeast demanded within the request's deadline. ErrFenced matches a
// FencedError — a mutation reached a deposed leader; FencedError also
// satisfies errors.Is(err, ErrNotLeader), so callers with a generic
// "wrong node, follow the redirect" policy need no new case.
var (
	ErrNotLeader = errors.New("client: not the leader")
	ErrFenced    = errors.New("client: fenced (deposed) leader")
	ErrReplLag   = errors.New("client: replica lagging requested sequence")
)

// NotLeaderError is the concrete error behind ErrNotLeader: a mutation
// reached a follower, and Leader (when non-empty) is the data address the
// cluster believes leads. The client already adopted it for retries;
// callers that exhaust attempts can extract it with errors.As to decide
// whether a topology change, not load, is the problem.
type NotLeaderError struct {
	Leader string
}

func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "client: not the leader (no leader known)"
	}
	return fmt.Sprintf("client: not the leader (leader at %s)", e.Leader)
}

// Is makes errors.Is(err, ErrNotLeader) hold for any NotLeaderError.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// FencedError is the concrete error behind ErrFenced: the node a mutation
// reached was the leader once but has been deposed by a newer term and is
// refusing writes until it rejoins. Leader (when non-empty) is where the
// cluster says writes go now; the client already adopted it.
type FencedError struct {
	Leader string
}

func (e *FencedError) Error() string {
	if e.Leader == "" {
		return "client: leader fenced by a newer term (successor unknown)"
	}
	return fmt.Sprintf("client: leader fenced by a newer term (leader at %s)", e.Leader)
}

// Is makes both errors.Is(err, ErrFenced) and errors.Is(err, ErrNotLeader)
// hold: a fence is a redirect with a stronger reason.
func (e *FencedError) Is(target error) bool {
	return target == ErrFenced || target == ErrNotLeader
}

// Config tunes a Client. Addr is required.
type Config struct {
	// Addr is the server's data address (host:port).
	Addr string
	// Conns bounds concurrent requests (one per pooled connection).
	// Default 4.
	Conns int
	// MaxAttempts is the total tries per operation (first attempt
	// included). Default 8; 1 disables retries.
	MaxAttempts int
	// Backoff is the base delay after a shed, drain, or transport error;
	// attempt n sleeps jittered exponential backoff from this base.
	// Default 2ms.
	Backoff time.Duration
	// CapacityBackoff is the base delay after StatusCapacity. Default
	// 20ms — capacity recovers on reclamation timescales, not RTTs.
	CapacityBackoff time.Duration
	// MaxBackoff caps any single sleep. Default 500ms.
	MaxBackoff time.Duration
	// Seed seeds the jitter source; 0 uses the current time.
	Seed int64
	// Trace, when non-nil, originates request tracing: every Nth operation
	// (per the recorder's sampling rate) is stamped with a trace context
	// that rides the wire to the server, and the client records a
	// KClientSend span covering the whole retry loop plus events for every
	// redirect, replica-lag bounce and retry. Nil disables tracing at the
	// cost of one pointer check per operation.
	Trace *rtrace.Recorder
}

// Stats counts client-side retry behaviour (monotonic, except
// ContentionLevel which is the adaptive backoff gauge at snapshot time).
type Stats struct {
	Requests        uint64 // operations attempted (first attempts)
	Retries         uint64 // additional attempts beyond the first
	Sheds           uint64 // StatusOverloaded responses seen
	DrainsSeen      uint64 // StatusDraining responses seen
	CapacityErrs    uint64 // StatusCapacity responses seen
	TransportErrors uint64 // dial/read/write failures (each forces a redial)
	Redirects       uint64 // StatusNotLeader responses followed
	FencedSeen      uint64 // StatusFenced responses seen (deposed leader)
	ReplLags        uint64 // StatusReplLag responses seen
	ContentionLevel int64  // current adaptive backoff level (0..contentionCap)
}

// stat indexes the client's monotonic counters; statNone marks a status
// that bumps none.
type stat uint8

const (
	statNone stat = iota
	statRequests
	statRetries
	statSheds
	statDrains
	statCapacity
	statTransport
	statRedirects
	statFenced
	statReplLags
	numStats
)

// Client is a retrying bstserve client. All methods are safe for
// concurrent use; concurrency beyond cfg.Conns queues on the pool.
type Client struct {
	cfg  Config
	pool chan *conn // fixed-capacity; nil entry = slot needs a dial
	id   atomic.Uint64

	// rngState drives the jitter source: a splitmix64 stream over an
	// atomic counter, so concurrent backoff computations never contend on
	// a lock (the retry path runs exactly when the system is stressed).
	rngState atomic.Uint64

	// leader is the cluster leader's data address ("" = none learned;
	// use cfg.Addr). Set from StatusNotLeader/StatusFenced redirects,
	// cleared when the learned address repeatedly stops dialing or a
	// fence names no successor.
	leader atomic.Value // string

	// leaderFails counts consecutive dial failures of the learned leader;
	// at leaderFailThreshold the cache is invalidated and dials fall back
	// to the seed address until a new redirect teaches us better. The
	// threshold keeps one flaky dial during a failover from discarding
	// topology that is still correct.
	leaderFails atomic.Int64

	// contention is the adaptive backoff level: raised by backpressure
	// signals (shed, capacity, drain, transport failure), lowered by
	// clean responses, and added to the attempt number when sizing a
	// backoff window — so a client that keeps getting pushed back widens
	// its sleeps even on fresh operations.
	contention atomic.Int64

	stats [numStats]atomic.Uint64

	closed atomic.Bool
}

// contentionCap bounds the adaptive level: 2^6 widens a 2ms base to
// 128ms before per-attempt exponentiation, within MaxBackoff's reach.
const contentionCap = 6

// conn is one pooled connection.
type conn struct {
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	scratch []byte
	// addr is the address this conn was dialed to; a pooled conn whose
	// addr no longer matches the redirect target is discarded.
	addr string
}

// Dial creates a client. Connections are established lazily, so Dial
// succeeds even while the server is still coming up.
func Dial(cfg Config) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("client: Config.Addr is required")
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 2 * time.Millisecond
	}
	if cfg.CapacityBackoff <= 0 {
		cfg.CapacityBackoff = 20 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 500 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	cl := &Client{cfg: cfg, pool: make(chan *conn, cfg.Conns)}
	cl.rngState.Store(uint64(seed))
	cl.leader.Store("")
	for i := 0; i < cfg.Conns; i++ {
		cl.pool <- nil // lazily dialed
	}
	return cl, nil
}

// Stats returns a snapshot of the client's retry counters.
func (cl *Client) Stats() Stats {
	return Stats{
		Requests:        cl.stats[statRequests].Load(),
		Retries:         cl.stats[statRetries].Load(),
		Sheds:           cl.stats[statSheds].Load(),
		DrainsSeen:      cl.stats[statDrains].Load(),
		CapacityErrs:    cl.stats[statCapacity].Load(),
		TransportErrors: cl.stats[statTransport].Load(),
		Redirects:       cl.stats[statRedirects].Load(),
		FencedSeen:      cl.stats[statFenced].Load(),
		ReplLags:        cl.stats[statReplLags].Load(),
		ContentionLevel: cl.contention.Load(),
	}
}

// Leader returns the cluster leader address the client last learned from
// a redirect, or "" when none has been seen (or the last one went dark).
func (cl *Client) Leader() string {
	s, _ := cl.leader.Load().(string)
	return s
}

// targetAddr is where new connections dial: the learned leader when one
// is known, otherwise the configured seed address.
func (cl *Client) targetAddr() string {
	if s := cl.Leader(); s != "" {
		return s
	}
	return cl.cfg.Addr
}

// noteLeader records a redirect's leader address for subsequent dials.
func (cl *Client) noteLeader(addr string) {
	if addr != "" && addr != cl.Leader() {
		cl.leader.Store(addr)
		cl.leaderFails.Store(0)
	}
}

// invalidateLeader forgets the learned leader so dials fall back to the
// configured seed — the re-discovery path after a fence names no
// successor or the learned address keeps failing.
func (cl *Client) invalidateLeader() {
	cl.leader.Store("")
	cl.leaderFails.Store(0)
}

// leaderFailThreshold is how many consecutive dial failures of the
// learned leader the client tolerates before invalidating the cache.
const leaderFailThreshold = 2

// dialTimeout bounds each dial attempt, pooled or pipelined.
const dialTimeout = 2 * time.Second

// noteBackpressure raises the adaptive backoff level (saturating).
func (cl *Client) noteBackpressure() {
	for {
		v := cl.contention.Load()
		if v >= contentionCap {
			return
		}
		if cl.contention.CompareAndSwap(v, v+1) {
			return
		}
	}
}

// noteSuccess lowers the adaptive backoff level (floored at zero).
func (cl *Client) noteSuccess() {
	for {
		v := cl.contention.Load()
		if v <= 0 {
			return
		}
		if cl.contention.CompareAndSwap(v, v-1) {
			return
		}
	}
}

// shifted widens an attempt number by the current contention level, so
// backoff windows grow both with this operation's failures and with the
// backpressure the whole client has been seeing.
func (cl *Client) shifted(attempt int) int {
	return attempt + int(cl.contention.Load())
}

// Close tears down every pooled connection. In-flight calls race it and
// may return transport errors.
func (cl *Client) Close() error {
	if cl.closed.Swap(true) {
		return nil
	}
	for i := 0; i < cl.cfg.Conns; i++ {
		if c := <-cl.pool; c != nil {
			c.c.Close()
		}
	}
	return nil
}

// Insert adds key; it reports whether the set changed.
func (cl *Client) Insert(ctx context.Context, key int64) (bool, error) {
	resp, err := cl.point(ctx, wire.Request{Op: wire.OpInsert, Key: key})
	return resp.OK, err
}

// Delete removes key; it reports whether the set changed.
func (cl *Client) Delete(ctx context.Context, key int64) (bool, error) {
	resp, err := cl.point(ctx, wire.Request{Op: wire.OpDelete, Key: key})
	return resp.OK, err
}

// Lookup reports whether key is present.
func (cl *Client) Lookup(ctx context.Context, key int64) (bool, error) {
	resp, err := cl.point(ctx, wire.Request{Op: wire.OpLookup, Key: key})
	return resp.OK, err
}

// ReadAtLeast reports whether key is present, observed from replica state
// that has applied at least WAL sequence seq — read-your-writes against a
// follower: pass the sequence a mutation's ack carried (or any later
// horizon) and the answer can never predate that write. A replica that
// cannot reach seq within the deadline answers ErrReplLag after retries.
func (cl *Client) ReadAtLeast(ctx context.Context, key int64, seq uint64) (bool, error) {
	resp, err := cl.point(ctx, wire.Request{Op: wire.OpLookupAt, Key: key, MinSeq: seq})
	return resp.OK, err
}

// Range returns up to limit keys in [from, to] in ascending order (0 uses
// the server's default limit).
func (cl *Client) Range(ctx context.Context, from, to int64, limit int) ([]int64, error) {
	resp, err := cl.point(ctx, wire.Request{Op: wire.OpRange, Key: from, To: to, Limit: uint32(max(limit, 0))})
	return resp.Keys, err
}

// point runs one single-op request through the retry loop.
func (cl *Client) point(ctx context.Context, req wire.Request) (wire.Response, error) {
	x := call{req: req}
	if err := cl.do(ctx, &x, 0, nil); err != nil {
		return wire.Response{}, err
	}
	return x.resp, nil
}

// retryClass is what the retry loop does after a status. The classes are
// ordered: when the per-op statuses of one batch frame differ, the retry
// waits as the highest class among them asks.
type retryClass uint8

const (
	permanent       retryClass = iota // surface the error; never retry
	redirect                          // follow the leader the response names
	backoff                           // retry after the base backoff
	capacityBackoff                   // retry after the longer CapacityBackoff
)

// statusRow is one wire status's entry in the status table.
type statusRow struct {
	err    error // what it surfaces as (redirects: the sentinel their error matches)
	class  retryClass
	stat   stat  // the counter it bumps
	event  uint8 // the trace event it records (0: none)
	closes bool  // the server closes the connection after sending it
}

// statusTable classifies every wire status. It is the client's only
// classification of wire.Status: the single-op and aggregate retry loop,
// batch frames and their per-op slots, and pipelined futures all read it
// through fail.
var statusTable = [...]statusRow{
	wire.StatusOK:               {},
	wire.StatusOverloaded:       {err: ErrOverloaded, class: backoff, stat: statSheds},
	wire.StatusCapacity:         {err: bst.ErrCapacity, class: capacityBackoff, stat: statCapacity},
	wire.StatusKeyOutOfRange:    {err: bst.ErrKeyOutOfRange},
	wire.StatusDeadlineExceeded: {err: ErrDeadline},
	wire.StatusDraining:         {err: ErrDraining, class: backoff, stat: statDrains, closes: true},
	wire.StatusBadRequest:       {err: ErrBadRequest},
	wire.StatusInternal:         {err: ErrInternal, closes: true},
	wire.StatusNotLeader:        {err: ErrNotLeader, class: redirect, stat: statRedirects, event: rtrace.KRedirect},
	wire.StatusReplLag:          {err: ErrReplLag, class: backoff, stat: statReplLags, event: rtrace.KReplLag},
	wire.StatusFenced:           {err: ErrFenced, class: redirect, stat: statFenced, event: rtrace.KRedirect},
	wire.StatusNoIndex:          {err: bst.ErrNoOrderStats},
}

// rowOf returns st's row of the status table; a status the table does
// not know is a permanent ErrBadRequest.
func rowOf(st wire.Status) statusRow {
	if int(st) < len(statusTable) {
		return statusTable[st]
	}
	return statusRow{err: fmt.Errorf("%w: status %v", ErrBadRequest, st)}
}

// fail applies a non-OK status's row of the status table: it bumps the
// row's counter and records its trace event, and a redirect adopts the
// leader the response named. A fence that names no successor voids what
// the client learned about the deposed node, so dials re-discover from the
// seed address. It returns the status's retry class and the error it
// surfaces as.
func (cl *Client) fail(st wire.Status, leader string, tc rtrace.Context, attempt int) (retryClass, error) {
	r := rowOf(st)
	if r.stat != statNone {
		cl.stats[r.stat].Add(1)
	}
	if r.event != 0 {
		cl.cfg.Trace.Event(tc, r.event, int64(attempt))
	}
	switch st {
	case wire.StatusNotLeader:
		cl.noteLeader(leader)
		return r.class, &NotLeaderError{Leader: leader}
	case wire.StatusFenced:
		if leader == "" {
			cl.invalidateLeader()
		} else {
			cl.noteLeader(leader)
		}
		return r.class, &FencedError{Leader: leader}
	}
	return r.class, r.err
}

// pause waits before the next attempt as class asks; false means ctx ended
// first. The backoff classes raise the contention level and sleep a
// jittered exponential backoff from their base. A redirect is routing, not
// load: it retries at once when the response named a leader, and otherwise
// (the cluster is between leaders) sleeps the base backoff without raising
// the level, so a mid-election cluster is not hammered with redirect
// probes. After the last allowed attempt nothing is left to wait for, so
// pause only records the backpressure.
func (cl *Client) pause(ctx context.Context, class retryClass, leader string, attempt int) bool {
	if class != redirect {
		cl.noteBackpressure()
	} else if leader != "" {
		return true
	}
	if attempt+1 >= cl.cfg.MaxAttempts {
		return true
	}
	base := cl.cfg.Backoff
	if class == capacityBackoff {
		base = cl.cfg.CapacityBackoff
	}
	return cl.sleep(ctx, cl.backoff(base, cl.shifted(attempt)))
}

// call is one request's trip through the retry loop: the frame to send
// (req.Op picks its shape) and the reply the last exchange decoded.
type call struct {
	req  wire.Request          // every kind's id, deadline and trace; a point op itself
	agg  wire.AggregateRequest // OpAggregate: the query
	bops []wire.BatchOp        // OpBatch: the pending operations

	resp    wire.Response      // reply id, status, ok bit, range keys, redirect address
	value   int64              // OpAggregate reply
	results []wire.BatchResult // OpBatch reply: one per bop
}

// do runs a single-op or aggregate call through the retry loop, starting
// at attempt first. A new call starts at 0, counts as a request and
// samples its trace. A pipeline fallback starts at 1 — its pipelined send
// was the first attempt, lastErr is that attempt's error — and keeps the
// trace context stamped at Submit. Either way the context survives every
// retry and redirect unchanged: the whole client-side effort is one trace.
func (cl *Client) do(ctx context.Context, x *call, first int, lastErr error) error {
	if first == 0 {
		cl.stats[statRequests].Add(1)
		x.req.Trace = cl.cfg.Trace.SampleNext()
	}
	if x.req.Trace.Sampled() {
		start := time.Now()
		defer cl.cfg.Trace.Span(x.req.Trace, rtrace.KClientSend, start, x.req.Key)
	}
	for attempt := first; attempt < cl.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			cl.stats[statRetries].Add(1)
			cl.cfg.Trace.Event(x.req.Trace, rtrace.KRetry, int64(attempt))
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		x.req.ID = cl.id.Add(1)
		x.req.DeadlineMS = deadlineMS(ctx)

		class := backoff
		if err := cl.exchange(ctx, x); err != nil {
			// Transport: the conn is gone; the retry redials.
			cl.stats[statTransport].Add(1)
			lastErr = err
		} else if x.resp.Status == wire.StatusOK {
			cl.noteSuccess()
			return nil
		} else if class, lastErr = cl.fail(x.resp.Status, x.resp.Leader, x.req.Trace, attempt); class == permanent {
			return lastErr
		}
		if !cl.pause(ctx, class, x.resp.Leader, attempt) {
			return fmt.Errorf("%w (last error: %v)", context.Cause(ctx), lastErr)
		}
	}
	return fmt.Errorf("client: %d attempts exhausted: %w", cl.cfg.MaxAttempts, lastErr)
}

// acquire takes a pooled connection, dialing if the slot is empty. A
// pooled conn aimed at an address a redirect has since replaced is
// discarded and redialed at the current target. On success the caller
// must hand the conn to release exactly once.
func (cl *Client) acquire(ctx context.Context) (*conn, error) {
	var c *conn
	select {
	case c = <-cl.pool:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	addr := cl.targetAddr()
	if c != nil && c.addr != addr {
		c.c.Close()
		c = nil
	}
	if c == nil {
		nc, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			// A learned leader that repeatedly stops dialing is stale
			// topology: forget it so later attempts fall back to the seed
			// address (a load balancer or any surviving node). One failure
			// is tolerated — mid-failover the address often comes right
			// back — and the retry loop's capped exponential backoff paces
			// re-discovery either way.
			if addr == cl.Leader() && cl.leaderFails.Add(1) >= leaderFailThreshold {
				if cl.leader.CompareAndSwap(addr, "") {
					cl.leaderFails.Store(0)
				}
			}
			cl.pool <- nil
			return nil, fmt.Errorf("client: dial %s: %w", addr, err)
		}
		if addr == cl.Leader() {
			cl.leaderFails.Store(0)
		}
		c = &conn{c: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc), addr: addr}
	}
	// IO deadline: the context deadline when there is one, else a
	// generous transport bound.
	ioDeadline := time.Now().Add(30 * time.Second)
	if d, okd := ctx.Deadline(); okd && d.Before(ioDeadline) {
		ioDeadline = d
	}
	c.c.SetDeadline(ioDeadline)
	return c, nil
}

// release returns a connection to the pool; !keep closes it and leaves a
// nil slot so the next use redials.
func (cl *Client) release(c *conn, keep bool) {
	if keep {
		cl.pool <- c
		return
	}
	c.c.Close()
	cl.pool <- nil
}

// exchange sends x's frame on a pooled connection and decodes the reply
// into x: acquire, write, flush, read, check the id, then keep the
// connection or drop it. Only the encode and decode steps differ by frame
// kind. An error is a transport failure, and the connection is closed; the
// pool slot is replaced with nil so the next use redials.
func (cl *Client) exchange(ctx context.Context, x *call) error {
	c, err := cl.acquire(ctx)
	if err != nil {
		return err
	}
	keep := false
	defer func() { cl.release(c, keep) }()

	switch x.req.Op {
	case wire.OpBatch:
		c.scratch = wire.AppendBatchRequest(c.scratch[:0], x.req.ID, x.req.DeadlineMS, x.req.Trace, x.bops)
	case wire.OpAggregate:
		x.agg.ID, x.agg.DeadlineMS, x.agg.Trace = x.req.ID, x.req.DeadlineMS, x.req.Trace
		c.scratch = wire.AppendAggregateRequest(c.scratch[:0], x.agg)
	default:
		c.scratch = wire.AppendRequest(c.scratch[:0], x.req)
	}
	if err := wire.WriteFrame(c.bw, c.scratch); err != nil {
		return fmt.Errorf("client: write: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("client: flush: %w", err)
	}
	payload, scratch, err := wire.ReadFrame(c.br, c.scratch)
	c.scratch = scratch
	if err != nil {
		return fmt.Errorf("client: read: %w", err)
	}
	switch x.req.Op {
	case wire.OpAggregate:
		var ar wire.AggregateResponse
		ar, err = wire.DecodeAggregateResponse(payload)
		x.resp, x.value = wire.Response{ID: ar.ID, Status: ar.Status}, ar.Value
	case wire.OpBatch:
		var id uint64
		var st wire.Status
		id, st, x.results, err = wire.DecodeBatchResponse(payload, x.results[:0])
		x.resp = wire.Response{ID: id, Status: st}
		if err == nil && st != wire.StatusOK {
			// A frame refused as a whole carries no per-op tail: it is a
			// plain response, whose redirect tail names the leader.
			x.resp, err = wire.DecodeResponse(payload)
		}
	default:
		x.resp, err = wire.DecodeResponse(payload)
	}
	if err != nil {
		return fmt.Errorf("client: decode: %w", err)
	}
	if x.resp.ID != x.req.ID {
		return fmt.Errorf("client: response id %d for request %d", x.resp.ID, x.req.ID)
	}
	// Draining and internal-error responses are terminal for the
	// connection: the server closes it right after (for internal errors the
	// connection is poisoned by the recovered panic). Drop it now instead
	// of failing the next use.
	keep = !rowOf(x.resp.Status).closes
	return nil
}

// backoff computes the jittered exponential delay for attempt n (0-based):
// uniformly random in [d/2, d) where d = min(base << n, MaxBackoff) — the
// "equal jitter" scheme, keeping a mean close to pure exponential while
// decorrelating a fleet of retrying clients.
func (cl *Client) backoff(base time.Duration, attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20
	}
	d := base << uint(attempt)
	if d > cl.cfg.MaxBackoff || d <= 0 {
		d = cl.cfg.MaxBackoff
	}
	half := d / 2
	j := time.Duration(cl.randUint64() % uint64(half+1))
	return half + j
}

// randUint64 draws from a lock-free splitmix64 stream: each call advances
// the state by the golden-gamma via one atomic add (unique per caller even
// under races) and mixes it through the finalizer. Quality is ample for
// retry jitter, and there is no lock for stressed retry paths to pile on.
func (cl *Client) randUint64() uint64 {
	x := cl.rngState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sleep blocks for d or until ctx is done; false means the context won.
func (cl *Client) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// deadlineMS converts ctx's remaining budget to the wire's millisecond
// field: 0 (server default) when ctx has no deadline, at least 1 when it
// does (a sub-millisecond remainder still must reach the server rather
// than round down to "no deadline").
func deadlineMS(ctx context.Context) uint32 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		return 1
	}
	if ms > int64(^uint32(0)) {
		return 0 // effectively unbounded; let the server default apply
	}
	return uint32(ms)
}
