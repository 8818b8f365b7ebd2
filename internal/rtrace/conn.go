package rtrace

import (
	"time"
)

// maxReqSpans bounds one request's span tree in the connection scratch
// buffer (root + children + events). Overflow drops spans, never blocks.
const maxReqSpans = 16

// Conn is one connection's view of the flight recorder: a fixed scratch
// buffer for the request in flight and a single-writer ring the finished
// tree is flushed into. The owning goroutine (the server's per-connection
// read loop, or a replication follower's apply loop) is the only writer;
// no method allocates. A nil *Conn is a no-op on every method, so the
// per-request cost with tracing disabled is one nil check.
//
// At most one sampled request is tracked at a time. Under pipelining a new
// sampled request arriving before the previous one's window flushed
// finishes the previous request early — its WAL/repl wait is then
// under-attributed, which the flight recorder accepts in exchange for a
// fixed-size, allocation-free hot path.
type Conn struct {
	r    *Recorder
	id   uint32
	ring *ring

	sctr uint64 // conn-local self-sample counter (single goroutine, no atomics)

	active bool
	cur    Context // TraceID + the request root's SpanID
	op     uint8
	key    int64
	start  int64
	n      int
	spans  [maxReqSpans]Span
}

// NewConn registers a connection with the recorder. Rings are recycled
// through a free list so spans of closed connections stay readable until
// the ring is reused. Returns nil (a no-op Conn) on a nil Recorder.
func (r *Recorder) NewConn() *Conn {
	if r == nil {
		return nil
	}
	c := &Conn{r: r, id: r.connCtr.Add(1)}
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		c.ring = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		c.ring = newRing(connRingSize)
	}
	r.conns = append(r.conns, c)
	r.mu.Unlock()
	return c
}

// Close finishes any open request and returns the ring to the free list.
func (c *Conn) Close() {
	if c == nil {
		return
	}
	c.EndRequest()
	c.r.mu.Lock()
	for i, rc := range c.r.conns {
		if rc == c {
			c.r.conns[i] = c.r.conns[len(c.r.conns)-1]
			c.r.conns = c.r.conns[:len(c.r.conns)-1]
			break
		}
	}
	c.r.free = append(c.r.free, c.ring)
	c.ring = nil // under mu: Snapshot reads a listed conn's ring under it
	c.r.mu.Unlock()
}

// ID returns the connection's recorder-assigned ID (0 on nil).
func (c *Conn) ID() uint32 {
	if c == nil {
		return 0
	}
	return c.id
}

// StartRequest begins tracking a request and reports whether it is
// sampled. A request arriving with a sampled context is always recorded
// (the root span adopts the sender's span as parent); otherwise the
// connection self-samples every Options.SampleEvery-th request with a
// fresh trace ID.
func (c *Conn) StartRequest(tc Context, op uint8, key int64) bool {
	if c == nil {
		return false
	}
	if c.active {
		c.EndRequest()
	}
	var parent uint32
	switch {
	case tc.Sampled():
		parent = tc.SpanID
	case c.r.sampleEvery != 0:
		c.sctr++
		if c.sctr%c.r.sampleEvery != 0 {
			return false
		}
		tc = Context{TraceID: c.r.newTraceID(), Flags: FlagSampled}
	default:
		return false
	}
	c.active = true
	c.cur = Context{TraceID: tc.TraceID, SpanID: c.r.newSpanID(), Flags: FlagSampled}
	c.op = op
	c.key = key
	c.start = time.Now().UnixNano()
	c.n = 1 // slot 0 is reserved for the root, written by EndRequest
	c.spans[0] = Span{
		TraceID: c.cur.TraceID, SpanID: c.cur.SpanID, Parent: parent,
		Kind: KRequest, Op: op, Conn: c.id, Start: c.start, Arg: key,
	}
	return true
}

// Active reports whether a sampled request is being tracked.
func (c *Conn) Active() bool { return c != nil && c.active }

// Context returns the in-flight request's context — the identity shipped
// onward (to the WAL seq table, to followers) so downstream spans parent
// under this request's root.
func (c *Conn) Context() Context {
	if c == nil || !c.active {
		return Context{}
	}
	return c.cur
}

// Span records a child phase of the in-flight request covering
// [start, now). Dropped silently if no request is active or the scratch
// buffer is full.
func (c *Conn) Span(kind uint8, start time.Time, arg int64) {
	if c == nil || !c.active || c.n >= maxReqSpans {
		return
	}
	c.spans[c.n] = Span{
		TraceID: c.cur.TraceID, SpanID: c.r.newSpanID(), Parent: c.cur.SpanID,
		Kind: kind, Conn: c.id, Start: start.UnixNano(),
		Dur: time.Since(start).Nanoseconds(), Arg: arg,
	}
	c.n++
}

// Event records a zero-duration annotation on the in-flight request.
func (c *Conn) Event(kind uint8, arg int64) {
	if c == nil || !c.active || c.n >= maxReqSpans {
		return
	}
	c.spans[c.n] = Span{
		TraceID: c.cur.TraceID, SpanID: c.r.newSpanID(), Parent: c.cur.SpanID,
		Kind: kind, Conn: c.id, Start: time.Now().UnixNano(), Arg: arg,
	}
	c.n++
}

// EndRequest closes the in-flight request: stamps the root duration,
// flushes the tree to the connection ring, folds phase aggregates, and —
// if the request crossed the slow threshold — copies the tree into the
// slow-op log with its dominant phase.
func (c *Conn) EndRequest() {
	if c == nil || !c.active {
		return
	}
	c.active = false
	dur := time.Now().UnixNano() - c.start
	c.spans[0].Dur = dur
	for i := 0; i < c.n; i++ {
		c.ring.record(c.spans[i])
		c.r.phase(c.spans[i].Kind, c.spans[i].Dur)
	}
	if c.r.slowNanos > 0 && dur > c.r.slowNanos {
		c.r.addSlowOp(SlowOp{
			TraceID:  c.cur.TraceID,
			Op:       c.op,
			Key:      c.key,
			Start:    c.start,
			Dur:      dur,
			Dominant: dominantPhase(c.spans[:c.n], dur),
			Spans:    append([]Span(nil), c.spans[:c.n]...),
		})
	}
}

// dominantPhase names the longest instrumented phase of a request, or 0
// ("other") when un-instrumented time exceeds every phase.
func dominantPhase(spans []Span, total int64) uint8 {
	var sums [kMax]int64
	for _, sp := range spans {
		if sp.Kind != KRequest {
			sums[sp.Kind] += sp.Dur
		}
	}
	var best uint8
	var bestNS int64
	var accounted int64
	for k := uint8(1); k < kMax; k++ {
		accounted += sums[k]
		if sums[k] > bestNS {
			best, bestNS = k, sums[k]
		}
	}
	if total-accounted > bestNS {
		return 0
	}
	return best
}
