package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	bst "repro"
	"repro/internal/durable"
	"repro/internal/wal"
)

// The traced run records spans from this package only, around the calls
// into each layer: a wrapping net.Listener whose connections time the
// server's read and write system calls, and a wrapping server.Store whose
// accessors time every store call. Spans stay in memory, one log per
// connection in request order, and are written out when the run ends.

type spanKind uint8

const (
	spanRead   spanKind = iota // server read system call that returned request bytes
	spanWrite                  // server write of a response
	spanSearch                 // accessor Contains
	spanInsert                 // accessor Insert / TryInsert / TryInsertTicket
	spanDelete                 // accessor Delete / DeleteTicket
	spanBatch                  // accessor ContainsBatch / InsertBatch / DeleteBatch
	spanCall                   // one public call, timed by the load goroutine
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"read", "write", "search", "insert", "delete", "batch", "call"}

type span struct {
	kind  spanKind
	start int64 // ns since the trace's base time
	dur   int64
	arg   int64 // bytes for read and write, keys for store calls, ops for a call
}

// maxSpansPerLog bounds each log; later spans still count in the totals.
const maxSpansPerLog = 1 << 14

// spanLog is one connection's (or one load goroutine's) spans. Only its
// owner goroutine appends; the totals are atomic so the run can read them
// between slices.
type spanLog struct {
	name  string
	spans []span
	count [numSpanKinds]atomic.Uint64
	ns    [numSpanKinds]atomic.Uint64
	bytes atomic.Uint64
	// residence is the server time from the read that completed a request
	// to the start of its response write.
	residence atomic.Uint64
	// byKind holds single-key store call latencies for the core medians.
	byKind [3]Hist

	lastReadEnd int64
	readPending bool
}

// tracer owns a traced system's span logs. Recording is on only while a
// traced slice runs, so set-up and warm-up traffic is not counted.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	conns []*spanLog // one per server connection, paired with its accessor
	accs  int        // accessors created so far
	loads []*spanLog // one per load goroutine
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// connLog returns the log of the i-th connection, creating it on first use.
// The server creates a connection's accessor on the goroutine serving it
// before reading its first request, and the benchmark dials its
// connections one after another, so the i-th accepted connection and the
// i-th accessor belong to the same connection.
func (t *tracer) connLog(i int) *spanLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.conns) <= i {
		t.conns = append(t.conns, &spanLog{name: fmt.Sprintf("conn%d", len(t.conns)), spans: make([]span, 0, maxSpansPerLog)})
	}
	return t.conns[i]
}

func (t *tracer) nextAccessorLog() *spanLog {
	t.mu.Lock()
	i := t.accs
	t.accs++
	t.mu.Unlock()
	return t.connLog(i)
}

func (t *tracer) loadLog(i int) *spanLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.loads) <= i {
		t.loads = append(t.loads, &spanLog{name: fmt.Sprintf("load%d", len(t.loads)), spans: make([]span, 0, maxSpansPerLog)})
	}
	return t.loads[i]
}

// record adds one span to l if recording is on.
func (t *tracer) record(l *spanLog, k spanKind, start, end, arg int64) {
	if !t.on.Load() {
		return
	}
	l.count[k].Add(1)
	l.ns[k].Add(uint64(end - start))
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{kind: k, start: start, dur: end - start, arg: arg})
	}
}

// sum adds up one kind's totals over logs.
func sum(logs []*spanLog, k spanKind) (count, ns uint64) {
	for _, l := range logs {
		count += l.count[k].Load()
		ns += l.ns[k].Load()
	}
	return count, ns
}

// kindHist merges the single-key store call latencies of one kind. Read it
// only after the goroutines owning the logs have stopped.
func kindHist(logs []*spanLog, k spanKind) *Hist {
	var h Hist
	for _, l := range logs {
		h.Merge(&l.byKind[k-spanSearch])
	}
	return &h
}

func (t *tracer) writeSpans(w io.Writer) {
	fmt.Fprintln(w, "log\tkind\tstart_ns\tdur_ns\targ")
	for _, l := range append(append([]*spanLog(nil), t.conns...), t.loads...) {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", l.name, spanNames[s.kind], s.start, s.dur, s.arg)
		}
	}
}

func writeSpanFile(e *env, s tracedSystem) error {
	dir := filepath.Join(e.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", e.name, e.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	s.writeSpans(bw)
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedListener hands the server connections that time their reads and
// writes. It is passed to server.Serve in place of the plain listener.
type tracedListener struct {
	net.Listener
	tr *tracer
	n  int
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return nil, errors.New("traced listener: not a TCP connection")
	}
	raw, err := tc.SyscallConn()
	if err != nil {
		return nil, err
	}
	log := l.tr.connLog(l.n)
	l.n++
	return &tracedConn{Conn: c, raw: raw, tr: l.tr, log: log}, nil
}

// tracedConn times the server side of one connection. Reads go through
// the raw connection so that only the read system call that returns bytes
// is timed, not the wait for the next request to arrive.
type tracedConn struct {
	net.Conn
	raw syscall.RawConn
	tr  *tracer
	log *spanLog
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	var n int
	var serr error
	err := c.raw.Read(func(fd uintptr) bool {
		for {
			t0 := c.tr.now()
			n, serr = syscall.Read(int(fd), p)
			switch serr {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false
			}
			if n > 0 {
				t1 := c.tr.now()
				c.tr.record(c.log, spanRead, t0, t1, int64(n))
				if c.tr.on.Load() {
					c.log.bytes.Add(uint64(n))
					c.log.lastReadEnd, c.log.readPending = t1, true
				}
			}
			return true
		}
	})
	switch {
	case err != nil:
		return 0, err
	case serr != nil:
		return 0, &net.OpError{Op: "read", Net: "tcp", Addr: c.RemoteAddr(), Err: serr}
	case n <= 0:
		return 0, io.EOF
	}
	return n, nil
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := c.tr.now()
	if c.log.readPending {
		if c.tr.on.Load() {
			c.log.residence.Add(uint64(t0 - c.log.lastReadEnd))
		}
		c.log.readPending = false
	}
	n, err := c.Conn.Write(p)
	c.tr.record(c.log, spanWrite, t0, c.tr.now(), int64(n))
	if c.tr.on.Load() {
		c.log.bytes.Add(uint64(n))
	}
	return n, err
}

// tracedStore wraps a durable store for the server. It forwards every
// optional interface the server looks for by type assertion on a store
// (the aggregate queries, LastSeq, and the admin surface Checkpoint,
// WALStats and RecoveryStats), so the server takes the same paths with
// and without it.
type tracedStore struct {
	d  *durable.Tree
	tr *tracer
}

func (s *tracedStore) NewAccessor() bst.Accessor {
	return newTracedAccessor(s.d.NewAccessor(), s.tr, s.tr.nextAccessorLog())
}
func (s *tracedStore) Scan(from, to int64, yield func(int64) bool) { s.d.Scan(from, to, yield) }
func (s *tracedStore) Health() bst.Health                          { return s.d.Health() }
func (s *tracedStore) LastSeq() uint64                             { return s.d.LastSeq() }
func (s *tracedStore) Rank(k int64, c bst.Consistency) (int, error) {
	return s.d.Rank(k, c)
}
func (s *tracedStore) Select(i int, c bst.Consistency) (int64, error) { return s.d.Select(i, c) }
func (s *tracedStore) CountRange(lo, hi int64, c bst.Consistency) (int, error) {
	return s.d.CountRange(lo, hi, c)
}
func (s *tracedStore) SumRange(lo, hi int64, c bst.Consistency) (int64, error) {
	return s.d.SumRange(lo, hi, c)
}
func (s *tracedStore) Checkpoint() (durable.CheckpointStats, error) { return s.d.Checkpoint() }
func (s *tracedStore) WALStats() wal.Stats                          { return s.d.WALStats() }
func (s *tracedStore) RecoveryStats() durable.RecoveryStats         { return s.d.RecoveryStats() }

// ticketAccessor is the asynchronous-durability surface the server looks
// for on an accessor (durable accessors have it).
type ticketAccessor interface {
	TryInsertTicket(key int64) (bool, wal.Ticket, error)
	DeleteTicket(key int64) (bool, wal.Ticket, error)
}

// tracedAccessor times every call of the accessor it wraps.
type tracedAccessor struct {
	inner bst.Accessor
	tr    *tracer
	log   *spanLog
}

// tracedTicketAccessor is tracedAccessor for accessors that also have the
// ticket methods, so the wrapper has them exactly when the wrapped has.
type tracedTicketAccessor struct {
	*tracedAccessor
	ta ticketAccessor
}

func newTracedAccessor(inner bst.Accessor, tr *tracer, log *spanLog) bst.Accessor {
	a := &tracedAccessor{inner: inner, tr: tr, log: log}
	if ta, ok := inner.(ticketAccessor); ok {
		return &tracedTicketAccessor{tracedAccessor: a, ta: ta}
	}
	return a
}

// done records a store call that started at t0.
func (a *tracedAccessor) done(k spanKind, t0 int64, keys int) {
	t1 := a.tr.now()
	a.tr.record(a.log, k, t0, t1, int64(keys))
	if k != spanBatch && a.tr.on.Load() {
		a.log.byKind[k-spanSearch].Record(uint64(t1 - t0))
	}
}

func (a *tracedAccessor) Contains(key int64) bool {
	t0 := a.tr.now()
	ok := a.inner.Contains(key)
	a.done(spanSearch, t0, 1)
	return ok
}

func (a *tracedAccessor) Insert(key int64) bool {
	t0 := a.tr.now()
	ok := a.inner.Insert(key)
	a.done(spanInsert, t0, 1)
	return ok
}

func (a *tracedAccessor) TryInsert(key int64) (bool, error) {
	t0 := a.tr.now()
	ok, err := a.inner.TryInsert(key)
	a.done(spanInsert, t0, 1)
	return ok, err
}

func (a *tracedAccessor) Delete(key int64) bool {
	t0 := a.tr.now()
	ok := a.inner.Delete(key)
	a.done(spanDelete, t0, 1)
	return ok
}

func (a *tracedAccessor) ContainsBatch(keys []int64, out []bst.OpResult) {
	t0 := a.tr.now()
	a.inner.ContainsBatch(keys, out)
	a.done(spanBatch, t0, len(keys))
}

func (a *tracedAccessor) InsertBatch(keys []int64, out []bst.OpResult) {
	t0 := a.tr.now()
	a.inner.InsertBatch(keys, out)
	a.done(spanBatch, t0, len(keys))
}

func (a *tracedAccessor) DeleteBatch(keys []int64, out []bst.OpResult) {
	t0 := a.tr.now()
	a.inner.DeleteBatch(keys, out)
	a.done(spanBatch, t0, len(keys))
}

func (a *tracedAccessor) Close() error { return a.inner.Close() }

func (a *tracedTicketAccessor) TryInsertTicket(key int64) (bool, wal.Ticket, error) {
	t0 := a.tr.now()
	ok, t, err := a.ta.TryInsertTicket(key)
	a.done(spanInsert, t0, 1)
	return ok, t, err
}

func (a *tracedTicketAccessor) DeleteTicket(key int64) (bool, wal.Ticket, error) {
	t0 := a.tr.now()
	ok, t, err := a.ta.DeleteTicket(key)
	a.done(spanDelete, t0, 1)
	return ok, t, err
}
