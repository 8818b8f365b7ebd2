package client

// Pipelining: a Pipeline owns one dedicated connection and decouples
// sending from receiving, so many requests ride the wire before the first
// response returns — the request-per-round-trip client pays one RTT per
// operation, a pipeline pays one RTT per *window*. Submissions buffer in
// the connection's writer and flush either when the buffer fills or when a
// caller starts waiting; a background reader demultiplexes responses to
// their futures by correlation id (the server answers in order, but ids
// make the pairing robust and cheap to assert).
//
// Retries deliberately do not happen inside the pipeline: a retry must
// not block the reader (backoff sleeps) or reorder the stream. Instead
// Future.Wait asks the client's status table whether the outcome is
// permanent; a retryable one (shed, drain, capacity, redirect, transport
// failure) re-runs that one operation through the pooled single-op retry
// loop, which owns the full backoff policy and counts the re-run as the
// operation's second attempt. The pipeline stays a pure fast path; the
// slow path is the proven one.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/rtrace"
	"repro/internal/wire"
)

// ErrPipelineClosed is returned by Submit after Close, or when the
// pipeline's connection failed.
var ErrPipelineClosed = errors.New("client: pipeline closed")

// Pipeline is an asynchronous session over one dedicated connection.
// Submit and Flush are safe for concurrent use; each Future belongs to
// the goroutine that waits on it.
type Pipeline struct {
	cl *Client
	c  net.Conn

	wmu     sync.Mutex // serializes writes and pending-map inserts
	bw      *bufio.Writer
	unsent  int // submissions buffered since the last flush
	pending map[uint64]*Future
	err     error // sticky: set once the connection is unusable

	readerDone chan struct{}
}

// Future is the pending result of one pipelined operation.
type Future struct {
	p     *Pipeline
	done  chan struct{}
	op    Op
	trace rtrace.Context // stamped at Submit; fallback re-runs keep it
	resp  wire.Response
	err   error // transport-level failure of the pipeline
}

// NewPipeline dials a dedicated connection for pipelined requests. The
// caller must Close the pipeline; outstanding futures then fail over to
// the pooled path when waited on.
func (cl *Client) NewPipeline(ctx context.Context) (*Pipeline, error) {
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", cl.targetAddr())
	if err != nil {
		return nil, fmt.Errorf("client: pipeline dial: %w", err)
	}
	p := &Pipeline{
		cl:         cl,
		c:          nc,
		bw:         bufio.NewWriterSize(nc, 32<<10),
		pending:    make(map[uint64]*Future),
		readerDone: make(chan struct{}),
	}
	go p.readLoop()
	return p, nil
}

// Submit enqueues one operation and returns its Future. The request may
// sit in the write buffer until Flush, a buffer-filling later Submit, or
// the first Wait on any of the pipeline's futures.
func (p *Pipeline) Submit(ctx context.Context, op Op) (*Future, error) {
	if op.Kind != wire.OpInsert && op.Kind != wire.OpDelete && op.Kind != wire.OpLookup {
		return nil, fmt.Errorf("%w: unknown op kind %d", ErrBadRequest, op.Kind)
	}
	f := &Future{p: p, done: make(chan struct{}), op: op, trace: p.cl.cfg.Trace.SampleNext()}
	req := wire.Request{
		ID:         p.cl.id.Add(1),
		Op:         op.Kind,
		DeadlineMS: deadlineMS(ctx),
		Key:        op.Key,
		Trace:      f.trace,
	}
	p.cl.stats[statRequests].Add(1)

	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.err != nil {
		return nil, p.err
	}
	// Register before writing: the response can race back before the
	// write lock is released.
	p.pending[req.ID] = f
	buf := wire.GetBuf()
	*buf = wire.AppendRequest((*buf)[:0], req)
	err := wire.WriteFrame(p.bw, *buf)
	wire.PutBuf(buf)
	if err != nil {
		delete(p.pending, req.ID)
		p.failLocked(fmt.Errorf("client: pipeline write: %w", err))
		return nil, p.err
	}
	p.unsent++
	return f, nil
}

// Flush pushes all buffered requests onto the wire.
func (p *Pipeline) Flush() error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.flushLocked()
}

func (p *Pipeline) flushLocked() error {
	if p.err != nil {
		return p.err
	}
	if p.unsent == 0 {
		return nil
	}
	if err := p.bw.Flush(); err != nil {
		p.failLocked(fmt.Errorf("client: pipeline flush: %w", err))
		return p.err
	}
	p.unsent = 0
	return nil
}

// failLocked poisons the pipeline (wmu held): the sticky error fails
// future Submits, the connection close unblocks the reader, and the
// reader fails every pending future.
func (p *Pipeline) failLocked(err error) {
	if p.err == nil {
		p.err = err
	}
	p.c.Close()
}

// Close tears the pipeline down. Futures not yet answered complete with a
// transport error; waiting on them falls back to the pooled path.
func (p *Pipeline) Close() error {
	p.wmu.Lock()
	p.flushLocked() // best effort: answered-but-buffered must not strand peers
	p.failLocked(ErrPipelineClosed)
	p.wmu.Unlock()
	<-p.readerDone
	return nil
}

// readLoop demultiplexes responses to futures until the connection dies.
func (p *Pipeline) readLoop() {
	defer close(p.readerDone)
	br := bufio.NewReaderSize(p.c, 32<<10)
	var scratch []byte
	for {
		payload, s, err := wire.ReadFrame(br, scratch)
		scratch = s
		if err != nil {
			p.wmu.Lock()
			p.failLocked(fmt.Errorf("client: pipeline read: %w", err))
			for id, f := range p.pending {
				delete(p.pending, id)
				f.err = p.err
				close(f.done)
			}
			p.wmu.Unlock()
			return
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			p.wmu.Lock()
			p.failLocked(fmt.Errorf("client: pipeline decode: %w", err))
			p.wmu.Unlock()
			continue // the read error on the closed conn finishes the loop
		}
		p.wmu.Lock()
		f := p.pending[resp.ID]
		delete(p.pending, resp.ID)
		p.wmu.Unlock()
		if f == nil {
			continue // stale response for a future torn down by a failure
		}
		f.resp = resp
		close(f.done)
	}
}

// Wait blocks for the operation's outcome. The status table decides what
// a non-OK outcome means: a permanent one returns its error, a retryable
// one — or a broken pipeline — re-runs the operation through the client's
// pooled retry loop as its second attempt, so Wait returns what the
// equivalent synchronous call would have: the same results, the same
// sentinel errors, the same redirect following and backoff discipline.
func (f *Future) Wait(ctx context.Context) (bool, error) {
	select {
	case <-f.done:
	default:
		// Nothing can complete until buffered requests actually leave; a
		// flush failure needs no handling here, because it poisons the
		// pipeline and the reader then fails this future promptly.
		f.p.Flush()
		select {
		case <-f.done:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}

	// A pipeline that died before answering leaves the operation's effect
	// unknown. All three point ops are safe to re-run: they are idempotent
	// in effect, and the retried observation is as valid a linearization
	// as the lost one.
	cl, lastErr := f.p.cl, f.err
	if lastErr == nil {
		if f.resp.Status == wire.StatusOK {
			return f.resp.OK, nil
		}
		var class retryClass
		if class, lastErr = cl.fail(f.resp.Status, f.resp.Leader, f.trace, 0); class == permanent {
			return false, lastErr
		}
	}
	x := call{req: wire.Request{Op: f.op.Kind, Key: f.op.Key, Trace: f.trace}}
	if err := cl.do(ctx, &x, 1, lastErr); err != nil {
		return false, err
	}
	return x.resp.OK, nil
}
