// Package wire defines the binary protocol spoken between the bstserve
// server (internal/server) and its client (internal/client).
//
// Every message is a length-prefixed frame:
//
//	uint32 length (big-endian, length of the payload that follows)
//	payload
//
// Every data-plane request payload starts with one 21-byte header
//
//	uint64 id          correlation id, echoed in the response
//	uint8  op          an Op code; bit 7 is TraceFlag (see below)
//	uint32 deadline_ms time budget for the request (0 = server default)
//	int64  key         the key; Range and Aggregate: the first operand;
//	                   Batch: reserved, 0
//
// and every response payload with one 10-byte base
//
//	uint64 id          copied from the request
//	uint8  status      see Status
//	uint8  ok          the result bit (insert/delete: changed, lookup:
//	                   present, range and aggregate: 1, batch: 0);
//	                   0 unless status is StatusOK
//
// after which comes the op's tail, all integers big-endian:
//
//	op           request tail               response tail on StatusOK
//	OpInsert     -                          -
//	OpDelete     -                          -
//	OpLookup     -                          -
//	OpLookupAt   uint64 min_seq             -
//	OpRange      int64 to; uint32 limit     uint32 n; n × int64 keys
//	OpAggregate  uint8 kind; uint8 mode;    int64 value
//	             uint64 max_dirty; int64 to
//	OpBatch      uint16 n;                  uint32 n;
//	             n × {uint8 op; int64 key}  n × {uint8 status; uint8 ok}
//
// A StatusNotLeader or StatusFenced response, to any op, carries the
// redirect tail (uint16 n; n bytes of the leader's data address, n = 0
// when none is known) instead. Any other status carries no tail: an
// aggregate error or a batch refused as a whole (shed, drained, bad
// request) is the bare base. The five single-key ops — Insert, Delete,
// Lookup, LookupAt and Range — share one response shape, in which the
// keys tail may follow any non-redirect status (only Range on StatusOK
// sends one). A single-key request tail is a minimum length, trailing
// bytes ignored; the aggregate and batch tails and every response tail
// must fill the payload exactly. Request, Response and the one codec pair
// for each (AppendRequest/DecodeRequest, AppendResponse/DecodeResponse)
// hold every op's fields and are the only place this table is read.
//
// Tracing rides an optional extension: when bit 7 of the op/kind byte
// (TraceFlag) is set, a 16-byte rtrace context (uint64 trace id, uint32
// span id, uint8 flags, 3 reserved zero bytes) is inserted immediately
// after the 21-byte header and every op-specific tail shifts by 16. Op
// codes never use bit 7, so legacy frames decode unchanged and decoders
// mask the bit out before interpreting the op. Responses carry no
// extension — the requesting client already holds the context.
// Replication frames place the same context (plus the covered WAL
// sequence) directly after the kind byte; see repl.go.
//
// A request too short for its header or trace extension fails to decode
// with ErrShortHeader. Any other request error lies in the op's tail; the
// frame boundary held, so a server answers it with StatusBadRequest and
// keeps the connection.
//
// The protocol is deliberately dumb: no negotiation, no streaming, one
// response per request. Clients may pipeline — ids disambiguate, and the
// server answers frames in order per connection, so a pipelined client can
// keep many frames in flight and pay one round trip for all of them (see
// internal/client's Pipeline). Frames above MaxFrame are a protocol error
// and the peer should drop the connection.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/rtrace"
)

// MaxFrame bounds a frame payload. Large enough for a full range response,
// small enough that a malicious length prefix cannot make the server
// allocate unboundedly.
const MaxFrame = 64 << 10

// TraceFlag marks an op/kind byte whose frame carries the optional 16-byte
// trace-context extension. Operation and replication kind codes stay below
// 0x80, so the bit is never ambiguous.
const TraceFlag = 0x80

// Operation codes.
const (
	OpInsert uint8 = 1 // TryInsert(key); ok = set changed
	OpDelete uint8 = 2 // Delete(key); ok = set changed
	OpLookup uint8 = 3 // Contains(key); ok = present
	OpRange  uint8 = 4 // keys in [key, to], at most limit
	OpBatch  uint8 = 5 // up to MaxBatchOps point ops, per-op status

	// 6–9 and 11 are the replication frame kinds (see repl.go); they never
	// appear as data-plane request ops.

	// OpLookupAt is Contains with a sequence floor: the server blocks until
	// its applied sequence reaches min_seq (read-your-writes on a follower)
	// or the deadline expires (StatusReplLag).
	OpLookupAt uint8 = 10

	// OpAggregate is an order-statistics query: rank, select, count or sum
	// over a key range (Kind), answered as one int64 value.
	OpAggregate uint8 = 12
)

// MaxBatchOps bounds the operations one OpBatch frame may carry. At 9
// bytes per op the largest batch request stays well inside MaxFrame, and
// the bound keeps a single frame's tree time short enough that batching
// cannot starve the connection's deadline handling.
const MaxBatchOps = 1024

// Aggregate query kinds.
const (
	AggRank   uint8 = 1 // # keys strictly below Key
	AggSelect uint8 = 2 // the Key-th smallest key (0-based)
	AggCount  uint8 = 3 // # keys in [Key, To], inclusive
	AggSum    uint8 = 4 // sum of keys in [Key, To], inclusive
)

// Aggregate consistency modes.
const (
	AggModeStale uint8 = 0 // bounded-stale: answer lags ≤ MaxDirty mutations
	AggModeExact uint8 = 1 // exact: linearized at the query's refresh point
)

// OpName returns a human-readable operation name.
func OpName(op uint8) string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpLookup:
		return "lookup"
	case OpRange:
		return "range"
	case OpBatch:
		return "batch"
	case OpLookupAt:
		return "lookup-at"
	case OpAggregate:
		return "aggregate"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}

// Status is a response status code. The three degradation codes are
// distinct on purpose: a client backs off differently for a server that is
// momentarily saturated (StatusOverloaded), a tree that is out of arena
// slots until deletes free some (StatusCapacity), and a server that is
// shutting down for good (StatusDraining).
type Status uint8

const (
	// StatusOK: the operation executed; the ok bit carries its result.
	StatusOK Status = iota
	// StatusOverloaded: load shed — the in-flight cap was reached and the
	// request was rejected *before* touching the tree. Retry after backoff.
	StatusOverloaded
	// StatusCapacity: the tree's arena is exhausted (bst.ErrCapacity).
	// Retry after a longer backoff; capacity returns only after deletes
	// plus reclamation free slots.
	StatusCapacity
	// StatusKeyOutOfRange: the key exceeds bst.MaxKey. Permanent.
	StatusKeyOutOfRange
	// StatusDeadlineExceeded: the request's time budget expired before or
	// during execution. The operation was not (or only partially, for
	// Range) performed.
	StatusDeadlineExceeded
	// StatusDraining: the server is shutting down gracefully. The
	// connection will close; reconnect elsewhere or retry after backoff.
	StatusDraining
	// StatusBadRequest: malformed frame or unknown op. Permanent; the
	// server drops the connection after sending it only when the request
	// header itself was cut short (ErrShortHeader).
	StatusBadRequest
	// StatusInternal: the handler panicked; the request's effect is
	// unknown and the connection is poisoned and will close.
	StatusInternal
	// StatusNotLeader: this replica is a follower and refuses writes; the
	// response's leader-address tail names who to talk to. Retry there.
	StatusNotLeader
	// StatusReplLag: an OpLookupAt's sequence floor was not reached before
	// the deadline — the follower is lagging. Retry, or read the leader.
	StatusReplLag
	// StatusFenced: this node was deposed by a newer leader term and
	// refuses the write — distinct from StatusNotLeader so clients know
	// their learned leader is stale, not merely wrong, and drop it from
	// any cache. The response carries the same leader-address tail as
	// StatusNotLeader ("" when the deposed node has not yet heard who
	// won). Retry against the named leader.
	StatusFenced
	// StatusNoIndex: an OpAggregate reached a server whose store was built
	// without order statistics (bst.WithOrderStatistics). Permanent for
	// this server — the client surfaces it as ErrNoOrderStats rather than
	// retrying.
	StatusNoIndex
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusOverloaded:
		return "overloaded"
	case StatusCapacity:
		return "capacity"
	case StatusKeyOutOfRange:
		return "key-out-of-range"
	case StatusDeadlineExceeded:
		return "deadline-exceeded"
	case StatusDraining:
		return "draining"
	case StatusBadRequest:
		return "bad-request"
	case StatusInternal:
		return "internal"
	case StatusNotLeader:
		return "not-leader"
	case StatusReplLag:
		return "repl-lag"
	case StatusFenced:
		return "fenced"
	case StatusNoIndex:
		return "no-index"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Request is one data-plane request frame. Each field is read only by the
// ops the package table gives it.
type Request struct {
	ID         uint64
	Op         uint8
	DeadlineMS uint32    // 0 = use the server's default deadline
	Key        int64     // the key; range low bound; rank key or select index
	To         int64     // OpRange, OpAggregate (count/sum): high bound
	Limit      uint32    // OpRange: maximum keys to return; 0 = server default
	MinSeq     uint64    // OpLookupAt: applied-sequence floor
	Kind       uint8     // OpAggregate: AggRank | AggSelect | AggCount | AggSum
	Mode       uint8     // OpAggregate: AggModeStale | AggModeExact
	MaxDirty   uint64    // OpAggregate, AggModeStale: staleness budget
	Ops        []BatchOp // OpBatch: at most MaxBatchOps point operations
	// Trace is the optional trace context (zero = untraced). Encoded only
	// when non-zero, signalled by TraceFlag on the op byte.
	Trace rtrace.Context
}

// Response is one data-plane response frame. Its tail fields are read
// only for the op and status the package table gives them.
type Response struct {
	ID      uint64
	Status  Status
	OK      bool
	Keys    []int64       // the single-key ops' keys tail (OpRange results)
	Leader  string        // StatusNotLeader/StatusFenced: the leader's data address
	Value   int64         // OpAggregate with StatusOK
	Results []BatchResult // OpBatch with StatusOK: one per operation
}

// BatchOp is one point operation inside an OpBatch request.
type BatchOp struct {
	Op  uint8 // OpInsert, OpDelete or OpLookup
	Key int64
}

// BatchResult is one operation's outcome inside an OpBatch response.
type BatchResult struct {
	Status Status
	OK     bool
}

// Frame-shape errors.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated   = errors.New("wire: truncated frame")
	// ErrShortHeader: a request payload ends inside its header or trace
	// extension. Every other request error lies past the header.
	ErrShortHeader  = fmt.Errorf("%w: request header", ErrTruncated)
	ErrBatchTooBig  = errors.New("wire: batch exceeds MaxBatchOps")
	ErrBadOp        = errors.New("wire: unknown op, or a non-point op inside a batch")
	ErrBadAggregate = errors.New("wire: bad aggregate kind or mode")
)

const (
	reqBaseLen  = 8 + 1 + 4 + 8 // id, op, deadline, key
	respBaseLen = 8 + 1 + 1     // id, status, ok
	aggTailLen  = 1 + 1 + 8 + 8 // kind, mode, maxDirty, to
)

// pointOp reports whether op may ride inside an OpBatch.
func pointOp(op uint8) bool { return op == OpInsert || op == OpDelete || op == OpLookup }

// redirect reports whether st carries the leader-address tail.
func redirect(st Status) bool { return st == StatusNotLeader || st == StatusFenced }

// AppendRequest appends q's payload encoding to dst and returns it. A
// non-zero Trace sets TraceFlag on the op byte and inserts the 16-byte
// context after the header. It panics when an OpBatch carries more than
// MaxBatchOps operations or a non-point one: the client splits and checks
// batches before encoding, so either is a programmer error.
func AppendRequest(dst []byte, q *Request) []byte {
	dst = binary.BigEndian.AppendUint64(dst, q.ID)
	traced := q.Trace != (rtrace.Context{})
	if traced {
		dst = append(dst, q.Op|TraceFlag)
	} else {
		dst = append(dst, q.Op)
	}
	dst = binary.BigEndian.AppendUint32(dst, q.DeadlineMS)
	dst = binary.BigEndian.AppendUint64(dst, uint64(q.Key))
	if traced {
		dst = rtrace.AppendContext(dst, q.Trace)
	}
	switch q.Op {
	case OpLookupAt:
		dst = binary.BigEndian.AppendUint64(dst, q.MinSeq)
	case OpRange:
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.To))
		dst = binary.BigEndian.AppendUint32(dst, q.Limit)
	case OpAggregate:
		dst = append(dst, q.Kind, q.Mode)
		dst = binary.BigEndian.AppendUint64(dst, q.MaxDirty)
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.To))
	case OpBatch:
		if len(q.Ops) > MaxBatchOps {
			panic(ErrBatchTooBig)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(q.Ops)))
		for _, o := range q.Ops {
			if !pointOp(o.Op) {
				panic(ErrBadOp)
			}
			dst = append(dst, o.Op)
			dst = binary.BigEndian.AppendUint64(dst, uint64(o.Key))
		}
	}
	return dst
}

// DecodeRequest decodes a request payload into q, masking TraceFlag out of
// the op byte. It keeps the capacity of q.Ops, so a per-connection record
// decodes batches without allocating, and overwrites every other field;
// on error q holds what was decoded before it.
func DecodeRequest(frame []byte, q *Request) error {
	*q = Request{Ops: q.Ops[:0]}
	if len(frame) < reqBaseLen {
		return ErrShortHeader
	}
	q.ID = binary.BigEndian.Uint64(frame[0:8])
	q.Op = frame[8] &^ TraceFlag
	q.DeadlineMS = binary.BigEndian.Uint32(frame[9:13])
	q.Key = int64(binary.BigEndian.Uint64(frame[13:21]))
	tail := frame[reqBaseLen:]
	if frame[8]&TraceFlag != 0 {
		tc, ok := rtrace.DecodeContext(tail)
		if !ok {
			return ErrShortHeader
		}
		q.Trace = tc
		tail = tail[rtrace.ContextLen:]
	}
	switch q.Op {
	case OpInsert, OpDelete, OpLookup:
	case OpLookupAt:
		if len(tail) < 8 {
			return ErrTruncated
		}
		q.MinSeq = binary.BigEndian.Uint64(tail)
	case OpRange:
		if len(tail) < 12 {
			return ErrTruncated
		}
		q.To = int64(binary.BigEndian.Uint64(tail))
		q.Limit = binary.BigEndian.Uint32(tail[8:])
	case OpAggregate:
		if len(tail) != aggTailLen {
			return ErrTruncated
		}
		q.Kind, q.Mode = tail[0], tail[1]
		q.MaxDirty = binary.BigEndian.Uint64(tail[2:])
		q.To = int64(binary.BigEndian.Uint64(tail[10:]))
		if q.Kind < AggRank || q.Kind > AggSum || q.Mode > AggModeExact {
			return ErrBadAggregate
		}
	case OpBatch:
		if len(tail) < 2 {
			return ErrTruncated
		}
		n := int(binary.BigEndian.Uint16(tail))
		tail = tail[2:]
		if n > MaxBatchOps {
			return ErrBatchTooBig
		}
		if len(tail) != n*9 {
			return ErrTruncated
		}
		for i := 0; i < n; i++ {
			op := tail[i*9]
			if !pointOp(op) {
				return ErrBadOp
			}
			q.Ops = append(q.Ops, BatchOp{Op: op, Key: int64(binary.BigEndian.Uint64(tail[i*9+1:]))})
		}
	default:
		return ErrBadOp
	}
	return nil
}

// AppendResponse appends p's payload encoding, the reply to a request for
// op, to dst and returns it.
func AppendResponse(dst []byte, op uint8, p *Response) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.ID)
	dst = append(dst, uint8(p.Status))
	if p.OK {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	switch {
	case redirect(p.Status):
		addr := p.Leader
		if len(addr) > MaxReplAddr {
			addr = addr[:MaxReplAddr]
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(addr)))
		dst = append(dst, addr...)
	case p.Status != StatusOK && (op == OpBatch || op == OpAggregate):
		// A refused batch or a failed aggregate is the bare base.
	case op == OpBatch:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Results)))
		for _, r := range p.Results {
			ok := byte(0)
			if r.OK {
				ok = 1
			}
			dst = append(dst, uint8(r.Status), ok)
		}
	case op == OpAggregate:
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Value))
	case p.Keys != nil:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Keys)))
		for _, k := range p.Keys {
			dst = binary.BigEndian.AppendUint64(dst, uint64(k))
		}
	}
	return dst
}

// DecodeResponse decodes a response payload, the reply to a request for
// op, into p. It keeps the capacity of p.Results, so a caller-owned record
// decodes batch replies without allocating, and overwrites every other
// field: Keys is a fresh slice, or nil when the reply has no keys tail.
func DecodeResponse(frame []byte, op uint8, p *Response) error {
	*p = Response{Results: p.Results[:0]}
	if len(frame) < respBaseLen {
		return ErrTruncated
	}
	p.ID = binary.BigEndian.Uint64(frame[0:8])
	p.Status = Status(frame[8])
	p.OK = frame[9] != 0
	tail := frame[respBaseLen:]
	switch {
	case redirect(p.Status):
		if len(tail) < 2 {
			return ErrTruncated
		}
		n := int(binary.BigEndian.Uint16(tail))
		if n > MaxReplAddr || len(tail) != 2+n {
			return ErrTruncated
		}
		p.Leader = string(tail[2:])
	case p.Status != StatusOK && (op == OpBatch || op == OpAggregate):
		if len(tail) != 0 {
			return ErrTruncated
		}
	case op == OpBatch:
		if len(tail) < 4 {
			return ErrTruncated
		}
		n := binary.BigEndian.Uint32(tail)
		tail = tail[4:]
		if n > MaxBatchOps {
			return ErrBatchTooBig
		}
		if len(tail) != int(n)*2 {
			return ErrTruncated
		}
		for i := 0; i < int(n); i++ {
			p.Results = append(p.Results, BatchResult{Status: Status(tail[i*2]), OK: tail[i*2+1] != 0})
		}
	case op == OpAggregate:
		if len(tail) != 8 {
			return ErrTruncated
		}
		p.Value = int64(binary.BigEndian.Uint64(tail))
	case len(tail) > 0:
		if len(tail) < 4 {
			return ErrTruncated
		}
		n := binary.BigEndian.Uint32(tail)
		tail = tail[4:]
		// 64-bit compare: n*8 in uint32 wraps for n >= 1<<29, which would
		// let a hostile length prefix through to a giant allocation.
		if uint64(len(tail)) != uint64(n)*8 {
			return ErrTruncated
		}
		p.Keys = make([]int64, n)
		for i := range p.Keys {
			p.Keys[i] = int64(binary.BigEndian.Uint64(tail[i*8:]))
		}
	}
	return nil
}

// bufPool recycles frame-payload buffers across requests. The hot paths
// that cannot keep a per-connection scratch buffer — the pipelined client
// encoding many concurrent requests, the server building responses while
// the previous one is still being flushed — get and put here instead of
// allocating per frame. Buffers start small (a point request is ~21 bytes)
// and grow in place; anything that grew past MaxFrame is dropped rather
// than pooled.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// GetBuf returns a zero-length reusable buffer from the frame pool.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a buffer obtained from GetBuf to the pool.
func PutBuf(b *[]byte) {
	if cap(*b) > MaxFrame {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// WriteFrame writes the 4-byte length prefix followed by payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, reusing scratch when it is
// large enough. It returns the payload slice (valid until the next call
// with the same scratch) and the possibly-grown scratch buffer.
func ReadFrame(r io.Reader, scratch []byte) (payload, newScratch []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, scratch, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, scratch, ErrFrameTooBig
	}
	if uint32(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	buf := scratch[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		// A partial body is a truncated frame regardless of the underlying
		// error (timeouts included): the stream is no longer framed.
		if err == io.ErrUnexpectedEOF {
			err = ErrTruncated
		}
		return nil, scratch, err
	}
	return buf, scratch, nil
}
