// Package wire defines the binary protocol spoken between the bstserve
// server (internal/server) and its client (internal/client).
//
// Every message is a length-prefixed frame:
//
//	uint32 length (big-endian, length of the payload that follows)
//	payload
//
// A request payload is
//
//	uint64 id          correlation id, echoed in the response
//	uint8  op          OpInsert | OpDelete | OpLookup | OpRange
//	uint32 deadline_ms time budget for the request (0 = server default)
//	int64  key         the key (Range: lower bound, inclusive)
//	[op bit 7 set: 16-byte trace context — see below]
//	[Range only]
//	int64  to          upper bound, inclusive
//	uint32 limit       maximum keys to return (0 = server default)
//
// Tracing rides an optional extension: when bit 7 of the op/kind byte
// (TraceFlag) is set, a 16-byte rtrace context (uint64 trace id, uint32
// span id, uint8 flags, 3 reserved zero bytes) is inserted immediately
// after the 21-byte base header and every op-specific tail shifts by 16.
// Op codes never use bit 7, so legacy frames decode unchanged and
// decoders mask the bit out before interpreting the op. Responses carry
// no extension — the requesting client already holds the context.
// Replication frames place the same context (plus the covered WAL
// sequence) directly after the kind byte; see repl.go.
//
// and a response payload is
//
//	uint64 id          copied from the request
//	uint8  status      see Status
//	uint8  ok          operation result bit (insert/delete: changed,
//	                   lookup: present); 0 unless status is StatusOK
//	[Range + StatusOK only]
//	uint32 count
//	count × int64 keys (ascending)
//
// An OpBatch request carries up to MaxBatchOps point operations in one
// frame; its payload extends the base request (whose key field is reserved
// and must be 0) with
//
//	uint16 count
//	count × { uint8 subop (OpInsert|OpDelete|OpLookup); int64 key }
//
// and a StatusOK batch response extends the base response (ok = 0) with
//
//	uint32 count       equal to the request's count
//	count × { uint8 status; uint8 ok }
//
// so every operation reports its own status: one key hitting capacity or
// the key range does not poison its neighbours. A batch response whose
// frame-level status is not StatusOK has no per-op tail — the frame status
// applies to every operation (the batch was rejected before execution).
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

// MaxFrame bounds a frame payload. Large enough for a full range response
// (RangeLimit keys), small enough that a malicious length prefix cannot make
// the server allocate unboundedly.
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

	// OpLookupAt is Contains with a sequence floor: the request's payload
	// extends the base request with a uint64 minSeq, and the server blocks
	// until its applied sequence reaches minSeq (read-your-writes on a
	// follower) or the deadline expires (StatusReplLag).
	OpLookupAt uint8 = 10

	// OpAggregate is an order-statistics query (rank/select/count/sum over
	// a key range). The request tail and the dedicated response codec live
	// in aggregate.go; the response value is a single int64, so the generic
	// Response shape does not apply.
	OpAggregate uint8 = 12
)

// MaxBatchOps bounds the operations one OpBatch frame may carry. At 9
// bytes per op the largest batch request stays well inside MaxFrame, and
// the bound keeps a single frame's tree time short enough that batching
// cannot starve the connection's deadline handling.
const MaxBatchOps = 1024

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
	// server drops the connection after sending it when the stream can no
	// longer be trusted.
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

// Request is one decoded request frame.
type Request struct {
	ID         uint64
	Op         uint8
	DeadlineMS uint32 // 0 = use the server's default deadline
	Key        int64
	To         int64  // OpRange only
	Limit      uint32 // OpRange only; 0 = server default
	MinSeq     uint64 // OpLookupAt only: applied-sequence floor
	// Trace is the optional trace context (zero = untraced). Encoded only
	// when non-zero, signalled by TraceFlag on the op byte.
	Trace rtrace.Context
}

// Response is one decoded response frame.
type Response struct {
	ID     uint64
	Status Status
	OK     bool
	Keys   []int64 // OpRange results
	Leader string  // StatusNotLeader/StatusFenced only: the leader's data address
}

// Frame-shape errors.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated   = errors.New("wire: truncated frame")
	ErrBatchTooBig = errors.New("wire: batch exceeds MaxBatchOps")
	ErrBadBatchOp  = errors.New("wire: batch carries a non-point operation")
)

const (
	reqBaseLen   = 8 + 1 + 4 + 8 // id, op, deadline, key
	reqRangeLen  = reqBaseLen + 8 + 4
	reqMinSeqLen = reqBaseLen + 8
	respBaseLen  = 8 + 1 + 1 // id, status, ok
)

// AppendRequest appends q's payload encoding to dst and returns it. A
// non-zero Trace sets TraceFlag on the op byte and inserts the 16-byte
// context after the base header.
func AppendRequest(dst []byte, q Request) []byte {
	dst = binary.BigEndian.AppendUint64(dst, q.ID)
	op := q.Op
	traced := q.Trace != (rtrace.Context{})
	if traced {
		op |= TraceFlag
	}
	dst = append(dst, op)
	dst = binary.BigEndian.AppendUint32(dst, q.DeadlineMS)
	dst = binary.BigEndian.AppendUint64(dst, uint64(q.Key))
	if traced {
		dst = rtrace.AppendContext(dst, q.Trace)
	}
	if q.Op == OpRange {
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.To))
		dst = binary.BigEndian.AppendUint32(dst, q.Limit)
	}
	if q.Op == OpLookupAt {
		dst = binary.BigEndian.AppendUint64(dst, q.MinSeq)
	}
	return dst
}

// DecodeRequest decodes a request payload, masking TraceFlag out of the op
// byte and filling Trace when the extension is present.
func DecodeRequest(frame []byte) (Request, error) {
	var q Request
	if len(frame) < reqBaseLen {
		return q, ErrTruncated
	}
	q.ID = binary.BigEndian.Uint64(frame[0:8])
	q.Op = frame[8]
	q.DeadlineMS = binary.BigEndian.Uint32(frame[9:13])
	q.Key = int64(binary.BigEndian.Uint64(frame[13:21]))
	off := reqBaseLen
	if q.Op&TraceFlag != 0 {
		q.Op &^= TraceFlag
		tc, ok := rtrace.DecodeContext(frame[off:])
		if !ok {
			return q, ErrTruncated
		}
		q.Trace = tc
		off += rtrace.ContextLen
	}
	if q.Op == OpRange {
		if len(frame) < off+12 {
			return q, ErrTruncated
		}
		q.To = int64(binary.BigEndian.Uint64(frame[off : off+8]))
		q.Limit = binary.BigEndian.Uint32(frame[off+8 : off+12])
	}
	if q.Op == OpLookupAt {
		if len(frame) < off+8 {
			return q, ErrTruncated
		}
		q.MinSeq = binary.BigEndian.Uint64(frame[off : off+8])
	}
	return q, nil
}

// AppendResponse appends p's payload encoding to dst and returns it.
func AppendResponse(dst []byte, p Response) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.ID)
	dst = append(dst, uint8(p.Status))
	var ok byte
	if p.OK {
		ok = 1
	}
	dst = append(dst, ok)
	if p.Status == StatusNotLeader || p.Status == StatusFenced {
		// The redirect tail replaces the keys tail: a NotLeader/Fenced
		// response never carries keys, and the status byte tells the
		// decoder which shape follows.
		addr := p.Leader
		if len(addr) > MaxReplAddr {
			addr = addr[:MaxReplAddr]
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(addr)))
		return append(dst, addr...)
	}
	if p.Keys != nil {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Keys)))
		for _, k := range p.Keys {
			dst = binary.BigEndian.AppendUint64(dst, uint64(k))
		}
	}
	return dst
}

// DecodeResponse decodes a response payload.
func DecodeResponse(frame []byte) (Response, error) {
	var p Response
	if len(frame) < respBaseLen {
		return p, ErrTruncated
	}
	p.ID = binary.BigEndian.Uint64(frame[0:8])
	p.Status = Status(frame[8])
	p.OK = frame[9] != 0
	if p.Status == StatusNotLeader || p.Status == StatusFenced {
		rest := frame[respBaseLen:]
		if len(rest) < 2 {
			return p, ErrTruncated
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if n > MaxReplAddr || len(rest) != n {
			return p, ErrTruncated
		}
		p.Leader = string(rest)
		return p, nil
	}
	if len(frame) > respBaseLen {
		rest := frame[respBaseLen:]
		if len(rest) < 4 {
			return p, ErrTruncated
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		// 64-bit compare: n*8 in uint32 wraps for n >= 1<<29, which would
		// let a hostile length prefix through to a giant allocation.
		if uint64(len(rest)) != uint64(n)*8 {
			return p, ErrTruncated
		}
		p.Keys = make([]int64, n)
		for i := range p.Keys {
			p.Keys[i] = int64(binary.BigEndian.Uint64(rest[i*8:]))
		}
	}
	return p, nil
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

// AppendBatchRequest appends an OpBatch request payload to dst and returns
// it. It panics when ops exceeds MaxBatchOps or contains a non-point
// subop — both are programmer errors on the encoding side (the client
// splits oversized batches before encoding).
func AppendBatchRequest(dst []byte, id uint64, deadlineMS uint32, tc rtrace.Context, ops []BatchOp) []byte {
	if len(ops) > MaxBatchOps {
		panic(ErrBatchTooBig)
	}
	dst = binary.BigEndian.AppendUint64(dst, id)
	op := OpBatch
	if tc != (rtrace.Context{}) {
		op |= TraceFlag
	}
	dst = append(dst, op)
	dst = binary.BigEndian.AppendUint32(dst, deadlineMS)
	dst = binary.BigEndian.AppendUint64(dst, 0) // reserved key field
	if tc != (rtrace.Context{}) {
		dst = rtrace.AppendContext(dst, tc)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ops)))
	for _, o := range ops {
		if o.Op != OpInsert && o.Op != OpDelete && o.Op != OpLookup {
			panic(ErrBadBatchOp)
		}
		dst = append(dst, o.Op)
		dst = binary.BigEndian.AppendUint64(dst, uint64(o.Key))
	}
	return dst
}

// DecodeBatchOps decodes the per-op tail of an OpBatch request payload
// (the caller has already run DecodeRequest on frame and seen Op ==
// OpBatch), appending the operations to dst so a per-connection scratch
// slice makes the steady-state decode allocation-free.
func DecodeBatchOps(frame []byte, dst []BatchOp) ([]BatchOp, error) {
	off := reqBaseLen
	if len(frame) > 8 && frame[8]&TraceFlag != 0 {
		off += rtrace.ContextLen
	}
	if len(frame) < off+2 {
		return dst, ErrTruncated
	}
	rest := frame[off:]
	n := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if n > MaxBatchOps {
		return dst, ErrBatchTooBig
	}
	if len(rest) != n*9 {
		return dst, ErrTruncated
	}
	for i := 0; i < n; i++ {
		op := rest[i*9]
		if op != OpInsert && op != OpDelete && op != OpLookup {
			return dst, ErrBadBatchOp
		}
		dst = append(dst, BatchOp{
			Op:  op,
			Key: int64(binary.BigEndian.Uint64(rest[i*9+1:])),
		})
	}
	return dst, nil
}

// AppendBatchResponse appends a StatusOK OpBatch response payload carrying
// one result per operation. Frame-level failures (overload, draining, bad
// request) use a plain AppendResponse with no per-op tail.
func AppendBatchResponse(dst []byte, id uint64, results []BatchResult) []byte {
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, uint8(StatusOK))
	dst = append(dst, 0) // the frame-level ok bit is unused for batches
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(results)))
	for _, r := range results {
		var ok byte
		if r.OK {
			ok = 1
		}
		dst = append(dst, uint8(r.Status), ok)
	}
	return dst
}

// DecodeBatchResponse decodes an OpBatch response payload, appending the
// per-op results to dst. When the frame-level status is not StatusOK there
// is no per-op tail: the returned results are dst unchanged and st tells
// the caller what happened to the whole batch.
func DecodeBatchResponse(frame []byte, dst []BatchResult) (id uint64, st Status, results []BatchResult, err error) {
	if len(frame) < respBaseLen {
		return 0, 0, dst, ErrTruncated
	}
	id = binary.BigEndian.Uint64(frame[0:8])
	st = Status(frame[8])
	if st != StatusOK {
		return id, st, dst, nil
	}
	rest := frame[respBaseLen:]
	if len(rest) < 4 {
		return id, st, dst, ErrTruncated
	}
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if n > MaxBatchOps {
		return id, st, dst, ErrBatchTooBig
	}
	if len(rest) != n*2 {
		return id, st, dst, ErrTruncated
	}
	for i := 0; i < n; i++ {
		dst = append(dst, BatchResult{
			Status: Status(rest[i*2]),
			OK:     rest[i*2+1] != 0,
		})
	}
	return id, st, dst, nil
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
