package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/rtrace"
)

// Aggregate (order-statistics) frames. An OpAggregate request reuses the
// 21-byte base request header — the base Key field carries the query's
// primary operand (the rank key, the range's low bound, or the select
// index) — and extends it with an 18-byte tail:
//
//	kind     uint8   // AggRank | AggSelect | AggCount | AggSum
//	mode     uint8   // AggModeStale | AggModeExact
//	maxDirty uint64  // staleness budget; meaningful in stale mode only
//	to       int64   // range high bound (count/sum); ignored otherwise
//
// The response is a single int64 (a rank, a count, a sum, or a selected
// key), which the generic Response shape cannot carry, so aggregates get
// a dedicated response codec: the 10-byte response base (id, status, ok)
// followed by the value — present only when the status is StatusOK, like
// the batch response's per-op tail. The decoder is picked by the caller
// (the client knows which op it sent on this id), exactly as with
// DecodeBatchResponse.

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

// ErrBadAggregate flags an aggregate frame whose lengths parse but whose
// kind or mode byte names nothing.
var ErrBadAggregate = errors.New("wire: bad aggregate kind or mode")

const aggTailLen = 1 + 1 + 8 + 8 // kind, mode, maxDirty, to

// AggregateRequest is one decoded OpAggregate frame.
type AggregateRequest struct {
	ID         uint64
	DeadlineMS uint32
	Kind       uint8
	Mode       uint8
	MaxDirty   uint64 // AggModeStale only
	Key        int64  // rank key, range low bound, or select index
	To         int64  // AggCount/AggSum only: range high bound
	Trace      rtrace.Context
}

// AppendAggregateRequest appends q's payload encoding to dst and returns
// it. A non-zero Trace sets TraceFlag on the op byte, as everywhere.
func AppendAggregateRequest(dst []byte, q AggregateRequest) []byte {
	dst = binary.BigEndian.AppendUint64(dst, q.ID)
	op := OpAggregate
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
	dst = append(dst, q.Kind, q.Mode)
	dst = binary.BigEndian.AppendUint64(dst, q.MaxDirty)
	dst = binary.BigEndian.AppendUint64(dst, uint64(q.To))
	return dst
}

// DecodeAggregate decodes a full OpAggregate request frame (base header
// plus tail). The tail length is exact: trailing bytes are a framing
// error, like the batch decoder.
func DecodeAggregate(frame []byte) (AggregateRequest, error) {
	var q AggregateRequest
	if len(frame) < reqBaseLen {
		return q, ErrTruncated
	}
	q.ID = binary.BigEndian.Uint64(frame[0:8])
	op := frame[8]
	q.DeadlineMS = binary.BigEndian.Uint32(frame[9:13])
	q.Key = int64(binary.BigEndian.Uint64(frame[13:21]))
	off := reqBaseLen
	if op&TraceFlag != 0 {
		op &^= TraceFlag
		tc, ok := rtrace.DecodeContext(frame[off:])
		if !ok {
			return q, ErrTruncated
		}
		q.Trace = tc
		off += rtrace.ContextLen
	}
	if op != OpAggregate {
		return q, fmt.Errorf("%w: op %d is not aggregate", ErrBadAggregate, op)
	}
	if len(frame) != off+aggTailLen {
		return q, ErrTruncated
	}
	q.Kind = frame[off]
	q.Mode = frame[off+1]
	q.MaxDirty = binary.BigEndian.Uint64(frame[off+2 : off+10])
	q.To = int64(binary.BigEndian.Uint64(frame[off+10 : off+18]))
	if q.Kind < AggRank || q.Kind > AggSum {
		return q, fmt.Errorf("%w: kind %d", ErrBadAggregate, q.Kind)
	}
	if q.Mode != AggModeStale && q.Mode != AggModeExact {
		return q, fmt.Errorf("%w: mode %d", ErrBadAggregate, q.Mode)
	}
	return q, nil
}

// AggregateResponse is one decoded OpAggregate response frame. Value is
// meaningful only when Status is StatusOK.
type AggregateResponse struct {
	ID     uint64
	Status Status
	Value  int64
}

// AppendAggregateResponse appends p's payload encoding to dst and returns
// it: the response base (ok mirrors Status == StatusOK) plus the int64
// value, present only on success.
func AppendAggregateResponse(dst []byte, p AggregateResponse) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.ID)
	dst = append(dst, uint8(p.Status))
	var ok byte
	if p.Status == StatusOK {
		ok = 1
	}
	dst = append(dst, ok)
	if p.Status == StatusOK {
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Value))
	}
	return dst
}

// DecodeAggregateResponse decodes an OpAggregate response payload. The
// caller knows the request it sent on this id was an aggregate, exactly
// as with DecodeBatchResponse.
func DecodeAggregateResponse(frame []byte) (AggregateResponse, error) {
	var p AggregateResponse
	if len(frame) < respBaseLen {
		return p, ErrTruncated
	}
	p.ID = binary.BigEndian.Uint64(frame[0:8])
	p.Status = Status(frame[8])
	if p.Status == StatusOK {
		if len(frame) != respBaseLen+8 {
			return p, ErrTruncated
		}
		p.Value = int64(binary.BigEndian.Uint64(frame[respBaseLen:]))
		return p, nil
	}
	if len(frame) != respBaseLen {
		return p, ErrTruncated
	}
	return p, nil
}
