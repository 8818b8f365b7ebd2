// Replication frames (internal/repl's leader↔follower stream).
//
// Replication runs on a dedicated connection, separate from the data
// plane, but shares the same uint32-length framing (ReadFrame/WriteFrame)
// and the same op/kind byte namespace so a frame can never be mistaken
// for a data-plane request. The stream is asymmetric:
//
//	follower → leader   ReplSubscribe   once, right after dialing
//	leader  → follower  ReplSnapshot*   catch-up chunks (only when the
//	                                    follower is behind the leader's
//	                                    oldest retained WAL record)
//	leader  → follower  ReplFrames*     committed WAL frames; an empty
//	                                    batch (N = 0) is a heartbeat
//	follower → leader   ReplAck*        cumulative applied/durable seqs
//
// and a ReplStatus exchange (either direction, on a dedicated probe
// connection) carries one node's election-relevant identity: the prober
// sends its own status first and reads the peer's in reply, so both sides
// learn the other's term, and a freshly promoted leader announcing itself
// and a candidate ranking the field use the same frame.
//
// Every payload starts with its kind byte, after which come the kind's
// fields in this order, all integers big-endian:
//
//	kind           fields
//	ReplSubscribe  Seq; Term
//	ReplFrames     Term; Seq; Addr; N; Frames
//	ReplAck        Seq; DurableSeq; Term
//	ReplStatus     Term; IsLeader; Priority; Seq; Addr; ReplAddr
//	ReplSnapshot   Seq; Final; uint32 n; n × int64 Keys
//
// Term, Seq and DurableSeq are uint64, IsLeader and Final one byte that
// must be 0 or 1, Priority an int32 in two's complement, Addr and
// ReplAddr a uint16 length n ≤ MaxReplAddr followed by n bytes, N a
// uint32, and Frames the rest of the payload. Each kind's fields fill the
// payload exactly. What Seq means depends on the kind; Repl's field docs
// give each meaning. Repl and the one codec pair AppendRepl/DecodeRepl
// hold every kind's fields and are the only place this table is read.
//
// A ReplFrames payload carries the leader's term and advertised data
// address on every frame, heartbeats included, so followers always know
// who to redirect clients to and can adopt a newer term the moment it
// appears.
//
// Every replication kind accepts the optional trace extension: when bit 7
// of the kind byte (TraceFlag) is set, a 24-byte block — the 16-byte
// rtrace context plus the uint64 WAL sequence it covers — sits directly
// after the kind byte, before the kind's own fields. The leader attaches
// it to a ReplFrames batch that covers a sampled request's record, so the
// follower can parent its apply span under the leader's request span; a
// follower may echo it on the covering ReplAck.
package wire

import (
	"encoding/binary"
	"errors"

	"repro/internal/rtrace"
)

// Replication frame kinds, continuing the operation byte namespace.
const (
	ReplSubscribe uint8 = 6
	ReplFrames    uint8 = 7
	ReplAck       uint8 = 8
	ReplSnapshot  uint8 = 9
	// 10 is OpLookupAt on the data plane (see wire.go).
	ReplStatus uint8 = 11
)

// MaxReplAddr bounds an address string inside a replication payload;
// anything longer is a protocol error, not a real address.
const MaxReplAddr = 256

// MaxSnapshotChunk bounds the keys one ReplSnapshot chunk may carry, sized
// so a full chunk stays inside MaxFrame.
const MaxSnapshotChunk = (MaxFrame - 64) / 8

// ErrBadReplFrame reports a replication payload of an unknown kind or
// with a field out of its range.
var ErrBadReplFrame = errors.New("wire: malformed replication frame")

// replTraceExtLen is the encoded trace extension on replication frames:
// the 16-byte context plus the uint64 WAL sequence it covers.
const replTraceExtLen = rtrace.ContextLen + 8

// Repl is one replication frame of any kind. Each field is read only by
// the kinds the package table gives it.
type Repl struct {
	Kind uint8
	// Term is the sender's term (Subscribe, Ack: the highest it has
	// observed, 0 = none yet). A semi-sync leader counts an ack only from
	// its own term or 0; an ack from a newer term proves it was deposed.
	Term uint64
	// Seq is the kind's sequence number. Subscribe: the follower has
	// applied every record at or below it. Frames: the leader's newest
	// assigned sequence. Ack: the newest record the follower applied,
	// cumulative, so one ack covers a whole window of frames. Status: the
	// node's applied sequence. Snapshot: the WAL horizon the snapshot
	// covers.
	Seq        uint64
	DurableSeq uint64 // Ack: newest record fsynced by the follower's WAL
	// Addr is a data-plane address. Frames: the leader's, for client
	// redirects. Status: the node's own, the stable identity an election
	// breaks ties on, the same string on every node whichever proxy or
	// interface the probe dialed.
	Addr     string
	ReplAddr string // Status: the node's replication listener address
	IsLeader bool   // Status
	Priority int32  // Status: election priority
	// N is the number of WAL frames a Frames batch holds; 0 is a
	// heartbeat, which carries no frame bytes. The receiver walks them
	// with wal.DecodeFrame, which validates each frame's own CRC.
	N uint32
	// Frames holds verbatim on-disk WAL frames. A decoded Frames aliases
	// the input and is valid only until the buffer's next reuse.
	Frames []byte
	Final  bool    // Snapshot: the last chunk of the transfer
	Keys   []int64 // Snapshot: strictly ascending within and across chunks
	// Trace/TraceSeq carry the optional trace extension (both zero =
	// absent): the context of a sampled request whose WAL record
	// (TraceSeq) a Frames batch covers, so the follower's apply span links
	// into the leader's span tree; an Ack may echo it.
	Trace    rtrace.Context
	TraceSeq uint64
}

// AppendRepl appends m's payload encoding to dst and returns it. It
// panics when an address exceeds MaxReplAddr or the keys exceed
// MaxSnapshotChunk: addresses are validated configuration and the sender
// chunks keys before encoding, so either is a programmer error.
func AppendRepl(dst []byte, m *Repl) []byte {
	if len(m.Addr) > MaxReplAddr || len(m.ReplAddr) > MaxReplAddr || len(m.Keys) > MaxSnapshotChunk {
		panic(ErrBadReplFrame)
	}
	if m.Trace == (rtrace.Context{}) && m.TraceSeq == 0 {
		dst = append(dst, m.Kind)
	} else {
		dst = append(dst, m.Kind|TraceFlag)
		dst = rtrace.AppendContext(dst, m.Trace)
		dst = binary.BigEndian.AppendUint64(dst, m.TraceSeq)
	}
	switch m.Kind {
	case ReplSubscribe:
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		dst = binary.BigEndian.AppendUint64(dst, m.Term)
	case ReplFrames:
		dst = binary.BigEndian.AppendUint64(dst, m.Term)
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		dst = appendAddr(dst, m.Addr)
		dst = binary.BigEndian.AppendUint32(dst, m.N)
		dst = append(dst, m.Frames...)
	case ReplAck:
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		dst = binary.BigEndian.AppendUint64(dst, m.DurableSeq)
		dst = binary.BigEndian.AppendUint64(dst, m.Term)
	case ReplStatus:
		dst = binary.BigEndian.AppendUint64(dst, m.Term)
		dst = append(dst, bit(m.IsLeader))
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Priority))
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		dst = appendAddr(dst, m.Addr)
		dst = appendAddr(dst, m.ReplAddr)
	case ReplSnapshot:
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		dst = append(dst, bit(m.Final))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Keys)))
		for _, k := range m.Keys {
			dst = binary.BigEndian.AppendUint64(dst, uint64(k))
		}
	}
	return dst
}

// DecodeRepl decodes a replication payload of any kind into m, masking
// TraceFlag out of the kind byte; the caller checks m.Kind. It keeps the
// capacity of m.Keys, so a per-connection record decodes snapshot chunks
// without allocating, and overwrites every other field; Frames aliases
// frame. On error m holds what was decoded before it.
func DecodeRepl(frame []byte, m *Repl) (err error) {
	*m = Repl{Keys: m.Keys[:0]}
	if len(frame) < 1 {
		return ErrTruncated
	}
	m.Kind = frame[0] &^ TraceFlag
	body := frame[1:]
	if frame[0]&TraceFlag != 0 {
		if len(body) < replTraceExtLen {
			return ErrTruncated
		}
		m.Trace, _ = rtrace.DecodeContext(body)
		m.TraceSeq = binary.BigEndian.Uint64(body[rtrace.ContextLen:])
		body = body[replTraceExtLen:]
	}
	switch m.Kind {
	case ReplSubscribe:
		if len(body) != 8+8 {
			return ErrTruncated
		}
		m.Seq = binary.BigEndian.Uint64(body)
		m.Term = binary.BigEndian.Uint64(body[8:])
	case ReplFrames:
		if len(body) < 8+8+2 {
			return ErrTruncated
		}
		m.Term = binary.BigEndian.Uint64(body)
		m.Seq = binary.BigEndian.Uint64(body[8:])
		if m.Addr, body, err = decodeAddr(body[16:], 4); err != nil {
			return err
		}
		m.N = binary.BigEndian.Uint32(body)
		m.Frames = body[4:]
		// A WAL frame is at least its 8-byte header plus a 17-byte record,
		// so a claimed count the bytes cannot possibly hold is rejected
		// here rather than surfacing as a confusing CRC error in the apply
		// loop; a heartbeat's trailing bytes are rejected too.
		if m.N == 0 && len(m.Frames) != 0 || uint64(len(m.Frames)) < uint64(m.N)*8 {
			return ErrBadReplFrame
		}
	case ReplAck:
		if len(body) != 8+8+8 {
			return ErrTruncated
		}
		m.Seq = binary.BigEndian.Uint64(body)
		m.DurableSeq = binary.BigEndian.Uint64(body[8:])
		m.Term = binary.BigEndian.Uint64(body[16:])
	case ReplStatus:
		if len(body) < 8+1+4+8+2 {
			return ErrTruncated
		}
		m.Term = binary.BigEndian.Uint64(body)
		if m.IsLeader, err = decodeBit(body[8]); err != nil {
			return err
		}
		m.Priority = int32(binary.BigEndian.Uint32(body[9:]))
		m.Seq = binary.BigEndian.Uint64(body[13:])
		if m.Addr, body, err = decodeAddr(body[21:], 2); err != nil {
			return err
		}
		if m.ReplAddr, body, err = decodeAddr(body, 0); err != nil {
			return err
		}
		if len(body) != 0 {
			return ErrTruncated
		}
	case ReplSnapshot:
		if len(body) < 8+1+4 {
			return ErrTruncated
		}
		m.Seq = binary.BigEndian.Uint64(body)
		if m.Final, err = decodeBit(body[8]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(body[9:])
		if n > MaxSnapshotChunk {
			return ErrBadReplFrame
		}
		body = body[13:]
		if uint64(len(body)) != uint64(n)*8 {
			return ErrTruncated
		}
		for i := 0; i < int(n); i++ {
			m.Keys = append(m.Keys, int64(binary.BigEndian.Uint64(body[i*8:])))
		}
	default:
		return ErrBadReplFrame
	}
	return nil
}

func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decodeBit reads a 0/1 byte; any other value is malformed, not coerced.
func decodeBit(b byte) (bool, error) {
	if b > 1 {
		return false, ErrBadReplFrame
	}
	return b == 1, nil
}

func appendAddr(dst []byte, addr string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(addr)))
	return append(dst, addr...)
}

// decodeAddr reads a length-prefixed address from b, which holds at
// least its 2-byte length, and requires the after bytes of the next
// fields to follow it. It returns the address and the bytes past it.
func decodeAddr(b []byte, after int) (string, []byte, error) {
	n := int(binary.BigEndian.Uint16(b))
	if n > MaxReplAddr {
		return "", nil, ErrBadReplFrame
	}
	if b = b[2:]; len(b) < n+after {
		return "", nil, ErrTruncated
	}
	return string(b[:n]), b[n:], nil
}
