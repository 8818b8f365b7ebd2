// Replication frame kinds (internal/repl's leader↔follower stream).
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
//	                                    batch (n = 0) is a heartbeat
//	follower → leader   ReplAck*        cumulative applied/durable seqs
//
// A ReplFrames payload carries the leader's term and advertised data
// address on every frame, heartbeats included, so followers always know
// who to redirect clients to and can adopt a newer term the moment it
// appears.
//
// Payload formats, all integers big-endian, each starting with its kind
// byte:
//
//	ReplSubscribe:
//	  uint64 fromSeq   every record with seq ≤ fromSeq is already applied
//	  uint64 term      highest term the follower has observed
//
//	ReplFrames:
//	  uint64 term
//	  uint64 commitSeq       leader's durable sequence number
//	  uint16 addrLen, addr   leader's advertised data address
//	  uint32 n               WAL frames that follow (0 = heartbeat)
//	  bytes  frames          n verbatim on-disk WAL frames
//
//	ReplAck:
//	  uint64 appliedSeq      newest record applied to the follower's tree
//	  uint64 durableSeq      newest record fsynced by the follower's WAL
//	  uint64 term            highest term the acker has observed (0 = none
//	                         yet); a semi-sync leader refuses to count acks
//	                         from a newer term — they prove it was deposed
//
//	ReplStatus (either direction, on a dedicated probe connection):
//	  uint64 term
//	  uint8  role            0 follower, 1 leader
//	  uint32 priority        election priority, int32 two's complement
//	  uint64 appliedSeq
//	  uint16 advLen, adv     data-plane address (election rank tiebreak)
//	  uint16 replLen, repl   replication listener address
//
//	ReplSnapshot:
//	  uint64 walSeq    horizon the snapshot covers
//	  uint8  final     1 on the last chunk
//	  uint32 n         keys in this chunk
//	  n × int64 keys   strictly ascending within and across chunks
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
	"fmt"

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

// MaxReplAddr bounds the advertised-address string inside a ReplFrames
// payload; anything longer is a protocol error, not a real address.
const MaxReplAddr = 256

// MaxSnapshotChunk bounds the keys one ReplSnapshot chunk may carry, sized
// so a full chunk stays inside MaxFrame.
const MaxSnapshotChunk = (MaxFrame - 64) / 8

// Replication frame-shape errors.
var (
	ErrBadReplFrame = errors.New("wire: malformed replication frame")
	ErrWrongKind    = errors.New("wire: unexpected frame kind")
)

// ReplKindName returns a human-readable name for a replication frame kind.
func ReplKindName(kind uint8) string {
	switch kind {
	case ReplSubscribe:
		return "repl-subscribe"
	case ReplFrames:
		return "repl-frames"
	case ReplAck:
		return "repl-ack"
	case ReplSnapshot:
		return "repl-snapshot"
	case ReplStatus:
		return "repl-status"
	default:
		return fmt.Sprintf("repl-kind(%d)", kind)
	}
}

// ReplKind returns the kind byte of a replication payload (TraceFlag
// masked out) without decoding the rest, so a receive loop can dispatch.
func ReplKind(frame []byte) (uint8, error) {
	if len(frame) < 1 {
		return 0, ErrTruncated
	}
	return frame[0] &^ TraceFlag, nil
}

// replTraceExtLen is the encoded trace extension on replication frames:
// the 16-byte context plus the uint64 WAL sequence it covers.
const replTraceExtLen = rtrace.ContextLen + 8

// appendReplKind writes the kind byte and, when the extension is carried
// (non-zero context or sequence), the TraceFlag bit and extension block.
func appendReplKind(dst []byte, kind uint8, tc rtrace.Context, seq uint64) []byte {
	if tc == (rtrace.Context{}) && seq == 0 {
		return append(dst, kind)
	}
	dst = append(dst, kind|TraceFlag)
	dst = rtrace.AppendContext(dst, tc)
	return binary.BigEndian.AppendUint64(dst, seq)
}

// replBody validates the kind byte against want and strips the optional
// trace extension, returning the kind's own fields.
func replBody(frame []byte, want uint8) (rest []byte, tc rtrace.Context, seq uint64, err error) {
	if len(frame) < 1 {
		return nil, tc, 0, ErrTruncated
	}
	if frame[0]&^TraceFlag != want {
		return nil, tc, 0, ErrWrongKind
	}
	rest = frame[1:]
	if frame[0]&TraceFlag != 0 {
		if len(rest) < replTraceExtLen {
			return nil, tc, 0, ErrTruncated
		}
		tc, _ = rtrace.DecodeContext(rest)
		seq = binary.BigEndian.Uint64(rest[rtrace.ContextLen:])
		rest = rest[replTraceExtLen:]
	}
	return rest, tc, seq, nil
}

// Subscribe is a decoded ReplSubscribe payload.
type Subscribe struct {
	FromSeq uint64 // follower has applied every record with seq ≤ FromSeq
	Term    uint64 // highest term the follower has observed
	// Trace/TraceSeq mirror the optional trace extension (zero = absent);
	// a subscribe normally carries none.
	Trace    rtrace.Context
	TraceSeq uint64
}

// AppendReplSubscribe appends a ReplSubscribe payload to dst.
func AppendReplSubscribe(dst []byte, s Subscribe) []byte {
	dst = appendReplKind(dst, ReplSubscribe, s.Trace, s.TraceSeq)
	dst = binary.BigEndian.AppendUint64(dst, s.FromSeq)
	dst = binary.BigEndian.AppendUint64(dst, s.Term)
	return dst
}

// DecodeReplSubscribe decodes a ReplSubscribe payload.
func DecodeReplSubscribe(frame []byte) (Subscribe, error) {
	var s Subscribe
	rest, tc, seq, err := replBody(frame, ReplSubscribe)
	if err != nil {
		return s, err
	}
	if len(rest) != 8+8 {
		return s, ErrTruncated
	}
	s.Trace, s.TraceSeq = tc, seq
	s.FromSeq = binary.BigEndian.Uint64(rest[0:8])
	s.Term = binary.BigEndian.Uint64(rest[8:16])
	return s, nil
}

// FrameBatch is a decoded ReplFrames payload. Frames aliases the input
// buffer and is valid only until the buffer's next reuse; N is the number
// of WAL frames the sender claims Frames holds (the receiver walks them
// with wal.DecodeFrame, which validates each frame's own CRC).
type FrameBatch struct {
	Term      uint64
	CommitSeq uint64 // leader's durable sequence number
	Addr      string // leader's advertised data address
	N         uint32 // WAL frames in Frames; 0 = heartbeat
	Frames    []byte // verbatim on-disk WAL frames
	// Trace/TraceSeq carry the optional trace extension: the context of a
	// sampled request whose WAL record (TraceSeq) this batch covers, so
	// the follower's apply span links into the leader's span tree.
	Trace    rtrace.Context
	TraceSeq uint64
}

// AppendReplFrames appends a ReplFrames payload to dst. It panics when the
// address exceeds MaxReplAddr — addresses are operator configuration, not
// attacker input, on the encoding side.
func AppendReplFrames(dst []byte, b FrameBatch) []byte {
	if len(b.Addr) > MaxReplAddr {
		panic(ErrBadReplFrame)
	}
	dst = appendReplKind(dst, ReplFrames, b.Trace, b.TraceSeq)
	dst = binary.BigEndian.AppendUint64(dst, b.Term)
	dst = binary.BigEndian.AppendUint64(dst, b.CommitSeq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b.Addr)))
	dst = append(dst, b.Addr...)
	dst = binary.BigEndian.AppendUint32(dst, b.N)
	return append(dst, b.Frames...)
}

// DecodeReplFrames decodes a ReplFrames payload. The returned Frames slice
// aliases frame.
func DecodeReplFrames(frame []byte) (FrameBatch, error) {
	var b FrameBatch
	body, tc, seq, err := replBody(frame, ReplFrames)
	if err != nil {
		return b, err
	}
	if len(body) < 8+8+2 {
		return b, ErrTruncated
	}
	b.Trace, b.TraceSeq = tc, seq
	b.Term = binary.BigEndian.Uint64(body[0:8])
	b.CommitSeq = binary.BigEndian.Uint64(body[8:16])
	alen := int(binary.BigEndian.Uint16(body[16:18]))
	if alen > MaxReplAddr {
		return b, ErrBadReplFrame
	}
	rest := body[18:]
	if len(rest) < alen+4 {
		return b, ErrTruncated
	}
	b.Addr = string(rest[:alen])
	b.N = binary.BigEndian.Uint32(rest[alen:])
	b.Frames = rest[alen+4:]
	if b.N == 0 && len(b.Frames) != 0 {
		return b, ErrBadReplFrame
	}
	// A WAL frame is at least its 8-byte header plus a 17-byte record, so a
	// claimed count the bytes cannot possibly hold is rejected here rather
	// than surfacing as a confusing CRC error in the apply loop.
	if uint64(len(b.Frames)) < uint64(b.N)*8 {
		return b, ErrBadReplFrame
	}
	return b, nil
}

// Ack is a decoded ReplAck payload. Both sequences are cumulative: one ack
// covers every record at or below it, which is what lets a follower
// acknowledge a whole window of frames with a single frame (see
// internal/repl — the ack window is the replication analogue of the WAL's
// group commit).
type Ack struct {
	AppliedSeq uint64
	DurableSeq uint64
	// Term is the highest leader term the acker has observed. A semi-sync
	// leader counts an ack toward its watermark only when the term is its
	// own (or 0 — a bootstrap follower that has not heard a term yet); an
	// ack from a newer term proves the leader was deposed and fences it
	// instead of advancing it.
	Term uint64
	// Trace/TraceSeq optionally echo the trace extension of a ReplFrames
	// batch this ack covers, letting the leader close the loop on a
	// sampled record's replication round trip.
	Trace    rtrace.Context
	TraceSeq uint64
}

// AppendReplAck appends a ReplAck payload to dst.
func AppendReplAck(dst []byte, a Ack) []byte {
	dst = appendReplKind(dst, ReplAck, a.Trace, a.TraceSeq)
	dst = binary.BigEndian.AppendUint64(dst, a.AppliedSeq)
	dst = binary.BigEndian.AppendUint64(dst, a.DurableSeq)
	dst = binary.BigEndian.AppendUint64(dst, a.Term)
	return dst
}

// DecodeReplAck decodes a ReplAck payload: exactly the 24-byte body
// AppendReplAck writes.
func DecodeReplAck(frame []byte) (Ack, error) {
	var a Ack
	rest, tc, seq, err := replBody(frame, ReplAck)
	if err != nil {
		return a, err
	}
	if len(rest) != 8+8+8 {
		return a, ErrTruncated
	}
	a.Trace, a.TraceSeq = tc, seq
	a.AppliedSeq = binary.BigEndian.Uint64(rest[0:8])
	a.DurableSeq = binary.BigEndian.Uint64(rest[8:16])
	a.Term = binary.BigEndian.Uint64(rest[16:24])
	return a, nil
}

// PeerStatus is a decoded ReplStatus payload: one node's election-relevant
// identity. The exchange is symmetric — a prober dials a peer's
// replication listener, sends its own status, and reads the peer's in
// reply — so both sides learn the other's term; a freshly promoted leader
// announcing itself and a candidate ranking the field use the same frame.
type PeerStatus struct {
	Term       uint64
	IsLeader   bool
	Priority   int32
	AppliedSeq uint64
	// Advertise is the node's data-plane address — the stable identity
	// used as the deterministic election tiebreak, the same string on
	// every node regardless of which proxy or interface the probe dialed.
	Advertise string
	// ReplAddr is the node's replication listener address as it knows it.
	ReplAddr string
	// Trace/TraceSeq mirror the optional trace extension (zero = absent);
	// status probes normally carry none.
	Trace    rtrace.Context
	TraceSeq uint64
}

// AppendReplPeerStatus appends a ReplStatus payload to dst. It panics when
// either address exceeds MaxReplAddr — addresses are configuration, not
// attacker input, on the encoding side.
func AppendReplPeerStatus(dst []byte, ps PeerStatus) []byte {
	if len(ps.Advertise) > MaxReplAddr || len(ps.ReplAddr) > MaxReplAddr {
		panic(ErrBadReplFrame)
	}
	dst = appendReplKind(dst, ReplStatus, ps.Trace, ps.TraceSeq)
	dst = binary.BigEndian.AppendUint64(dst, ps.Term)
	var role byte
	if ps.IsLeader {
		role = 1
	}
	dst = append(dst, role)
	dst = binary.BigEndian.AppendUint32(dst, uint32(ps.Priority))
	dst = binary.BigEndian.AppendUint64(dst, ps.AppliedSeq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ps.Advertise)))
	dst = append(dst, ps.Advertise...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ps.ReplAddr)))
	return append(dst, ps.ReplAddr...)
}

// DecodeReplPeerStatus decodes a ReplStatus payload.
func DecodeReplPeerStatus(frame []byte) (PeerStatus, error) {
	var ps PeerStatus
	body, tc, seq, err := replBody(frame, ReplStatus)
	if err != nil {
		return ps, err
	}
	if len(body) < 8+1+4+8+2 {
		return ps, ErrTruncated
	}
	ps.Trace, ps.TraceSeq = tc, seq
	ps.Term = binary.BigEndian.Uint64(body[0:8])
	switch body[8] {
	case 0:
	case 1:
		ps.IsLeader = true
	default:
		return ps, ErrBadReplFrame
	}
	ps.Priority = int32(binary.BigEndian.Uint32(body[9:13]))
	ps.AppliedSeq = binary.BigEndian.Uint64(body[13:21])
	rest := body[21:]
	alen := int(binary.BigEndian.Uint16(rest))
	if alen > MaxReplAddr {
		return ps, ErrBadReplFrame
	}
	rest = rest[2:]
	if len(rest) < alen+2 {
		return ps, ErrTruncated
	}
	ps.Advertise = string(rest[:alen])
	rest = rest[alen:]
	rlen := int(binary.BigEndian.Uint16(rest))
	if rlen > MaxReplAddr {
		return ps, ErrBadReplFrame
	}
	rest = rest[2:]
	if len(rest) != rlen {
		return ps, ErrTruncated
	}
	ps.ReplAddr = string(rest)
	return ps, nil
}

// SnapshotChunk is a decoded ReplSnapshot payload: one slice of a
// snapshot's ascending key stream. Keys is freshly allocated (the apply
// side retains chunks while the bulk load runs).
type SnapshotChunk struct {
	WALSeq uint64
	Final  bool
	Keys   []int64
	// Trace/TraceSeq mirror the optional trace extension (zero = absent);
	// snapshot chunks normally carry none.
	Trace    rtrace.Context
	TraceSeq uint64
}

// AppendReplSnapshot appends a ReplSnapshot payload to dst. It panics when
// keys exceed MaxSnapshotChunk (the sender chunks before encoding).
func AppendReplSnapshot(dst []byte, c SnapshotChunk) []byte {
	if len(c.Keys) > MaxSnapshotChunk {
		panic(ErrBadReplFrame)
	}
	dst = appendReplKind(dst, ReplSnapshot, c.Trace, c.TraceSeq)
	dst = binary.BigEndian.AppendUint64(dst, c.WALSeq)
	var fin byte
	if c.Final {
		fin = 1
	}
	dst = append(dst, fin)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(c.Keys)))
	for _, k := range c.Keys {
		dst = binary.BigEndian.AppendUint64(dst, uint64(k))
	}
	return dst
}

// DecodeReplSnapshot decodes a ReplSnapshot payload.
func DecodeReplSnapshot(frame []byte) (SnapshotChunk, error) {
	var c SnapshotChunk
	body, tc, seq, err := replBody(frame, ReplSnapshot)
	if err != nil {
		return c, err
	}
	if len(body) < 8+1+4 {
		return c, ErrTruncated
	}
	c.Trace, c.TraceSeq = tc, seq
	c.WALSeq = binary.BigEndian.Uint64(body[0:8])
	switch body[8] {
	case 0:
	case 1:
		c.Final = true
	default:
		return c, ErrBadReplFrame
	}
	n := binary.BigEndian.Uint32(body[9:13])
	if n > MaxSnapshotChunk {
		return c, ErrBadReplFrame
	}
	rest := body[13:]
	if uint64(len(rest)) != uint64(n)*8 {
		return c, ErrTruncated
	}
	if n > 0 {
		c.Keys = make([]int64, n)
		for i := range c.Keys {
			c.Keys[i] = int64(binary.BigEndian.Uint64(rest[i*8:]))
		}
	}
	return c, nil
}
