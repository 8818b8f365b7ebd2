package wire

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rtrace"
)

// tracedCtx is a sampled trace extension for seed frames.
var tracedCtx = rtrace.Context{TraceID: 0xdecafbad, SpanID: 21, Flags: rtrace.FlagSampled}

// Fuzz targets for the replication frame decoders, holding them to the
// same two properties as the data-plane targets: never panic or
// over-allocate on arbitrary bytes, and on accept be consistent with the
// encoder (decode∘encode∘decode is the identity).

// replDecodeErrOK reports whether a replication decoder's rejection is one
// of the declared error classes.
func replDecodeErrOK(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrWrongKind) || errors.Is(err, ErrBadReplFrame)
}

func FuzzDecodeReplSubscribe(f *testing.F) {
	f.Add(AppendReplSubscribe(nil, Subscribe{FromSeq: 42, Term: 3}))
	f.Add(AppendReplSubscribe(nil, Subscribe{}))
	f.Add(AppendReplSubscribe(nil, Subscribe{FromSeq: 1})[:9])
	f.Add(AppendReplSubscribe(nil, Subscribe{FromSeq: 5, Term: 2, Trace: tracedCtx, TraceSeq: 5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeReplSubscribe(data)
		if err != nil {
			if !replDecodeErrOK(err) {
				t.Fatalf("DecodeReplSubscribe: unexpected error class %v", err)
			}
			return
		}
		s2, err := DecodeReplSubscribe(AppendReplSubscribe(nil, s))
		if err != nil {
			t.Fatalf("re-decode of re-encoded subscribe: %v", err)
		}
		if s2 != s {
			t.Fatalf("round trip changed the subscribe: %+v -> %+v", s, s2)
		}
	})
}

func FuzzDecodeReplFrames(f *testing.F) {
	f.Add(AppendReplFrames(nil, FrameBatch{Term: 1, CommitSeq: 9, Addr: "127.0.0.1:9000"}))
	f.Add(AppendReplFrames(nil, FrameBatch{Term: 2, CommitSeq: 10, Addr: "h:1", N: 1, Frames: make([]byte, 25)}))
	f.Add(AppendReplFrames(nil, FrameBatch{Addr: ""})[:18])
	f.Add(AppendReplFrames(nil, FrameBatch{
		Term: 3, CommitSeq: 11, Addr: "h:2", N: 1, Frames: make([]byte, 25),
		Trace: tracedCtx, TraceSeq: 11,
	}))
	f.Add(AppendReplFrames(nil, FrameBatch{Term: 3, Addr: "h:2", Trace: tracedCtx})[:12])
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeReplFrames(data)
		if err != nil {
			if !replDecodeErrOK(err) {
				t.Fatalf("DecodeReplFrames: unexpected error class %v", err)
			}
			return
		}
		if len(b.Frames) > len(data) {
			t.Fatalf("decoder conjured %d frame bytes from %d input bytes", len(b.Frames), len(data))
		}
		b2, err := DecodeReplFrames(AppendReplFrames(nil, b))
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame batch: %v", err)
		}
		if b2.Term != b.Term || b2.CommitSeq != b.CommitSeq || b2.Addr != b.Addr ||
			b2.N != b.N || !reflect.DeepEqual(b2.Frames, b.Frames) ||
			b2.Trace != b.Trace || b2.TraceSeq != b.TraceSeq {
			t.Fatalf("round trip changed the frame batch: %+v -> %+v", b, b2)
		}
	})
}

func FuzzDecodeReplAck(f *testing.F) {
	f.Add(AppendReplAck(nil, Ack{AppliedSeq: 100, DurableSeq: 90}))
	f.Add(AppendReplAck(nil, Ack{}))
	f.Add(AppendReplAck(nil, Ack{AppliedSeq: 7})[:10])
	f.Add(AppendReplAck(nil, Ack{AppliedSeq: 12, DurableSeq: 12, Trace: tracedCtx, TraceSeq: 12}))
	// A term-carrying ack, and the same ack without its term (the last 8
	// bytes): a 16-byte body, which must be rejected as truncated.
	f.Add(AppendReplAck(nil, Ack{AppliedSeq: 50, DurableSeq: 50, Term: 7}))
	full := AppendReplAck(nil, Ack{AppliedSeq: 8, DurableSeq: 8, Term: 3})
	f.Add(full[:len(full)-8])
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeReplAck(data)
		if err != nil {
			if !replDecodeErrOK(err) {
				t.Fatalf("DecodeReplAck: unexpected error class %v", err)
			}
			return
		}
		a2, err := DecodeReplAck(AppendReplAck(nil, a))
		if err != nil {
			t.Fatalf("re-decode of re-encoded ack: %v", err)
		}
		if a2 != a {
			t.Fatalf("round trip changed the ack: %+v -> %+v", a, a2)
		}
	})
}

func FuzzDecodeReplStatus(f *testing.F) {
	f.Add(AppendReplPeerStatus(nil, PeerStatus{
		Term: 3, IsLeader: true, Priority: 10, AppliedSeq: 500,
		Advertise: "10.0.0.1:4000", ReplAddr: "10.0.0.1:4001",
	}))
	f.Add(AppendReplPeerStatus(nil, PeerStatus{Priority: -1, Advertise: "h:1", ReplAddr: "h:2"}))
	f.Add(AppendReplPeerStatus(nil, PeerStatus{Term: 2, Advertise: "", ReplAddr: ""}))
	f.Add(AppendReplPeerStatus(nil, PeerStatus{Term: 9, Advertise: "a:1", ReplAddr: "b:2"})[:12])
	f.Add(AppendReplPeerStatus(nil, PeerStatus{
		Term: 4, AppliedSeq: 77, Advertise: "c:3", ReplAddr: "d:4",
		Trace: tracedCtx, TraceSeq: 77,
	}))
	// Role byte outside {0,1} must be rejected, not coerced.
	hdr := len(appendReplKind(nil, ReplStatus, rtrace.Context{}, 0))
	bad := AppendReplPeerStatus(nil, PeerStatus{Term: 1, Advertise: "e:5", ReplAddr: "f:6"})
	bad[hdr+8] = 2 // the role byte sits right after the 8-byte term
	f.Add(bad)
	// Address length prefix claiming more bytes than the frame holds.
	f.Add(append(AppendReplPeerStatus(nil, PeerStatus{Advertise: "g:7", ReplAddr: "h:8"})[:30], 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodeReplPeerStatus(data)
		if err != nil {
			if !replDecodeErrOK(err) {
				t.Fatalf("DecodeReplPeerStatus: unexpected error class %v", err)
			}
			return
		}
		if len(ps.Advertise) > MaxReplAddr || len(ps.ReplAddr) > MaxReplAddr {
			t.Fatalf("decoder accepted oversized address (%d/%d bytes)", len(ps.Advertise), len(ps.ReplAddr))
		}
		if len(ps.Advertise)+len(ps.ReplAddr) > len(data) {
			t.Fatalf("decoder conjured %d address bytes from %d input bytes",
				len(ps.Advertise)+len(ps.ReplAddr), len(data))
		}
		ps2, err := DecodeReplPeerStatus(AppendReplPeerStatus(nil, ps))
		if err != nil {
			t.Fatalf("re-decode of re-encoded peer status: %v", err)
		}
		if ps2 != ps {
			t.Fatalf("round trip changed the peer status: %+v -> %+v", ps, ps2)
		}
	})
}

func FuzzDecodeReplSnapshot(f *testing.F) {
	f.Add(AppendReplSnapshot(nil, SnapshotChunk{WALSeq: 5, Keys: []int64{-3, 1, 9}}))
	f.Add(AppendReplSnapshot(nil, SnapshotChunk{WALSeq: 5, Final: true}))
	f.Add([]byte{ReplSnapshot, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff}) // huge key count
	f.Add(AppendReplSnapshot(nil, SnapshotChunk{WALSeq: 6, Keys: []int64{2}, Trace: tracedCtx, TraceSeq: 6}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeReplSnapshot(data)
		if err != nil {
			if !replDecodeErrOK(err) {
				t.Fatalf("DecodeReplSnapshot: unexpected error class %v", err)
			}
			return
		}
		if len(c.Keys) > len(data)/8 {
			t.Fatalf("decoded %d keys out of a %d-byte frame", len(c.Keys), len(data))
		}
		c2, err := DecodeReplSnapshot(AppendReplSnapshot(nil, c))
		if err != nil {
			t.Fatalf("re-decode of re-encoded chunk: %v", err)
		}
		if c2.WALSeq != c.WALSeq || c2.Final != c.Final || !reflect.DeepEqual(c2.Keys, c.Keys) ||
			c2.Trace != c.Trace || c2.TraceSeq != c.TraceSeq {
			t.Fatalf("round trip changed the chunk: %+v -> %+v", c, c2)
		}
	})
}
