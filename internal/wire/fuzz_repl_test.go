package wire

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rtrace"
)

// tracedCtx is a sampled trace extension for seed frames.
var tracedCtx = rtrace.Context{TraceID: 0xdecafbad, SpanID: 21, Flags: rtrace.FlagSampled}

// Fuzz targets for the replication decoder, one per kind so that each
// starts from its kind's seed corpus; all five hold DecodeRepl to the
// properties the data-plane targets keep.

// encRepl encodes one record for a seed.
func encRepl(m Repl) []byte { return AppendRepl(nil, &m) }

// fuzzRepl seeds f and checks that every rejection is a declared error
// class, that no decoded field holds more bytes than the input, and that
// on accept the decoder agrees with the encoder (decode∘encode∘decode is
// the identity).
func fuzzRepl(f *testing.F, seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Repl
		if err := DecodeRepl(data, &m); err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadReplFrame) {
				t.Fatalf("DecodeRepl: unexpected error class %v", err)
			}
			return
		}
		if n := len(m.Addr) + len(m.ReplAddr) + len(m.Frames) + 8*len(m.Keys); n > len(data) {
			t.Fatalf("decoder conjured %d field bytes from %d input bytes", n, len(data))
		}
		var m2 Repl
		if err := DecodeRepl(AppendRepl(nil, &m), &m2); err != nil {
			t.Fatalf("re-decode of re-encoded %+v: %v", m, err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("round trip changed the frame: %+v -> %+v", m, m2)
		}
	})
}

func FuzzDecodeReplSubscribe(f *testing.F) {
	fuzzRepl(f,
		encRepl(Repl{Kind: ReplSubscribe, Seq: 42, Term: 3}),
		encRepl(Repl{Kind: ReplSubscribe}),
		encRepl(Repl{Kind: ReplSubscribe, Seq: 1})[:9],
		encRepl(Repl{Kind: ReplSubscribe, Seq: 5, Term: 2, Trace: tracedCtx, TraceSeq: 5}),
	)
}

func FuzzDecodeReplFrames(f *testing.F) {
	fuzzRepl(f,
		encRepl(Repl{Kind: ReplFrames, Term: 1, Seq: 9, Addr: "127.0.0.1:9000"}),
		encRepl(Repl{Kind: ReplFrames, Term: 2, Seq: 10, Addr: "h:1", N: 1, Frames: make([]byte, 25)}),
		encRepl(Repl{Kind: ReplFrames})[:18],
		encRepl(Repl{Kind: ReplFrames, Term: 3, Seq: 11, Addr: "h:2", N: 1, Frames: make([]byte, 25), Trace: tracedCtx, TraceSeq: 11}),
		encRepl(Repl{Kind: ReplFrames, Term: 3, Addr: "h:2", Trace: tracedCtx})[:12],
	)
}

func FuzzDecodeReplAck(f *testing.F) {
	// A term-carrying ack, and the same ack without its term (the last 8
	// bytes): a 16-byte body, which must be rejected as truncated.
	full := encRepl(Repl{Kind: ReplAck, Seq: 8, DurableSeq: 8, Term: 3})
	fuzzRepl(f,
		encRepl(Repl{Kind: ReplAck, Seq: 100, DurableSeq: 90}),
		encRepl(Repl{Kind: ReplAck}),
		encRepl(Repl{Kind: ReplAck, Seq: 7})[:10],
		encRepl(Repl{Kind: ReplAck, Seq: 12, DurableSeq: 12, Trace: tracedCtx, TraceSeq: 12}),
		encRepl(Repl{Kind: ReplAck, Seq: 50, DurableSeq: 50, Term: 7}),
		full[:len(full)-8],
	)
}

func FuzzDecodeReplStatus(f *testing.F) {
	// Role byte outside {0,1} must be rejected, not coerced: it sits right
	// after the kind byte and the 8-byte term.
	badRole := encRepl(Repl{Kind: ReplStatus, Term: 1, Addr: "e:5", ReplAddr: "f:6"})
	badRole[1+8] = 2
	fuzzRepl(f,
		encRepl(Repl{Kind: ReplStatus, Term: 3, IsLeader: true, Priority: 10, Seq: 500, Addr: "10.0.0.1:4000", ReplAddr: "10.0.0.1:4001"}),
		encRepl(Repl{Kind: ReplStatus, Priority: -1, Addr: "h:1", ReplAddr: "h:2"}),
		encRepl(Repl{Kind: ReplStatus, Term: 2}),
		encRepl(Repl{Kind: ReplStatus, Term: 9, Addr: "a:1", ReplAddr: "b:2"})[:12],
		encRepl(Repl{Kind: ReplStatus, Term: 4, Seq: 77, Addr: "c:3", ReplAddr: "d:4", Trace: tracedCtx, TraceSeq: 77}),
		badRole,
		// Address length prefix claiming more bytes than the frame holds.
		append(encRepl(Repl{Kind: ReplStatus, Addr: "g:7", ReplAddr: "h:8"})[:30], 0xff, 0xff),
	)
}

func FuzzDecodeReplSnapshot(f *testing.F) {
	fuzzRepl(f,
		encRepl(Repl{Kind: ReplSnapshot, Seq: 5, Keys: []int64{-3, 1, 9}}),
		encRepl(Repl{Kind: ReplSnapshot, Seq: 5, Final: true}),
		[]byte{ReplSnapshot, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff}, // huge key count
		encRepl(Repl{Kind: ReplSnapshot, Seq: 6, Keys: []int64{2}, Trace: tracedCtx, TraceSeq: 6}),
	)
}
