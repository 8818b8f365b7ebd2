package wire

import (
	"errors"
	"reflect"
	"testing"
)

// replRoundTrip encodes m and decodes it back.
func replRoundTrip(t *testing.T, m Repl) Repl {
	t.Helper()
	var got Repl
	if err := DecodeRepl(AppendRepl(nil, &m), &got); err != nil {
		t.Fatalf("decode %+v: %v", m, err)
	}
	return got
}

func TestReplSubscribeRoundTrip(t *testing.T) {
	want := Repl{Kind: ReplSubscribe, Seq: 1 << 40, Term: 7}
	if got := replRoundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
	// The kind byte, not the caller, names the kind.
	if got := replRoundTrip(t, Repl{Kind: ReplAck}); got.Kind != ReplAck {
		t.Fatalf("an ack decoded as kind %d", got.Kind)
	}
}

func TestReplFramesRoundTrip(t *testing.T) {
	frames := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	want := Repl{Kind: ReplFrames, Term: 3, Seq: 99, Addr: "10.0.0.1:9200", N: 2, Frames: frames}
	if got := replRoundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}

	// A heartbeat has no frame bytes; trailing garbage after N = 0 is a
	// protocol error, not silently ignored bytes.
	hb := AppendRepl(nil, &Repl{Kind: ReplFrames, Term: 4, Addr: "h:1"})
	var m Repl
	if err := DecodeRepl(hb, &m); err != nil || m.N != 0 || len(m.Frames) != 0 {
		t.Fatalf("heartbeat decode: %+v, %v", m, err)
	}
	if err := DecodeRepl(append(hb, 0xff), &m); !errors.Is(err, ErrBadReplFrame) {
		t.Fatalf("heartbeat with trailing bytes: got %v, want ErrBadReplFrame", err)
	}

	// A claimed count the bytes cannot hold is rejected.
	bogus := AppendRepl(nil, &Repl{Kind: ReplFrames, N: 100, Frames: []byte{1, 2, 3}})
	if err := DecodeRepl(bogus, &m); !errors.Is(err, ErrBadReplFrame) {
		t.Fatalf("impossible count: got %v, want ErrBadReplFrame", err)
	}
}

func TestReplAckRoundTrip(t *testing.T) {
	want := Repl{Kind: ReplAck, Seq: 123, DurableSeq: 120, Term: 4}
	if got := replRoundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
}

// TestReplAckRejectsTermlessBody: AppendRepl always writes an ack's term,
// so a 16-byte body (the same ack without its last 8 bytes) is truncated.
func TestReplAckRejectsTermlessBody(t *testing.T) {
	full := AppendRepl(nil, &Repl{Kind: ReplAck, Seq: 8, DurableSeq: 8, Term: 3})
	var m Repl
	if err := DecodeRepl(full[:len(full)-8], &m); !errors.Is(err, ErrTruncated) {
		t.Fatalf("16-byte ack body: got %v, want ErrTruncated", err)
	}
}

func TestReplSnapshotRoundTrip(t *testing.T) {
	want := Repl{Kind: ReplSnapshot, Seq: 55, Final: true, Keys: []int64{-9, -1, 0, 3, 1 << 50}}
	if got := replRoundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
}

// TestDecodeReplReusesRecord: one record decodes every kind in turn. Each
// decode overwrites the previous kind's fields and keeps the capacity of
// Keys, so snapshot chunks decode without allocating.
func TestDecodeReplReusesRecord(t *testing.T) {
	chunk := AppendRepl(nil, &Repl{Kind: ReplSnapshot, Seq: 9, Final: true, Keys: []int64{1, 2, 3}})
	status := AppendRepl(nil, &Repl{Kind: ReplStatus, Term: 2, IsLeader: true, Priority: -3, Seq: 8, Addr: "a:1", ReplAddr: "b:2"})
	ack := AppendRepl(nil, &Repl{Kind: ReplAck, Seq: 7, DurableSeq: 6, Term: 2, Trace: tracedCtx, TraceSeq: 7})

	m := Repl{Keys: make([]int64, 0, 8)}
	backing := &m.Keys[:1][0]
	for _, frame := range [][]byte{chunk, status, ack, chunk} {
		var fresh Repl
		if err := DecodeRepl(frame, &fresh); err != nil {
			t.Fatal(err)
		}
		if err := DecodeRepl(frame, &m); err != nil {
			t.Fatal(err)
		}
		if len(m.Keys) != len(fresh.Keys) || &m.Keys[:1][0] != backing {
			t.Fatalf("kind %d: keys %v did not reuse the record's backing array", m.Kind, m.Keys)
		}
		fresh.Keys = m.Keys
		if !reflect.DeepEqual(m, fresh) {
			t.Fatalf("reused record %+v, fresh record %+v", m, fresh)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { DecodeRepl(chunk, &m) }); allocs != 0 {
		t.Fatalf("snapshot chunk decode into a reused record: %v allocs, want 0", allocs)
	}
}

// TestDecodeReplRejects: every bound the decoder checks, with the error
// class it answers.
func TestDecodeReplRejects(t *testing.T) {
	long := string(make([]byte, MaxReplAddr+1))
	enc := func(m Repl) []byte { return AppendRepl(nil, &m) }
	// A status frame's role byte follows the kind byte and the 8-byte
	// term; its replication address (2-byte length, "b:2") ends it.
	badRole := enc(Repl{Kind: ReplStatus, Addr: "a:1", ReplAddr: "b:2"})
	badRole[1+8] = 2
	longRepl := enc(Repl{Kind: ReplStatus, Addr: "a:1", ReplAddr: "b:2"})
	longRepl = append(longRepl[:len(longRepl)-5], 0x01, 0x01)
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrTruncated},
		{"unknown kind", []byte{ReplStatus + 1, 0, 0}, ErrBadReplFrame},
		{"data-plane op", []byte{OpLookupAt}, ErrBadReplFrame},
		{"short trace extension", enc(Repl{Kind: ReplSubscribe, Trace: tracedCtx})[:20], ErrTruncated},
		{"subscribe with trailing bytes", append(enc(Repl{Kind: ReplSubscribe}), 0), ErrTruncated},
		{"ack with trailing bytes", append(enc(Repl{Kind: ReplAck}), 0), ErrTruncated},
		{"frames address over MaxReplAddr", append([]byte{ReplFrames, 17: 0x01, 18: 0x01}, make([]byte, 300)...), ErrBadReplFrame},
		{"frames address past the end", enc(Repl{Kind: ReplFrames, Addr: "h:1"})[:20], ErrTruncated},
		{"status role byte 2", badRole, ErrBadReplFrame},
		{"status repl address over MaxReplAddr", longRepl, ErrBadReplFrame},
		{"status with trailing bytes", append(enc(Repl{Kind: ReplStatus}), 0), ErrTruncated},
		{"snapshot final byte 2", []byte{ReplSnapshot, 9: 2, 13: 0}, ErrBadReplFrame},
		{"snapshot over MaxSnapshotChunk", []byte{ReplSnapshot, 10: 0xff, 11: 0xff, 12: 0xff, 13: 0xff}, ErrBadReplFrame},
		{"snapshot keys short of n", enc(Repl{Kind: ReplSnapshot, Keys: []int64{1, 2}})[:20], ErrTruncated},
	}
	for _, c := range cases {
		var m Repl
		if err := DecodeRepl(c.frame, &m); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	for _, m := range []Repl{
		{Kind: ReplFrames, Addr: long},
		{Kind: ReplStatus, ReplAddr: long},
		{Kind: ReplSnapshot, Keys: make([]int64, MaxSnapshotChunk+1)},
	} {
		func() {
			defer func() {
				if r := recover(); r != ErrBadReplFrame {
					t.Errorf("AppendRepl(kind %d) over its bound: recovered %v, want ErrBadReplFrame", m.Kind, r)
				}
			}()
			AppendRepl(nil, &m)
		}()
	}
}
