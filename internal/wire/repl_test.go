package wire

import (
	"errors"
	"reflect"
	"testing"
)

func TestReplSubscribeRoundTrip(t *testing.T) {
	want := Subscribe{FromSeq: 1 << 40, Term: 7}
	got, err := DecodeReplSubscribe(AppendReplSubscribe(nil, want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
	if _, err := DecodeReplSubscribe(AppendReplAck(nil, Ack{})); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("wrong kind: got %v, want ErrWrongKind", err)
	}
}

func TestReplFramesRoundTrip(t *testing.T) {
	frames := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	want := FrameBatch{Term: 3, CommitSeq: 99, Addr: "10.0.0.1:9200", N: 2, Frames: frames}
	got, err := DecodeReplFrames(AppendReplFrames(nil, want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Term != want.Term || got.CommitSeq != want.CommitSeq || got.Addr != want.Addr ||
		got.N != want.N || !reflect.DeepEqual(got.Frames, want.Frames) {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}

	// A heartbeat has no frame bytes; trailing garbage after n=0 is a
	// protocol error, not silently ignored bytes.
	hb := AppendReplFrames(nil, FrameBatch{Term: 4, Addr: "h:1"})
	if b, err := DecodeReplFrames(hb); err != nil || b.N != 0 {
		t.Fatalf("heartbeat decode: %+v, %v", b, err)
	}
	if _, err := DecodeReplFrames(append(hb, 0xff)); !errors.Is(err, ErrBadReplFrame) {
		t.Fatalf("heartbeat with trailing bytes: got %v, want ErrBadReplFrame", err)
	}

	// A claimed count the bytes cannot hold is rejected.
	bogus := AppendReplFrames(nil, FrameBatch{N: 100, Frames: []byte{1, 2, 3}})
	if _, err := DecodeReplFrames(bogus); !errors.Is(err, ErrBadReplFrame) {
		t.Fatalf("impossible count: got %v, want ErrBadReplFrame", err)
	}
}

func TestReplAckRoundTrip(t *testing.T) {
	want := Ack{AppliedSeq: 123, DurableSeq: 120}
	got, err := DecodeReplAck(AppendReplAck(nil, want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
}

// TestReplAckRejectsTermlessBody: AppendReplAck always writes the term,
// so a 16-byte body (the same ack without its last 8 bytes) is truncated.
func TestReplAckRejectsTermlessBody(t *testing.T) {
	full := AppendReplAck(nil, Ack{AppliedSeq: 8, DurableSeq: 8, Term: 3})
	if _, err := DecodeReplAck(full[:len(full)-8]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("16-byte ack body: got %v, want ErrTruncated", err)
	}
}

func TestReplSnapshotRoundTrip(t *testing.T) {
	want := SnapshotChunk{WALSeq: 55, Final: true, Keys: []int64{-9, -1, 0, 3, 1 << 50}}
	got, err := DecodeReplSnapshot(AppendReplSnapshot(nil, want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.WALSeq != want.WALSeq || got.Final != want.Final || !reflect.DeepEqual(got.Keys, want.Keys) {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
}

func TestNotLeaderResponseCarriesLeader(t *testing.T) {
	want := Response{ID: 9, Status: StatusNotLeader, Leader: "node-a:9000"}
	got, err := DecodeResponse(AppendResponse(nil, want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
	// An empty leader (follower that has lost its lease and knows no
	// leader) still round-trips.
	want = Response{ID: 10, Status: StatusNotLeader}
	if got, err = DecodeResponse(AppendResponse(nil, want)); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("empty leader round trip: %+v, %v", got, err)
	}
}

func TestLookupAtRequestRoundTrip(t *testing.T) {
	want := Request{ID: 4, Op: OpLookupAt, DeadlineMS: 250, Key: 77, MinSeq: 1 << 33}
	got, err := DecodeRequest(AppendRequest(nil, want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
	if _, err := DecodeRequest(AppendRequest(nil, want)[:reqBaseLen+3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated minSeq tail: got %v, want ErrTruncated", err)
	}
}
