package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/rtrace"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Op: OpInsert, DeadlineMS: 250, Key: 42},
		{ID: 2, Op: OpDelete, Key: -7},
		{ID: 3, Op: OpLookup, DeadlineMS: 1, Key: 1 << 50},
		{ID: 4, Op: OpRange, Key: -100, To: 100, Limit: 32},
	}
	for _, q := range cases {
		payload := AppendRequest(nil, q)
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("DecodeRequest(%+v): %v", q, err)
		}
		if got != q {
			t.Fatalf("round trip: got %+v, want %+v", got, q)
		}
	}
}

// TestTraceExtensionRoundTrip pins the optional trace extension: traced
// requests round-trip with every op-specific tail shifted past the
// context, untraced frames never carry the flag, and a traced frame
// truncated inside the extension is rejected as ErrTruncated.
func TestTraceExtensionRoundTrip(t *testing.T) {
	tc := rtrace.Context{TraceID: 0x1122334455667788, SpanID: 0x99aabbcc, Flags: rtrace.FlagSampled}
	cases := []Request{
		{ID: 1, Op: OpInsert, DeadlineMS: 9, Key: 42, Trace: tc},
		{ID: 2, Op: OpRange, Key: -100, To: 100, Limit: 32, Trace: tc},
		{ID: 3, Op: OpLookupAt, Key: 5, MinSeq: 77, Trace: tc},
	}
	for _, q := range cases {
		payload := AppendRequest(nil, q)
		if payload[8]&TraceFlag == 0 {
			t.Fatalf("traced %s request did not set TraceFlag", OpName(q.Op))
		}
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("DecodeRequest(%+v): %v", q, err)
		}
		if got != q {
			t.Fatalf("round trip: got %+v, want %+v", got, q)
		}
		if _, err := DecodeRequest(payload[:reqBaseLen+8]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncated trace ext err = %v, want ErrTruncated", err)
		}
	}
	if p := AppendRequest(nil, Request{ID: 4, Op: OpInsert, Key: 1}); p[8]&TraceFlag != 0 {
		t.Fatal("untraced request set TraceFlag")
	}

	// Batch requests: the per-op tail shifts past the context.
	ops := []BatchOp{{Op: OpInsert, Key: 1}, {Op: OpLookup, Key: 2}}
	payload := AppendBatchRequest(nil, 7, 50, tc, ops)
	q, err := DecodeRequest(payload)
	if err != nil || q.Op != OpBatch || q.Trace != tc {
		t.Fatalf("traced batch header: %+v, %v", q, err)
	}
	got, err := DecodeBatchOps(payload, nil)
	if err != nil || len(got) != len(ops) || got[0] != ops[0] || got[1] != ops[1] {
		t.Fatalf("traced batch ops: %+v, %v", got, err)
	}

	// Replication kinds: context plus covered WAL seq after the kind byte.
	fb := FrameBatch{Term: 3, CommitSeq: 20, Addr: "h:1", N: 1,
		Frames: make([]byte, 25), Trace: tc, TraceSeq: 19}
	fb2, err := DecodeReplFrames(AppendReplFrames(nil, fb))
	if err != nil || fb2.Trace != tc || fb2.TraceSeq != 19 || fb2.Term != 3 || fb2.Addr != "h:1" {
		t.Fatalf("traced ReplFrames round trip: %+v, %v", fb2, err)
	}
	if k, err := ReplKind(AppendReplFrames(nil, fb)); err != nil || k != ReplFrames {
		t.Fatalf("ReplKind of traced frame = %d, %v; want ReplFrames", k, err)
	}
	a := Ack{AppliedSeq: 20, DurableSeq: 20, Trace: tc, TraceSeq: 19}
	if a2, err := DecodeReplAck(AppendReplAck(nil, a)); err != nil || a2 != a {
		t.Fatalf("traced ReplAck round trip: %+v, %v", a2, err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 9, Status: StatusOK, OK: true},
		{ID: 10, Status: StatusOverloaded},
		{ID: 11, Status: StatusCapacity},
		{ID: 12, Status: StatusOK, OK: true, Keys: []int64{-5, 0, 7, 1 << 40}},
		{ID: 13, Status: StatusOK, Keys: []int64{}},
	}
	for _, p := range cases {
		payload := AppendResponse(nil, p)
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("DecodeResponse(%+v): %v", p, err)
		}
		if got.ID != p.ID || got.Status != p.Status || got.OK != p.OK || len(got.Keys) != len(p.Keys) {
			t.Fatalf("round trip: got %+v, want %+v", got, p)
		}
		for i := range p.Keys {
			if got.Keys[i] != p.Keys[i] {
				t.Fatalf("key %d: got %d, want %d", i, got.Keys[i], p.Keys[i])
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	q := Request{ID: 77, Op: OpRange, Key: 1, To: 9, Limit: 4}
	if err := WriteFrame(&buf, AppendRequest(nil, q)); err != nil {
		t.Fatal(err)
	}
	payload, _, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(payload)
	if err != nil || got != q {
		t.Fatalf("frame round trip: got %+v, %v; want %+v", got, err, q)
	}
}

func TestScratchReuse(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteFrame(&buf, AppendRequest(nil, Request{ID: uint64(i), Op: OpLookup, Key: int64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i := 0; i < 3; i++ {
		payload, s, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = s
		q, err := DecodeRequest(payload)
		if err != nil || q.ID != uint64(i) {
			t.Fatalf("frame %d: got %+v, %v", i, q, err)
		}
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("WriteFrame oversize err = %v, want ErrFrameTooBig", err)
	}
	// A hostile length prefix must be rejected before any allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := ReadFrame(&buf, nil); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("ReadFrame hostile length err = %v, want ErrFrameTooBig", err)
	}
}

func TestTruncatedFrames(t *testing.T) {
	if _, err := DecodeRequest(make([]byte, 5)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short request err = %v, want ErrTruncated", err)
	}
	if _, err := DecodeRequest(AppendRequest(nil, Request{Op: OpRange})[:25]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short range request err = %v, want ErrTruncated", err)
	}
	if _, err := DecodeResponse(make([]byte, 3)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short response err = %v, want ErrTruncated", err)
	}
	// Range response whose declared count exceeds the payload.
	p := AppendResponse(nil, Response{Status: StatusOK, Keys: []int64{1, 2, 3}})
	if _, err := DecodeResponse(p[:len(p)-8]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated keys err = %v, want ErrTruncated", err)
	}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	ops := []BatchOp{
		{Op: OpInsert, Key: 42},
		{Op: OpDelete, Key: -7},
		{Op: OpLookup, Key: 1 << 50},
	}
	payload := AppendBatchRequest(nil, 99, 250, rtrace.Context{}, ops)
	q, err := DecodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != 99 || q.Op != OpBatch || q.DeadlineMS != 250 || q.Key != 0 {
		t.Fatalf("batch base header = %+v", q)
	}
	got, err := DecodeBatchOps(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: got %+v, want %+v", i, got[i], ops[i])
		}
	}
	// Empty batches are legal on the wire.
	got, err = DecodeBatchOps(AppendBatchRequest(nil, 1, 0, rtrace.Context{}, nil), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %d ops", err, len(got))
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	results := []BatchResult{
		{Status: StatusOK, OK: true},
		{Status: StatusOK, OK: false},
		{Status: StatusCapacity},
		{Status: StatusKeyOutOfRange},
	}
	payload := AppendBatchResponse(nil, 7, results)
	id, st, got, err := DecodeBatchResponse(payload, nil)
	if err != nil || id != 7 || st != StatusOK {
		t.Fatalf("decode: id=%d st=%v err=%v", id, st, err)
	}
	if len(got) != len(results) {
		t.Fatalf("decoded %d results, want %d", len(got), len(results))
	}
	for i := range results {
		if got[i] != results[i] {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], results[i])
		}
	}
	// A frame-level rejection has no per-op tail.
	payload = AppendResponse(nil, Response{ID: 8, Status: StatusOverloaded})
	id, st, got, err = DecodeBatchResponse(payload, nil)
	if err != nil || id != 8 || st != StatusOverloaded || len(got) != 0 {
		t.Fatalf("rejected batch: id=%d st=%v n=%d err=%v", id, st, len(got), err)
	}
}

func TestBatchMalformed(t *testing.T) {
	payload := AppendBatchRequest(nil, 1, 0, rtrace.Context{}, []BatchOp{{Op: OpInsert, Key: 5}})
	if _, err := DecodeBatchOps(payload[:len(payload)-4], nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated batch ops err = %v, want ErrTruncated", err)
	}
	// A subop outside the point-op set must be rejected.
	bad := append([]byte(nil), payload...)
	bad[reqBaseLen+2] = OpRange
	if _, err := DecodeBatchOps(bad, nil); !errors.Is(err, ErrBadBatchOp) {
		t.Fatalf("bad subop err = %v, want ErrBadBatchOp", err)
	}
	// A count beyond MaxBatchOps must be rejected before the tail is read.
	big := AppendRequest(nil, Request{ID: 1, Op: OpBatch})
	big = append(big, byte((MaxBatchOps+1)>>8), byte((MaxBatchOps+1)&0xff))
	if _, err := DecodeBatchOps(big, nil); !errors.Is(err, ErrBatchTooBig) {
		t.Fatalf("oversized batch err = %v, want ErrBatchTooBig", err)
	}
	resp := AppendBatchResponse(nil, 1, []BatchResult{{Status: StatusOK, OK: true}})
	if _, _, _, err := DecodeBatchResponse(resp[:len(resp)-1], nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated batch response err = %v, want ErrTruncated", err)
	}
	if err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err, _ = r.(error)
			}
		}()
		AppendBatchRequest(nil, 1, 0, rtrace.Context{}, make([]BatchOp, MaxBatchOps+1))
		return nil
	}(); !errors.Is(err, ErrBatchTooBig) {
		t.Fatalf("oversized encode panic = %v, want ErrBatchTooBig", err)
	}
}

// TestBatchSteadyStateZeroAlloc asserts the pooled-buffer encode/decode
// cycle — the per-frame work of the server loop and the pipelined
// client — does not allocate once the pool and scratch slices are warm.
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	ops := make([]BatchOp, 64)
	for i := range ops {
		ops[i] = BatchOp{Op: OpLookup, Key: int64(i)}
	}
	results := make([]BatchResult, 64)
	opScratch := make([]BatchOp, 0, 64)
	resScratch := make([]BatchResult, 0, 64)

	allocs := testing.AllocsPerRun(200, func() {
		// Client side: encode a batch request into a pooled buffer.
		req := GetBuf()
		*req = AppendBatchRequest(*req, 3, 0, rtrace.Context{}, ops)
		// Server side: decode it into per-connection scratch, encode the
		// response into another pooled buffer.
		var err error
		opScratch, err = DecodeBatchOps(*req, opScratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(req)
		resp := GetBuf()
		*resp = AppendBatchResponse(*resp, 3, results)
		// Client side again: decode the response into scratch.
		_, _, resScratch, err = DecodeBatchResponse(*resp, resScratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(resp)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch encode/decode allocates %.1f per op, want 0", allocs)
	}
}
