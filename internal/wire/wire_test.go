package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/rtrace"
)

func TestRequestRoundTrip(t *testing.T) {
	for _, g := range goldenRequests {
		var q Request
		if err := DecodeRequest(AppendRequest(nil, &g.q), &q); err != nil || !reflect.DeepEqual(q, g.q) {
			t.Fatalf("%s: round trip = (%+v, %v), want %+v", g.name, q, err, g.q)
		}
	}
}

// TestTraceExtensionRoundTrip pins the optional trace extension: traced
// requests of every op round-trip with the op's tail shifted past the
// context, untraced frames never carry the flag, and a traced frame cut
// inside the extension is a short header.
func TestTraceExtensionRoundTrip(t *testing.T) {
	for _, g := range goldenRequests {
		payload := AppendRequest(nil, &g.q)
		if traced := g.q.Trace != (rtrace.Context{}); traced != (payload[8]&TraceFlag != 0) {
			t.Fatalf("%s: TraceFlag = %v, want %v", g.name, !traced, traced)
		}
		if g.q.Trace == (rtrace.Context{}) {
			continue
		}
		var q Request
		if err := DecodeRequest(payload[:reqBaseLen+8], &q); !errors.Is(err, ErrShortHeader) {
			t.Fatalf("%s: truncated trace ext err = %v, want ErrShortHeader", g.name, err)
		}
	}

	// Replication kinds: context plus covered WAL seq after the kind byte.
	tc := rtrace.Context{TraceID: 0x1122334455667788, SpanID: 0x99aabbcc, Flags: rtrace.FlagSampled}
	for _, m := range []Repl{
		{Kind: ReplFrames, Term: 3, Seq: 20, Addr: "h:1", N: 1, Frames: make([]byte, 25), Trace: tc, TraceSeq: 19},
		{Kind: ReplAck, Seq: 20, DurableSeq: 20, Trace: tc, TraceSeq: 19},
	} {
		payload := AppendRepl(nil, &m)
		if payload[0] != m.Kind|TraceFlag {
			t.Fatalf("traced kind %d: kind byte %#x, want TraceFlag set", m.Kind, payload[0])
		}
		var m2 Repl
		if err := DecodeRepl(payload, &m2); err != nil || !reflect.DeepEqual(m2, m) {
			t.Fatalf("traced kind %d round trip: %+v, %v", m.Kind, m2, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, g := range goldenResponses {
		var p Response
		if err := DecodeResponse(AppendResponse(nil, g.op, &g.p), g.op, &p); err != nil || !reflect.DeepEqual(p, g.p) {
			t.Fatalf("%s: round trip = (%+v, %v), want %+v", g.name, p, err, g.p)
		}
	}
}

// TestDecodeReusesRecord: both decoders keep the caller's Ops/Results
// capacity and overwrite every other field, so one record serves a
// connection whose frames change kind.
func TestDecodeReusesRecord(t *testing.T) {
	var q Request
	batch := Request{ID: 8, Op: OpBatch, Ops: goldenOps, Trace: goldenTrace}
	if err := DecodeRequest(AppendRequest(nil, &batch), &q); err != nil {
		t.Fatal(err)
	}
	ops := &q.Ops[:1][0]
	agg := Request{ID: 9, Op: OpAggregate, Key: 1, To: 5, Kind: AggSum, Mode: AggModeStale, MaxDirty: 3}
	if err := DecodeRequest(AppendRequest(nil, &agg), &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Ops) != 0 || cap(q.Ops) < 3 || &q.Ops[:1][0] != ops {
		t.Fatalf("Ops = %v (cap %d): the batch's backing array was not kept", q.Ops, cap(q.Ops))
	}
	q.Ops = nil
	if !reflect.DeepEqual(q, agg) {
		t.Fatalf("aggregate decoded over a traced batch = %+v, want %+v", q, agg)
	}

	var p Response
	results := Response{ID: 2, Status: StatusOK, Results: []BatchResult{{StatusOK, true}, {StatusCapacity, false}}}
	if err := DecodeResponse(AppendResponse(nil, OpBatch, &results), OpBatch, &p); err != nil {
		t.Fatal(err)
	}
	first := &p.Results[0]
	redirect := Response{ID: 3, Status: StatusNotLeader, Leader: "h:2"}
	if err := DecodeResponse(AppendResponse(nil, OpBatch, &redirect), OpBatch, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Results) != 0 || &p.Results[:1][0] != first {
		t.Fatalf("Results = %v: the batch's backing array was not kept", p.Results)
	}
	p.Results = nil
	if !reflect.DeepEqual(p, redirect) {
		t.Fatalf("redirect decoded over a batch reply = %+v, want %+v", p, redirect)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	q := Request{ID: 77, Op: OpRange, Key: 1, To: 9, Limit: 4}
	if err := WriteFrame(&buf, AppendRequest(nil, &q)); err != nil {
		t.Fatal(err)
	}
	payload, _, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := DecodeRequest(payload, &got); err != nil || !reflect.DeepEqual(got, q) {
		t.Fatalf("frame round trip: got %+v, %v; want %+v", got, err, q)
	}
}

func TestScratchReuse(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteFrame(&buf, AppendRequest(nil, &Request{ID: uint64(i), Op: OpLookup, Key: int64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	var q Request
	for i := 0; i < 3; i++ {
		payload, s, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = s
		if err := DecodeRequest(payload, &q); err != nil || q.ID != uint64(i) {
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

// TestTruncatedFrames: a request payload cut inside the header or trace
// extension is ErrShortHeader; a cut inside any op's tail, request or
// response, is a plain ErrTruncated. Single-key request tails are minimum
// lengths; every other tail must fill the payload exactly.
func TestTruncatedFrames(t *testing.T) {
	decodeReq := func(b []byte) error {
		var q Request
		return DecodeRequest(b, &q)
	}
	if err := decodeReq(make([]byte, 5)); !errors.Is(err, ErrShortHeader) || !errors.Is(err, ErrTruncated) {
		t.Fatalf("short request err = %v, want ErrShortHeader (a truncation)", err)
	}
	for _, g := range goldenRequests {
		full := AppendRequest(nil, &g.q)
		tail := reqBaseLen
		if g.q.Trace != (rtrace.Context{}) {
			tail += rtrace.ContextLen
		}
		for i := tail; i < len(full); i++ {
			if err := decodeReq(full[:i]); !errors.Is(err, ErrTruncated) || errors.Is(err, ErrShortHeader) {
				t.Fatalf("%s cut at %d: err = %v, want a tail truncation", g.name, i, err)
			}
		}
		err := decodeReq(append(full[:len(full):len(full)], 0))
		if exact := g.q.Op == OpAggregate || g.q.Op == OpBatch; exact != errors.Is(err, ErrTruncated) {
			t.Fatalf("%s with a trailing byte: err = %v", g.name, err)
		}
	}

	decodeResp := func(b []byte, op uint8) error {
		var p Response
		return DecodeResponse(b, op, &p)
	}
	for _, op := range dataPlaneOps {
		if err := decodeResp(make([]byte, 3), op); !errors.Is(err, ErrTruncated) {
			t.Fatalf("short %s response err = %v, want ErrTruncated", OpName(op), err)
		}
	}
	for _, g := range goldenResponses {
		full := AppendResponse(nil, g.op, &g.p)
		for i := respBaseLen; i < len(full); i++ {
			if i == respBaseLen && g.op != OpBatch && g.op != OpAggregate && !redirect(g.p.Status) {
				continue // a bare base is a whole single-key reply
			}
			if err := decodeResp(full[:i], g.op); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s cut at %d: err = %v, want ErrTruncated", g.name, i, err)
			}
		}
		// A single-key reply reads bytes after a bare base as a keys tail,
		// too short here; every other reply is exact.
		if err := decodeResp(append(full[:len(full):len(full)], 1, 2, 3), g.op); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s with junk: err = %v, want ErrTruncated", g.name, err)
		}
	}
}

func TestLookupAtRequestRoundTrip(t *testing.T) {
	want := Request{ID: 4, Op: OpLookupAt, DeadlineMS: 250, Key: 77, MinSeq: 1 << 33}
	var got Request
	if err := DecodeRequest(AppendRequest(nil, &want), &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
	}
	if err := DecodeRequest(AppendRequest(nil, &want)[:reqBaseLen+3], &got); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated minSeq tail: got %v, want ErrTruncated", err)
	}
}

func TestNotLeaderResponseCarriesLeader(t *testing.T) {
	// The redirect tail is the same for every op, batches included, and an
	// empty leader (a follower that lost its lease) still round-trips.
	for _, want := range []Response{
		{ID: 9, Status: StatusNotLeader, Leader: "node-a:9000"},
		{ID: 10, Status: StatusNotLeader},
		{ID: 11, Status: StatusFenced, Leader: "node-b:9000"},
	} {
		for _, op := range dataPlaneOps {
			var got Response
			if err := DecodeResponse(AppendResponse(nil, op, &want), op, &got); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round trip: %+v, %v; want %+v", OpName(op), got, err, want)
			}
		}
	}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	want := Request{ID: 99, Op: OpBatch, DeadlineMS: 250, Ops: []BatchOp{
		{Op: OpInsert, Key: 42}, {Op: OpDelete, Key: -7}, {Op: OpLookup, Key: 1 << 50}}}
	var got Request
	if err := DecodeRequest(AppendRequest(nil, &want), &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("batch round trip = (%+v, %v), want %+v", got, err, want)
	}
	// Empty batches are legal on the wire.
	if err := DecodeRequest(AppendRequest(nil, &Request{ID: 1, Op: OpBatch}), &got); err != nil || len(got.Ops) != 0 {
		t.Fatalf("empty batch: %v, %d ops", err, len(got.Ops))
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	want := Response{ID: 7, Status: StatusOK, Results: []BatchResult{
		{Status: StatusOK, OK: true}, {Status: StatusOK}, {Status: StatusCapacity}, {Status: StatusKeyOutOfRange}}}
	var got Response
	if err := DecodeResponse(AppendResponse(nil, OpBatch, &want), OpBatch, &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("batch reply round trip = (%+v, %v), want %+v", got, err, want)
	}
	// A frame-level rejection is the bare base, whatever Results holds.
	refused := AppendResponse(nil, OpBatch, &Response{ID: 8, Status: StatusOverloaded, Results: want.Results})
	if len(refused) != respBaseLen {
		t.Fatalf("refused batch encodes %d bytes, want the %d-byte base", len(refused), respBaseLen)
	}
	if err := DecodeResponse(refused, OpBatch, &got); err != nil || got.ID != 8 || got.Status != StatusOverloaded || len(got.Results) != 0 {
		t.Fatalf("rejected batch: %+v, %v", got, err)
	}
}

func TestBatchMalformed(t *testing.T) {
	decode := func(b []byte) error {
		var q Request
		return DecodeRequest(b, &q)
	}
	// A subop outside the point-op set, or an unknown op, is rejected.
	batch := AppendRequest(nil, &Request{ID: 1, Op: OpBatch, Ops: []BatchOp{{Op: OpInsert, Key: 5}}})
	batch[reqBaseLen+2] = OpRange
	if err := decode(batch); !errors.Is(err, ErrBadOp) {
		t.Fatalf("bad subop err = %v, want ErrBadOp", err)
	}
	if err := decode(AppendRequest(nil, &Request{ID: 1, Op: 99, Key: 1})); !errors.Is(err, ErrBadOp) {
		t.Fatalf("unknown op err = %v, want ErrBadOp", err)
	}
	// A count beyond MaxBatchOps is rejected before the tail is read, in
	// a request and in a reply.
	big := AppendRequest(nil, &Request{ID: 1, Op: OpBatch})
	big[reqBaseLen], big[reqBaseLen+1] = byte((MaxBatchOps+1)>>8), byte((MaxBatchOps+1)&0xff)
	if err := decode(big); !errors.Is(err, ErrBatchTooBig) {
		t.Fatalf("oversized batch err = %v, want ErrBatchTooBig", err)
	}
	bigResp := append(AppendResponse(nil, OpBatch, &Response{ID: 1, Status: StatusOverloaded})[:8], 0, 0, 0, 0,
		byte((MaxBatchOps+1)>>8), byte((MaxBatchOps+1)&0xff))
	var p Response
	if err := DecodeResponse(bigResp, OpBatch, &p); !errors.Is(err, ErrBatchTooBig) {
		t.Fatalf("oversized batch reply err = %v, want ErrBatchTooBig", err)
	}
	for _, c := range []struct {
		ops  []BatchOp
		want error
	}{{make([]BatchOp, MaxBatchOps+1), ErrBatchTooBig}, {[]BatchOp{{Op: OpRange}}, ErrBadOp}} {
		if err := func() (err error) {
			defer func() { err, _ = recover().(error) }()
			AppendRequest(nil, &Request{Op: OpBatch, Ops: c.ops})
			return nil
		}(); !errors.Is(err, c.want) {
			t.Fatalf("encode panic = %v, want %v", err, c.want)
		}
	}
}

func TestAggregateRequestRoundTrip(t *testing.T) {
	traced := rtrace.Context{TraceID: 0xdecafbad, SpanID: 5, Flags: rtrace.FlagSampled}
	for _, want := range []Request{
		{ID: 1, Op: OpAggregate, DeadlineMS: 50, Kind: AggRank, Mode: AggModeExact, Key: 42},
		{ID: 2, Op: OpAggregate, Kind: AggSelect, Mode: AggModeStale, MaxDirty: 128, Key: 7},
		{ID: 3, Op: OpAggregate, Kind: AggCount, Mode: AggModeExact, Key: -100, To: 100},
		{ID: 4, Op: OpAggregate, Kind: AggSum, Mode: AggModeStale, MaxDirty: 1 << 40, Key: 0, To: 1 << 50},
		{ID: 5, Op: OpAggregate, Kind: AggCount, Mode: AggModeExact, Key: -1, To: 1, Trace: traced},
	} {
		var got Request
		if err := DecodeRequest(AppendRequest(nil, &want), &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip = (%+v, %v), want %+v", got, err, want)
		}
	}
}

func TestDecodeAggregateRejects(t *testing.T) {
	good := AppendRequest(nil, &Request{ID: 9, Op: OpAggregate, Kind: AggRank, Mode: AggModeExact, Key: 1})
	for _, bad := range []struct{ off, val int }{{reqBaseLen, 99}, {reqBaseLen, 0}, {reqBaseLen + 1, 7}} {
		b := append([]byte(nil), good...)
		b[bad.off] = byte(bad.val)
		var q Request
		if err := DecodeRequest(b, &q); !errors.Is(err, ErrBadAggregate) {
			t.Fatalf("aggregate byte %d = %d: err = %v, want ErrBadAggregate", bad.off, bad.val, err)
		}
	}
}

func TestAggregateResponseRoundTrip(t *testing.T) {
	for _, want := range []Response{
		{ID: 1, Status: StatusOK, OK: true, Value: 12345},
		{ID: 2, Status: StatusOK, OK: true, Value: -1},
		{ID: 3, Status: StatusNoIndex},
		{ID: 4, Status: StatusDeadlineExceeded},
		{ID: 5, Status: StatusOverloaded},
	} {
		var got Response
		if err := DecodeResponse(AppendResponse(nil, OpAggregate, &want), OpAggregate, &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip = (%+v, %v), want %+v", got, err, want)
		}
	}
	// Error statuses carry no value tail, whatever Value holds.
	if b := AppendResponse(nil, OpAggregate, &Response{ID: 6, Status: StatusNoIndex, Value: 9}); len(b) != respBaseLen {
		t.Fatalf("aggregate error encodes %d bytes, want the %d-byte base", len(b), respBaseLen)
	}
}

// TestBatchSteadyStateZeroAlloc asserts the pooled-buffer encode/decode
// cycle — the per-frame work of the server loop and the pipelined
// client — does not allocate once the pool and the records are warm.
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	q := Request{ID: 3, Op: OpBatch, Ops: make([]BatchOp, 64)}
	for i := range q.Ops {
		q.Ops[i] = BatchOp{Op: OpLookup, Key: int64(i)}
	}
	p := Response{ID: 3, Results: make([]BatchResult, 64)}
	var serverReq Request
	var clientResp Response

	allocs := testing.AllocsPerRun(200, func() {
		// Client side: encode a batch request into a pooled buffer.
		req := GetBuf()
		*req = AppendRequest(*req, &q)
		// Server side: decode it into the connection's record, encode the
		// response into another pooled buffer.
		if err := DecodeRequest(*req, &serverReq); err != nil {
			t.Fatal(err)
		}
		PutBuf(req)
		resp := GetBuf()
		*resp = AppendResponse(*resp, OpBatch, &p)
		// Client side again: decode the response into its record.
		if err := DecodeResponse(*resp, OpBatch, &clientResp); err != nil {
			t.Fatal(err)
		}
		PutBuf(resp)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch encode/decode allocates %.1f per op, want 0", allocs)
	}
}
