package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/rtrace"
)

// The fuzz targets hold the frame decoders to two properties on arbitrary
// bytes: never panic or over-allocate, and on accept be consistent with
// the encoder (decode∘encode∘decode is the identity). Seed corpora live
// in testdata/fuzz and `make fuzz-smoke` gives each target a short
// budget in CI; run `go test -fuzz FuzzDecodeRequest ./internal/wire`
// for a real session.

// frame encodes q and cuts the last cut bytes off, for truncated seeds.
func frame(q Request, cut int) []byte {
	b := AppendRequest(nil, &q)
	return b[:len(b)-cut]
}

// reply encodes p as the reply to op and cuts the last cut bytes off.
func reply(op uint8, p Response, cut int) []byte {
	b := AppendResponse(nil, op, &p)
	return b[:len(b)-cut]
}

// The data-plane seeds, by frame kind. The merged targets start from every
// kind's seeds; the per-kind targets from one kind's.

func pointRequestSeeds() [][]byte {
	traced := rtrace.Context{TraceID: 0xfeedbeefcafe, SpanID: 7, Flags: rtrace.FlagSampled}
	return [][]byte{
		frame(Request{ID: 1, Op: OpInsert, DeadlineMS: 50, Key: 42}, 0),
		frame(Request{ID: 2, Op: OpRange, Key: -10, To: 10, Limit: 100}, 0),
		frame(Request{ID: 3, Op: OpLookup, Key: 7}, reqBaseLen-5),
		frame(Request{ID: 4, Op: OpInsert, Key: 9, Trace: traced}, 0),
		frame(Request{ID: 5, Op: OpRange, Key: -1, To: 1, Limit: 8, Trace: traced}, 0),
		frame(Request{ID: 6, Op: OpLookupAt, Key: 3, MinSeq: 11, Trace: traced}, rtrace.ContextLen+4),
	}
}

func batchRequestSeeds() [][]byte {
	ops := []BatchOp{{Op: OpInsert, Key: 1}, {Op: OpDelete, Key: -2}, {Op: OpLookup, Key: 3}}
	traced := rtrace.Context{TraceID: 0xabad1dea, SpanID: 3, Flags: rtrace.FlagSampled}
	return [][]byte{
		frame(Request{ID: 9, Op: OpBatch, DeadlineMS: 25, Ops: ops}, 0),
		frame(Request{ID: 10, Op: OpBatch}, 0),
		frame(Request{ID: 11, Op: OpBatch, Ops: ops}, 27),
		frame(Request{ID: 12, Op: OpBatch, DeadlineMS: 25, Ops: ops, Trace: traced}, 0),
		frame(Request{ID: 13, Op: OpBatch, Ops: ops, Trace: traced}, 27),
	}
}

func aggregateRequestSeeds() [][]byte {
	traced := rtrace.Context{TraceID: 0xfeed, SpanID: 2, Flags: rtrace.FlagSampled}
	return [][]byte{
		frame(Request{ID: 1, Op: OpAggregate, Kind: AggRank, Mode: AggModeExact, Key: 42}, 0),
		frame(Request{ID: 2, Op: OpAggregate, Kind: AggCount, Mode: AggModeStale, MaxDirty: 64, Key: -5, To: 5}, 0),
		frame(Request{ID: 3, Op: OpAggregate, Kind: AggSum, Mode: AggModeExact, Key: 0, To: 1 << 30, Trace: traced}, 0),
		frame(Request{ID: 4, Op: OpAggregate, Kind: AggSelect, Mode: AggModeStale, Key: 10}, aggTailLen-3),
	}
}

// pointResponseSeeds are replies to single-key ops. Fenced/NotLeader
// replies carry a redirect tail instead of keys: the hinted and hintless
// forms plus a truncated tail.
func pointResponseSeeds() [][]byte {
	return [][]byte{
		reply(OpLookup, Response{ID: 1, Status: StatusOK, OK: true}, 0),
		reply(OpRange, Response{ID: 2, Status: StatusOK, Keys: []int64{1, 2, 3}}, 0),
		reply(OpRange, Response{ID: 3, Status: StatusOK, Keys: []int64{}}, 0),
		{0, 0, 0, 0, 0, 0, 0, 9, 0, 1, 0xff, 0xff, 0xff, 0xff}, // huge key or result count
		reply(OpInsert, Response{ID: 4, Status: StatusFenced, Leader: "10.0.0.2:4000"}, 0),
		reply(OpInsert, Response{ID: 5, Status: StatusFenced}, 0),
		reply(OpInsert, Response{ID: 6, Status: StatusNotLeader, Leader: "h:1"}, 0),
		reply(OpInsert, Response{ID: 7, Status: StatusFenced, Leader: "10.0.0.3:4000"}, 5),
	}
}

func batchResponseSeeds() [][]byte {
	results := []BatchResult{{Status: StatusOK, OK: true}, {Status: StatusCapacity}, {Status: StatusKeyOutOfRange}}
	return [][]byte{
		reply(OpBatch, Response{ID: 4, Status: StatusOK, Results: results}, 0),
		reply(OpBatch, Response{ID: 5, Status: StatusOK}, 0),
		reply(OpBatch, Response{ID: 6, Status: StatusOverloaded}, 0),
	}
}

func aggregateResponseSeeds() [][]byte {
	return [][]byte{
		reply(OpAggregate, Response{ID: 1, Status: StatusOK, OK: true, Value: 77}, 0),
		reply(OpAggregate, Response{ID: 2, Status: StatusNoIndex}, 0),
		reply(OpAggregate, Response{ID: 3, Status: StatusOK, OK: true, Value: -9}, 5),
	}
}

func addSeeds(f *testing.F, kinds ...[][]byte) {
	for _, seeds := range kinds {
		for _, s := range seeds {
			f.Add(s)
		}
	}
}

// checkRequest holds DecodeRequest to the fuzz properties on one input.
func checkRequest(t *testing.T, data []byte) {
	var q Request
	if err := DecodeRequest(data, &q); err != nil {
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBatchTooBig) &&
			!errors.Is(err, ErrBadOp) && !errors.Is(err, ErrBadAggregate) {
			t.Fatalf("DecodeRequest: unexpected error class %v", err)
		}
		return
	}
	for i, o := range q.Ops {
		if !pointOp(o.Op) {
			t.Fatalf("op %d: accepted invalid batch opcode %d", i, o.Op)
		}
	}
	var q2 Request
	if err := DecodeRequest(AppendRequest(nil, &q), &q2); err != nil {
		t.Fatalf("re-decode of re-encoded %s request: %v", OpName(q.Op), err)
	}
	if !reflect.DeepEqual(q, q2) {
		t.Fatalf("round trip changed the request: %+v -> %+v", q, q2)
	}
}

// checkResponse holds DecodeResponse, decoding data as the reply to op, to
// the fuzz properties.
func checkResponse(t *testing.T, data []byte, op uint8) {
	var p Response
	if err := DecodeResponse(data, op, &p); err != nil {
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBatchTooBig) {
			t.Fatalf("DecodeResponse(%s): unexpected error class %v", OpName(op), err)
		}
		return
	}
	// The decoder must never trust a length prefix beyond the bytes
	// actually present (the uint32 n*8 wrap-around trap).
	if len(p.Keys) > len(data)/8 || len(p.Results) > len(data)/2 {
		t.Fatalf("decoded %d keys and %d results out of a %d-byte frame", len(p.Keys), len(p.Results), len(data))
	}
	var p2 Response
	if err := DecodeResponse(AppendResponse(nil, op, &p), op, &p2); err != nil {
		t.Fatalf("re-decode of re-encoded %s response: %v", OpName(op), err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("%s round trip changed the response: %+v -> %+v", OpName(op), p, p2)
	}
}

// FuzzDecodeRequest decodes every request kind: seeds #0–#5 are point and
// range frames, #6–#10 batches, #11–#14 aggregates.
func FuzzDecodeRequest(f *testing.F) {
	addSeeds(f, pointRequestSeeds(), batchRequestSeeds(), aggregateRequestSeeds())
	f.Fuzz(checkRequest)
}

// FuzzDecodeBatchOps and FuzzDecodeAggregate run FuzzDecodeRequest's
// check from one kind's seeds and corpus, so a session spends its
// mutations near that kind's tail.
func FuzzDecodeBatchOps(f *testing.F) {
	addSeeds(f, batchRequestSeeds())
	f.Fuzz(checkRequest)
}

func FuzzDecodeAggregate(f *testing.F) {
	addSeeds(f, aggregateRequestSeeds())
	f.Fuzz(checkRequest)
}

// dataPlaneOps are the ops whose reply FuzzDecodeResponse decodes each
// input as.
var dataPlaneOps = []uint8{OpInsert, OpDelete, OpLookup, OpLookupAt, OpRange, OpAggregate, OpBatch}

// FuzzDecodeResponse decodes each input as the reply to every data-plane
// op: seeds #0–#7 are single-key replies, #8–#10 batch replies, #11–#13
// aggregate replies.
func FuzzDecodeResponse(f *testing.F) {
	addSeeds(f, pointResponseSeeds(), batchResponseSeeds(), aggregateResponseSeeds())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, op := range dataPlaneOps {
			checkResponse(t, data, op)
		}
	})
}

// FuzzDecodeBatchResponse and FuzzDecodeAggregateResponse decode each
// input as the reply to one op only, from that op's seeds and corpus.
func FuzzDecodeBatchResponse(f *testing.F) {
	addSeeds(f, batchResponseSeeds())
	f.Fuzz(func(t *testing.T, data []byte) { checkResponse(t, data, OpBatch) })
}

func FuzzDecodeAggregateResponse(f *testing.F) {
	addSeeds(f, aggregateResponseSeeds())
	f.Fuzz(func(t *testing.T, data []byte) { checkResponse(t, data, OpAggregate) })
}

func FuzzReadFrame(f *testing.F) {
	var framed bytes.Buffer
	WriteFrame(&framed, AppendRequest(nil, &Request{ID: 1, Op: OpInsert, Key: 42}))
	f.Add(framed.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 2, 0xab})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, _, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			if errors.Is(err, ErrFrameTooBig) || errors.Is(err, ErrTruncated) ||
				errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return
			}
			t.Fatalf("ReadFrame: unexpected error class %v", err)
		}
		if len(payload) > MaxFrame {
			t.Fatalf("ReadFrame returned a %d-byte payload past MaxFrame", len(payload))
		}
		if len(payload) > len(data) {
			t.Fatalf("ReadFrame conjured %d payload bytes from %d input bytes", len(payload), len(data))
		}
	})
}
