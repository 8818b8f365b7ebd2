package wire

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rtrace"
)

var goldenTrace = rtrace.Context{TraceID: 0x0102030405060708, SpanID: 0x0a0b0c0d, Flags: rtrace.FlagSampled}

// goldenRequests pins every request shape to the bytes written for it by
// the per-kind encoders the codec had before it was merged (one for point
// and range frames, one for aggregates, one for batches); the hex was
// captured from those encoders, so the merged codec must change no byte.
var goldenRequests = []struct {
	name string
	q    Request
	hex  string
}{
	{"insert", Request{ID: 1, Op: OpInsert, DeadlineMS: 250, Key: 42}, "000000000000000101000000fa000000000000002a"},
	{"delete", Request{ID: 2, Op: OpDelete, Key: -7}, "00000000000000020200000000fffffffffffffff9"},
	{"lookup", Request{ID: 3, Op: OpLookup, DeadlineMS: 1, Key: 1 << 50}, "000000000000000303000000010004000000000000"},
	{"lookup-at", Request{ID: 4, Op: OpLookupAt, DeadlineMS: 9, Key: 5, MinSeq: 77}, "00000000000000040a000000090000000000000005000000000000004d"},
	{"range", Request{ID: 5, Op: OpRange, DeadlineMS: 30, Key: -100, To: 100, Limit: 32}, "0000000000000005040000001effffffffffffff9c000000000000006400000020"},
	{"insert/traced", Request{ID: 1, Op: OpInsert, DeadlineMS: 250, Key: 42, Trace: goldenTrace}, "000000000000000181000000fa000000000000002a01020304050607080a0b0c0d01000000"},
	{"delete/traced", Request{ID: 2, Op: OpDelete, Key: -7, Trace: goldenTrace}, "00000000000000028200000000fffffffffffffff901020304050607080a0b0c0d01000000"},
	{"lookup/traced", Request{ID: 3, Op: OpLookup, DeadlineMS: 1, Key: 1 << 50, Trace: goldenTrace}, "00000000000000038300000001000400000000000001020304050607080a0b0c0d01000000"},
	{"lookup-at/traced", Request{ID: 4, Op: OpLookupAt, DeadlineMS: 9, Key: 5, MinSeq: 77, Trace: goldenTrace}, "00000000000000048a00000009000000000000000501020304050607080a0b0c0d01000000000000000000004d"},
	{"range/traced", Request{ID: 5, Op: OpRange, DeadlineMS: 30, Key: -100, To: 100, Limit: 32, Trace: goldenTrace}, "0000000000000005840000001effffffffffffff9c01020304050607080a0b0c0d01000000000000000000006400000020"},
	{"rank/stale", Request{ID: 12, Op: OpAggregate, DeadlineMS: 40, Key: -3, Kind: AggRank, Mode: AggModeStale, MaxDirty: 64}, "000000000000000c0c00000028fffffffffffffffd010000000000000000400000000000000000"},
	{"rank/exact", Request{ID: 13, Op: OpAggregate, DeadlineMS: 40, Key: -3, Kind: AggRank, Mode: AggModeExact}, "000000000000000d0c00000028fffffffffffffffd010100000000000000000000000000000000"},
	{"select/stale", Request{ID: 14, Op: OpAggregate, DeadlineMS: 40, Key: -3, Kind: AggSelect, Mode: AggModeStale, MaxDirty: 64}, "000000000000000e0c00000028fffffffffffffffd020000000000000000400000000000000000"},
	{"select/exact", Request{ID: 15, Op: OpAggregate, DeadlineMS: 40, Key: -3, Kind: AggSelect, Mode: AggModeExact}, "000000000000000f0c00000028fffffffffffffffd020100000000000000000000000000000000"},
	{"count/stale", Request{ID: 16, Op: OpAggregate, DeadlineMS: 40, Key: -3, To: 1 << 40, Kind: AggCount, Mode: AggModeStale, MaxDirty: 64}, "00000000000000100c00000028fffffffffffffffd030000000000000000400000010000000000"},
	{"count/exact", Request{ID: 17, Op: OpAggregate, DeadlineMS: 40, Key: -3, To: 1 << 40, Kind: AggCount, Mode: AggModeExact}, "00000000000000110c00000028fffffffffffffffd030100000000000000000000010000000000"},
	{"sum/stale", Request{ID: 18, Op: OpAggregate, DeadlineMS: 40, Key: -3, To: 1 << 40, Kind: AggSum, Mode: AggModeStale, MaxDirty: 64}, "00000000000000120c00000028fffffffffffffffd040000000000000000400000010000000000"},
	{"sum/exact", Request{ID: 19, Op: OpAggregate, DeadlineMS: 40, Key: -3, To: 1 << 40, Kind: AggSum, Mode: AggModeExact}, "00000000000000130c00000028fffffffffffffffd040100000000000000000000010000000000"},
	{"aggregate/traced", Request{ID: 20, Op: OpAggregate, Key: 1, To: 9, Kind: AggCount, Mode: AggModeExact, Trace: goldenTrace}, "00000000000000148c00000000000000000000000101020304050607080a0b0c0d01000000030100000000000000000000000000000009"},
	{"batch/0", Request{ID: 30, Op: OpBatch, DeadlineMS: 25}, "000000000000001e050000001900000000000000000000"},
	{"batch/3", Request{ID: 31, Op: OpBatch, DeadlineMS: 25, Ops: goldenOps}, "000000000000001f05000000190000000000000000000301000000000000000102fffffffffffffffe030000010000000000"},
	{"batch/0/traced", Request{ID: 32, Op: OpBatch, Trace: goldenTrace}, "00000000000000208500000000000000000000000001020304050607080a0b0c0d010000000000"},
	{"batch/3/traced", Request{ID: 33, Op: OpBatch, Ops: goldenOps, Trace: goldenTrace}, "00000000000000218500000000000000000000000001020304050607080a0b0c0d01000000000301000000000000000102fffffffffffffffe030000010000000000"},
}

var goldenOps = []BatchOp{{Op: OpInsert, Key: 1}, {Op: OpDelete, Key: -2}, {Op: OpLookup, Key: 1 << 40}}

// goldenResponses does the same for every response shape, each the reply
// to the op named.
var goldenResponses = []struct {
	name string
	op   uint8
	p    Response
	hex  string
}{
	{"point-ok", OpInsert, Response{ID: 40, Status: StatusOK, OK: true}, "00000000000000280001"},
	{"point-ok-false", OpLookup, Response{ID: 41, Status: StatusOK}, "00000000000000290000"},
	{"point-capacity", OpInsert, Response{ID: 42, Status: StatusCapacity}, "000000000000002a0200"},
	{"range-keys", OpRange, Response{ID: 43, Status: StatusOK, OK: true, Keys: []int64{-5, 0, 7, 1 << 40}}, "000000000000002b000100000004fffffffffffffffb000000000000000000000000000000070000010000000000"},
	{"range-none", OpRange, Response{ID: 44, Status: StatusOK, OK: true, Keys: []int64{}}, "000000000000002c000100000000"},
	{"not-leader", OpInsert, Response{ID: 45, Status: StatusNotLeader, Leader: "10.0.0.2:4000"}, "000000000000002d0800000d31302e302e302e323a34303030"},
	{"not-leader-none", OpDelete, Response{ID: 46, Status: StatusNotLeader}, "000000000000002e08000000"},
	{"fenced", OpInsert, Response{ID: 47, Status: StatusFenced, Leader: "10.0.0.3:4000"}, "000000000000002f0a00000d31302e302e302e333a34303030"},
	{"fenced-none", OpInsert, Response{ID: 48, Status: StatusFenced}, "00000000000000300a000000"},
	{"aggregate-value", OpAggregate, Response{ID: 49, Status: StatusOK, OK: true, Value: -12345}, "00000000000000310001ffffffffffffcfc7"},
	{"aggregate-error", OpAggregate, Response{ID: 50, Status: StatusNoIndex}, "00000000000000320b00"},
	{"batch-results", OpBatch, Response{ID: 51, Status: StatusOK, Results: []BatchResult{{StatusOK, true}, {StatusOK, false}, {StatusCapacity, false}, {StatusKeyOutOfRange, false}}}, "00000000000000330000000000040001000002000300"},
	{"batch-empty", OpBatch, Response{ID: 52, Status: StatusOK}, "0000000000000034000000000000"},
	{"batch-refused", OpBatch, Response{ID: 53, Status: StatusOverloaded}, "00000000000000350100"},
	{"batch-redirect", OpBatch, Response{ID: 54, Status: StatusNotLeader, Leader: "h:1"}, "000000000000003608000003683a31"},
}

// TestGoldenFrames: the encoders reproduce every pinned frame byte for
// byte (TestRequestRoundTrip and TestResponseRoundTrip decode them back).
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenRequests {
		if got := hex.EncodeToString(AppendRequest(nil, &g.q)); got != g.hex {
			t.Errorf("%s request:\n got %s\nwant %s", g.name, got, g.hex)
		}
	}
	for _, g := range goldenResponses {
		if got := hex.EncodeToString(AppendResponse(nil, g.op, &g.p)); got != g.hex {
			t.Errorf("%s response:\n got %s\nwant %s", g.name, got, g.hex)
		}
	}
}

// seedVerdicts records, for every checked-in seed of the data-plane fuzz
// targets, what the per-kind decoders made of it before the codec was
// merged: "reject", or the fields they decoded. Request seeds are judged
// by what a server ran on the frame: the header decoder, then the tail
// decoder its op byte named. Response seeds are judged by the decoder of
// their target: the single-key one (the reply to any of the five
// single-key ops), the batch one or the aggregate one.
var seedVerdicts = map[string]string{
	"FuzzDecodeRequest/seed-00":        "id=1 op=1 deadline=50 key=42 to=0 limit=0 minseq=0 kind=0 mode=0 maxdirty=0 trace=0/0/0 ops=[]",
	"FuzzDecodeRequest/seed-01":        "id=2 op=4 deadline=0 key=-10 to=10 limit=100 minseq=0 kind=0 mode=0 maxdirty=0 trace=0/0/0 ops=[]",
	"FuzzDecodeRequest/seed-02":        "reject",
	"FuzzDecodeRequest/seed-03":        "reject",
	"FuzzDecodeRequest/seed-traced-00": "id=21 op=1 deadline=50 key=42 to=0 limit=0 minseq=0 kind=0 mode=0 maxdirty=0 trace=feedbeefcafe/7/1 ops=[]",
	"FuzzDecodeRequest/seed-traced-01": "id=22 op=4 deadline=0 key=-10 to=10 limit=64 minseq=0 kind=0 mode=0 maxdirty=0 trace=feedbeefcafe/7/1 ops=[]",
	// The old batch tail decoder alone accepted this frame as an empty
	// batch because it never read the op byte; the byte says OpRange and
	// the 2-byte tail is short of a range's 12, so the header decoder the
	// server ran first rejected it.
	"FuzzDecodeBatchOps/a1e9d280ab236929": "reject",
	"FuzzDecodeBatchOps/seed-00":          "id=9 op=5 deadline=25 key=0 to=0 limit=0 minseq=0 kind=0 mode=0 maxdirty=0 trace=0/0/0 ops=[{1 1} {2 -2} {3 3}]",
	"FuzzDecodeBatchOps/seed-01":          "id=10 op=5 deadline=0 key=0 to=0 limit=0 minseq=0 kind=0 mode=0 maxdirty=0 trace=0/0/0 ops=[]",
	"FuzzDecodeBatchOps/seed-02":          "reject",
	"FuzzDecodeBatchOps/seed-03":          "reject",
	"FuzzDecodeBatchOps/seed-traced-00":   "id=23 op=5 deadline=25 key=0 to=0 limit=0 minseq=0 kind=0 mode=0 maxdirty=0 trace=feedbeefcafe/7/1 ops=[{1 1} {2 -2} {3 3}]",
	"FuzzDecodeAggregate/seed-00":         "id=1 op=12 deadline=0 key=42 to=0 limit=0 minseq=0 kind=1 mode=1 maxdirty=0 trace=0/0/0 ops=[]",
	"FuzzDecodeAggregate/seed-01":         "id=2 op=12 deadline=0 key=-5 to=5 limit=0 minseq=0 kind=3 mode=0 maxdirty=64 trace=0/0/0 ops=[]",
	"FuzzDecodeAggregate/seed-02":         "id=3 op=12 deadline=0 key=0 to=1073741824 limit=0 minseq=0 kind=4 mode=1 maxdirty=0 trace=feed/2/1 ops=[]",
	"FuzzDecodeAggregate/seed-03":         "id=4 op=12 deadline=0 key=10 to=0 limit=0 minseq=0 kind=2 mode=0 maxdirty=8 trace=0/0/0 ops=[]",
	"FuzzDecodeAggregate/seed-04":         "reject",
	"FuzzDecodeAggregate/seed-05":         "reject",
	"FuzzDecodeAggregate/seed-06":         "reject",

	"FuzzDecodeResponse/seed-00":              `id=1 status=0 ok=true keys=nil leader=""`,
	"FuzzDecodeResponse/seed-01":              `id=2 status=0 ok=false keys=[1 2 3] leader=""`,
	"FuzzDecodeResponse/seed-02":              `id=3 status=0 ok=false keys=[] leader=""`,
	"FuzzDecodeResponse/seed-03":              "reject",
	"FuzzDecodeResponse/seed-04":              "reject",
	"FuzzDecodeResponse/seed-fenced-00":       `id=4 status=10 ok=false keys=nil leader="10.0.0.2:4000"`,
	"FuzzDecodeResponse/seed-fenced-01":       `id=5 status=10 ok=false keys=nil leader=""`,
	"FuzzDecodeResponse/seed-fenced-02-trunc": "reject",
	"FuzzDecodeBatchResponse/seed-00":         "id=4 status=0 results=[{ok true} {capacity false} {key-out-of-range false}]",
	"FuzzDecodeBatchResponse/seed-01":         "id=5 status=0 results=[]",
	"FuzzDecodeBatchResponse/seed-02":         "id=6 status=1 results=[]",
	"FuzzDecodeBatchResponse/seed-03":         "reject",
	"FuzzDecodeAggregateResponse/seed-00":     "id=1 status=0 value=77",
	"FuzzDecodeAggregateResponse/seed-01":     "id=2 status=11 value=0",
	"FuzzDecodeAggregateResponse/seed-02":     "id=3 status=0 value=-9",
	"FuzzDecodeAggregateResponse/seed-03":     "id=4 status=4 value=0",
	"FuzzDecodeAggregateResponse/seed-04":     "reject",
	"FuzzDecodeAggregateResponse/seed-05":     "reject",
}

// TestSeedsDecodeAsBefore: the merged decoders accept and reject every
// seed in seedVerdicts as the per-kind decoders did, and decode the
// accepted ones to the same fields.
func TestSeedsDecodeAsBefore(t *testing.T) {
	for name, want := range seedVerdicts {
		data := readSeed(t, filepath.Join("testdata/fuzz", name))
		target, _ := filepath.Split(name)
		var ops []uint8
		switch target {
		case "FuzzDecodeRequest/", "FuzzDecodeBatchOps/", "FuzzDecodeAggregate/":
			var q Request
			got := "reject"
			if DecodeRequest(data, &q) == nil {
				got = fmt.Sprintf("id=%d op=%d deadline=%d key=%d to=%d limit=%d minseq=%d kind=%d mode=%d maxdirty=%d trace=%x/%x/%x ops=%v",
					q.ID, q.Op, q.DeadlineMS, q.Key, q.To, q.Limit, q.MinSeq, q.Kind, q.Mode, q.MaxDirty,
					q.Trace.TraceID, q.Trace.SpanID, q.Trace.Flags, q.Ops)
			}
			if got != want {
				t.Errorf("%s:\n got %s\nwant %s", name, got, want)
			}
			continue
		case "FuzzDecodeBatchResponse/":
			ops = []uint8{OpBatch}
		case "FuzzDecodeAggregateResponse/":
			ops = []uint8{OpAggregate}
		default:
			ops = []uint8{OpInsert, OpDelete, OpLookup, OpLookupAt, OpRange}
		}
		for _, op := range ops {
			var p Response
			got := "reject"
			if DecodeResponse(data, op, &p) == nil {
				switch op {
				case OpBatch:
					got = fmt.Sprintf("id=%d status=%d results=%v", p.ID, p.Status, p.Results)
				case OpAggregate:
					got = fmt.Sprintf("id=%d status=%d value=%d", p.ID, p.Status, p.Value)
				default:
					keys := "nil"
					if p.Keys != nil {
						keys = fmt.Sprint(p.Keys)
					}
					got = fmt.Sprintf("id=%d status=%d ok=%t keys=%s leader=%q", p.ID, p.Status, p.OK, keys, p.Leader)
				}
			}
			if got != want {
				t.Errorf("%s as a %s reply:\n got %s\nwant %s", name, OpName(op), got, want)
			}
		}
	}
}

// readSeed reads one checked-in corpus file (the `go test fuzz v1` format
// holding a single []byte value).
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, val, _ := strings.Cut(string(b), "\n")
	val = strings.TrimSpace(val)
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(val, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
