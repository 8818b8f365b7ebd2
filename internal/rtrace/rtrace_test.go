package rtrace

import (
	"testing"
	"time"
)

func TestContextRoundTrip(t *testing.T) {
	cases := []Context{
		{},
		{TraceID: 1, SpanID: 2, Flags: FlagSampled},
		{TraceID: ^uint64(0), SpanID: ^uint32(0), Flags: 0xff},
		{TraceID: 0xdeadbeefcafe, SpanID: 0, Flags: 0},
	}
	for _, c := range cases {
		b := AppendContext(nil, c)
		if len(b) != ContextLen {
			t.Fatalf("AppendContext(%+v) encoded %d bytes, want %d", c, len(b), ContextLen)
		}
		got, ok := DecodeContext(b)
		if !ok || got != c {
			t.Fatalf("DecodeContext(AppendContext(%+v)) = (%+v, %v)", c, got, ok)
		}
	}
	if _, ok := DecodeContext(make([]byte, ContextLen-1)); ok {
		t.Fatal("DecodeContext accepted a short buffer")
	}
	// Sampled requires both the flag and a nonzero trace ID.
	if (Context{Flags: FlagSampled}).Sampled() {
		t.Fatal("zero trace ID reported sampled")
	}
	if (Context{TraceID: 7}).Sampled() {
		t.Fatal("unflagged context reported sampled")
	}
}

func TestSampleNextRate(t *testing.T) {
	r := New(Options{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 400; i++ {
		if tc := r.SampleNext(); tc.Sampled() {
			sampled++
		}
	}
	if sampled != 100 {
		t.Fatalf("SampleEvery=4: %d/400 sampled, want 100", sampled)
	}
	var off *Recorder
	if off.SampleNext().Sampled() || New(Options{}).SampleNext().Sampled() {
		t.Fatal("disabled recorder produced a sampled context")
	}
}

func TestConnRequestTree(t *testing.T) {
	r := New(Options{})
	c := r.NewConn()
	defer c.Close()

	parent := Context{TraceID: 99, SpanID: 7, Flags: FlagSampled}
	if !c.StartRequest(parent, 2, 1234) {
		t.Fatal("StartRequest with a sampled context not sampled")
	}
	start := time.Now()
	c.Span(KTreeOp, start, 1234)
	c.Event(KRetry, 3)
	c.EndRequest()

	spans := r.Snapshot()
	var root, child, event *Span
	for i := range spans {
		switch spans[i].Kind {
		case KRequest:
			root = &spans[i]
		case KTreeOp:
			child = &spans[i]
		case KRetry:
			event = &spans[i]
		}
	}
	if root == nil || child == nil || event == nil {
		t.Fatalf("snapshot missing spans: %+v", spans)
	}
	if root.TraceID != 99 || root.Parent != 7 || root.Op != 2 || root.Arg != 1234 {
		t.Fatalf("root span wrong: %+v", *root)
	}
	if child.Parent != root.SpanID || child.TraceID != 99 {
		t.Fatalf("child not parented under root: child %+v root %+v", *child, *root)
	}
	if event.Parent != root.SpanID || event.Dur != 0 || event.Arg != 3 {
		t.Fatalf("event wrong: %+v", *event)
	}
	ph := r.Phases()
	if ph["request"].Count != 1 || ph["tree_op"].Count != 1 {
		t.Fatalf("phases not folded: %+v", ph)
	}
}

func TestConnSelfSampling(t *testing.T) {
	r := New(Options{SampleEvery: 2})
	c := r.NewConn()
	defer c.Close()
	sampled := 0
	for i := 0; i < 10; i++ {
		if c.StartRequest(Context{}, 1, int64(i)) {
			sampled++
			c.EndRequest()
		}
	}
	if sampled != 5 {
		t.Fatalf("SampleEvery=2 over 10 requests: %d sampled, want 5", sampled)
	}
	// Self-sampled requests get distinct fresh trace IDs and no parent.
	seen := map[uint64]bool{}
	for _, sp := range r.Snapshot() {
		if sp.Kind != KRequest {
			continue
		}
		if sp.Parent != 0 {
			t.Fatalf("self-sampled root has parent: %+v", sp)
		}
		if seen[sp.TraceID] {
			t.Fatalf("trace ID %d reused", sp.TraceID)
		}
		seen[sp.TraceID] = true
	}
}

func TestRingOverwriteOldest(t *testing.T) {
	r := New(Options{})
	// Loose spans land in the shared ring; overflow it and verify the
	// newest survive and the count stays bounded.
	for i := 0; i < sharedRingSize+100; i++ {
		r.Record(Span{TraceID: 1, SpanID: uint32(i + 1), Kind: KCheckpoint, Arg: int64(i)})
	}
	spans := r.Snapshot()
	if len(spans) != sharedRingSize {
		t.Fatalf("snapshot holds %d spans, want exactly %d", len(spans), sharedRingSize)
	}
	minArg := int64(1 << 62)
	for _, sp := range spans {
		if sp.Arg < minArg {
			minArg = sp.Arg
		}
	}
	if minArg != 100 {
		t.Fatalf("oldest surviving span Arg = %d, want 100 (overwrite-oldest)", minArg)
	}
}

func TestSlowOpDominantPhase(t *testing.T) {
	r := New(Options{SlowOp: time.Microsecond})
	c := r.NewConn()
	defer c.Close()
	if !c.StartRequest(Context{TraceID: 5, Flags: FlagSampled}, 1, 42) {
		t.Fatal("not sampled")
	}
	walStart := time.Now()
	time.Sleep(2 * time.Millisecond) // the dominant phase
	c.Span(KWALWait, walStart, 10)
	c.Span(KTreeOp, time.Now(), 42) // ~zero duration
	c.EndRequest()

	slow := r.SlowOps()
	if len(slow) != 1 {
		t.Fatalf("SlowOps len = %d, want 1", len(slow))
	}
	so := slow[0]
	if so.TraceID != 5 || so.Key != 42 {
		t.Fatalf("slow op identity wrong: %+v", so)
	}
	if so.Dominant != KWALWait || so.DominantName() != "wal_wait" {
		t.Fatalf("dominant = %s, want wal_wait", so.DominantName())
	}
	if len(so.Spans) != 3 {
		t.Fatalf("slow op retained %d spans, want 3", len(so.Spans))
	}
}

func TestSampledSeqTable(t *testing.T) {
	r := New(Options{})
	tc := Context{TraceID: 11, SpanID: 22, Flags: FlagSampled}
	r.NoteSampledSeq(500, tc)

	if _, _, ok := r.SampledSeqInRange(1, 499); ok {
		t.Fatal("found a seq outside the range")
	}
	got, seq, ok := r.SampledSeqInRange(400, 600)
	if !ok || got != tc || seq != 500 {
		t.Fatalf("SampledSeqInRange = (%+v, %d, %v)", got, seq, ok)
	}
	// The entry is consumed: exactly one shipped batch carries the stamp.
	if _, _, ok := r.SampledSeqInRange(400, 600); ok {
		t.Fatal("entry not consumed")
	}
}

// TestSampledPathAllocs is half of the CI overhead gate (the throughput
// half lives in overhead_test.go): the sampled hot path — request root,
// child span, flush to the ring, phase fold — must not allocate. The slow-
// op copy is exempt (it only runs past the latency threshold, off the fast
// path), so SlowOp stays 0 here.
func TestSampledPathAllocs(t *testing.T) {
	r := New(Options{SampleEvery: 1})
	c := r.NewConn()
	defer c.Close()
	tc := Context{TraceID: 1, SpanID: 1, Flags: FlagSampled}
	start := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() {
		c.StartRequest(tc, 1, 7)
		c.Span(KTreeOp, start, 7)
		c.EndRequest()
	}); allocs != 0 {
		t.Fatalf("sampled conn path allocates %.1f per request, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Record(Span{TraceID: 1, SpanID: 2, Kind: KApply})
	}); allocs != 0 {
		t.Fatalf("loose Record allocates %.1f per span, want 0", allocs)
	}
	// And the disabled path: nil recorder, nil conn.
	var off *Recorder
	oc := off.NewConn()
	if allocs := testing.AllocsPerRun(1000, func() {
		off.SampleNext()
		oc.StartRequest(Context{}, 1, 7)
		oc.EndRequest()
		off.Span(Context{}, KTreeOp, start, 0)
	}); allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per request, want 0", allocs)
	}
}

// TestSnapshotRacesClose scrapes while connections close (run under
// -race: Close detaches a conn's ring while Snapshot may be reading which
// ring that conn holds). The requests end before the race starts, so no
// span is written while Snapshot copies: the test isolates Close.
func TestSnapshotRacesClose(t *testing.T) {
	r := New(Options{SampleEvery: 1})
	conns := make([]*Conn, 200)
	for i := range conns {
		conns[i] = r.NewConn()
		conns[i].StartRequest(Context{}, 1, int64(i))
		conns[i].EndRequest()
	}
	want := len(r.Snapshot())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range conns {
			c.Close()
		}
	}()
	for {
		select {
		case <-done:
			if got := len(r.Snapshot()); got != want {
				t.Fatalf("closing every conn changed the snapshot from %d spans to %d", want, got)
			}
			return
		default:
			r.Snapshot()
		}
	}
}

// TestSnapshotRacesRecord: a scrape copying ring slots while a writer
// fills them is race-free (run with -race), and every copy it keeps is a
// whole span, never a mix of two.
func TestSnapshotRacesRecord(t *testing.T) {
	r := New(Options{SampleEvery: 1})
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Record(Span{TraceID: uint64(i), SpanID: uint32(i), Parent: uint32(i), Kind: KCheckpoint,
				Conn: uint32(i), Start: i, Dur: i, Arg: i})
		}
	}()
	for n := 0; n < 200; n++ {
		for _, sp := range r.Snapshot() {
			i := sp.Arg
			if sp.TraceID != uint64(i) || sp.SpanID != uint32(i) || sp.Parent != uint32(i) ||
				sp.Kind != KCheckpoint || sp.Conn != uint32(i) || sp.Start != i || sp.Dur != i {
				t.Fatalf("snapshot kept a torn span: %+v", sp)
			}
		}
	}
	close(stop)
	<-done
}
