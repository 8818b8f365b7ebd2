// Package rtrace is the cluster-wide request-tracing subsystem: a 16-byte
// trace context stamped by the client, carried in an optional extension of
// every wire frame, and threaded through server admission, tree execution,
// the group-commit WAL wait, replication ack wait, and follower apply — so
// one sampled write yields a linked span tree spanning processes.
//
// The design follows the paper's own discipline for telemetry: near-zero
// cost when off, allocation-free when on. Spans land in fixed-size
// lock-free ring buffers (a "flight recorder": overwrite-oldest, zero
// allocation on the record path); a disabled recorder is a nil pointer and
// every entry point is a nil-check no-op. Per-connection rings are
// single-writer (the connection goroutine owns them); a shared multi-writer
// ring absorbs "loose" spans from the client, the replication follower and
// the checkpointer, claimed by atomic fetch-add with per-slot publication
// stamps so readers detect torn slots instead of locking writers out.
//
// Requests that exceed a configurable latency threshold have their full
// span tree copied into a bounded slow-op log, tagged with the dominant
// phase (tree vs fsync vs repl ack) — the answer to "why was
// *this* request slow?" that counters cannot give.
package rtrace

import (
	"sync"
	"sync/atomic"
	"time"
)

// FlagSampled marks a context whose request should record spans.
const FlagSampled = 1

// Context is the wire-portable trace identity: which trace a request
// belongs to, which span is its parent on the sending side, and whether it
// is sampled. The zero Context means "no tracing".
type Context struct {
	TraceID uint64
	SpanID  uint32
	Flags   uint8
}

// Sampled reports whether the context asks for span recording.
func (c Context) Sampled() bool { return c.Flags&FlagSampled != 0 && c.TraceID != 0 }

// ContextLen is the encoded size of a Context: trace ID (8), span ID (4),
// flags (1), three reserved zero bytes. The reserved bytes keep the
// extension 8-byte-aligned for future fields without a format bump.
const ContextLen = 16

// AppendContext encodes c in the wire extension layout.
func AppendContext(dst []byte, c Context) []byte {
	return append(dst,
		byte(c.TraceID>>56), byte(c.TraceID>>48), byte(c.TraceID>>40), byte(c.TraceID>>32),
		byte(c.TraceID>>24), byte(c.TraceID>>16), byte(c.TraceID>>8), byte(c.TraceID),
		byte(c.SpanID>>24), byte(c.SpanID>>16), byte(c.SpanID>>8), byte(c.SpanID),
		c.Flags, 0, 0, 0)
}

// DecodeContext decodes a Context from b, which must hold at least
// ContextLen bytes.
func DecodeContext(b []byte) (Context, bool) {
	if len(b) < ContextLen {
		return Context{}, false
	}
	return Context{
		TraceID: uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
			uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7]),
		SpanID: uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11]),
		Flags:  b[12],
	}, true
}

// Span kinds. KRequest is the per-request root on the serving node; the
// phase kinds below it are its children; the K*Event kinds are
// zero-duration annotations (client-side hops, retries).
const (
	KRequest    = uint8(iota + 1) // server-side request root (wire op in Span.Op)
	KClientSend                   // client: whole round trip including retries
	KTreeOp                       // the lock-free tree operation itself
	KWALWait                      // group-commit WAL append + fsync wait
	KReplWait                     // semi-sync wait for a follower ack
	KApply                        // follower: applying a shipped WAL batch
	KCheckpoint                   // snapshot write + publish
	KRedirect                     // event: client followed a NotLeader redirect
	KReplLag                      // event: read bounced with StatusReplLag
	KRetry                        // event: client retried after a retryable status
	kMax
)

var kindNames = [kMax]string{
	KRequest:    "request",
	KClientSend: "client_send",
	KTreeOp:     "tree_op",
	KWALWait:    "wal_wait",
	KReplWait:   "repl_wait",
	KApply:      "apply",
	KCheckpoint: "checkpoint",
	KRedirect:   "redirect",
	KReplLag:    "repl_lag",
	KRetry:      "retry",
}

// KindName returns the export name of a span kind.
func KindName(k uint8) string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one recorded interval (or, with Dur 0, an instantaneous event).
// Fixed-size and pointer-free so rings recycle slots without allocation.
type Span struct {
	TraceID uint64
	SpanID  uint32
	Parent  uint32 // 0 = root of this process's view
	Kind    uint8
	Op      uint8  // wire op for KRequest spans, else 0
	Conn    uint32 // recording connection ID, 0 for loose spans
	Start   int64  // unix nanoseconds
	Dur     int64  // nanoseconds, 0 for events
	Arg     int64  // kind-specific: key, WAL seq, hop count
}

// ring sizes must be powers of two. Per-connection rings are small (a
// connection's recent history); the shared ring absorbs every loose span
// in the process.
const (
	connRingSize   = 256
	sharedRingSize = 4096
)

// ring is a fixed-size overwrite-oldest span buffer. Writers claim a slot
// by fetch-add and publish it by storing claim+1 into the slot's stamp
// (0 while the write is in flight); readers copy the span and re-check the
// stamp, dropping the slot on a mismatch. Every word of a slot is stored
// and loaded atomically, so a reader copying a slot a writer is filling
// never races it — the stamp only decides whether the copy is whole.
// Single-writer rings never tear; on the shared ring a writer lapped by a
// full ring of faster writers can race a slot, and the stamp protocol
// makes that a dropped sample rather than a lock.
type ring struct {
	slots []slot
	cur   atomic.Uint64
}

// spanWords is a Span's size in 64-bit words.
const spanWords = 6

// slot is one ring entry: a publication stamp and a span packed into
// atomic words.
type slot struct {
	stamp atomic.Uint64
	w     [spanWords]atomic.Uint64
}

func newRing(size int) *ring {
	return &ring{slots: make([]slot, size)}
}

// words packs sp into spanWords words; spanOf unpacks them.
func (sp *Span) words() [spanWords]uint64 {
	return [spanWords]uint64{
		sp.TraceID,
		uint64(sp.SpanID)<<32 | uint64(sp.Parent),
		uint64(sp.Kind)<<40 | uint64(sp.Op)<<32 | uint64(sp.Conn),
		uint64(sp.Start), uint64(sp.Dur), uint64(sp.Arg),
	}
}

func spanOf(w [spanWords]uint64) Span {
	return Span{
		TraceID: w[0],
		SpanID:  uint32(w[1] >> 32), Parent: uint32(w[1]),
		Kind: uint8(w[2] >> 40), Op: uint8(w[2] >> 32), Conn: uint32(w[2]),
		Start: int64(w[3]), Dur: int64(w[4]), Arg: int64(w[5]),
	}
}

func (r *ring) record(sp Span) {
	i := r.cur.Add(1) - 1
	s := &r.slots[i&uint64(len(r.slots)-1)]
	s.stamp.Store(0)
	for j, w := range sp.words() {
		s.w[j].Store(w)
	}
	s.stamp.Store(i + 1)
}

// snapshot appends every currently-published span to dst.
func (r *ring) snapshot(dst []Span) []Span {
	for i := range r.slots {
		s := &r.slots[i]
		s1 := s.stamp.Load()
		if s1 == 0 {
			continue
		}
		var w [spanWords]uint64
		for j := range w {
			w[j] = s.w[j].Load()
		}
		if s.stamp.Load() != s1 {
			continue // torn: a writer replaced the slot mid-copy
		}
		dst = append(dst, spanOf(w))
	}
	return dst
}

// SlowOp is one retained slow request: the root identity plus a copy of
// its full span tree, with the dominant phase already computed.
type SlowOp struct {
	TraceID  uint64
	Op       uint8
	Key      int64
	Start    int64 // unix nanoseconds
	Dur      int64 // nanoseconds
	Dominant uint8 // span kind of the longest phase; 0 = un-instrumented time dominated
	Spans    []Span
}

// DominantName names the dominant phase ("other" when un-instrumented time
// dominates the request).
func (s SlowOp) DominantName() string {
	if s.Dominant == 0 {
		return "other"
	}
	return KindName(s.Dominant)
}

const slowLogSize = 64

// seqTabSize bounds the sampled-seq table used to link WAL sequence
// numbers back to the request context that produced them (for attaching
// trace extensions to shipped replication batches).
const seqTabSize = 128

type seqEntry struct {
	seq uint64
	ctx Context
}

type phaseAgg struct {
	count atomic.Uint64
	nanos atomic.Uint64
}

// Options configures a Recorder.
type Options struct {
	// SampleEvery self-originates a sampled trace on every Nth request
	// that arrives without one. 0 records only requests already flagged
	// by the peer.
	SampleEvery int
	// SlowOp retains the span tree of any request slower than this in the
	// slow-op log. 0 disables the log.
	SlowOp time.Duration
}

// Recorder owns the process's flight recorder: the ring registry, the ID
// generator, the phase aggregates, the sampled-seq table and the slow-op
// log. A nil *Recorder disables everything; every method is nil-safe.
type Recorder struct {
	sampleEvery uint64
	slowNanos   int64

	sampleCtr atomic.Uint64
	idCtr     atomic.Uint64 // splitmix64 state: trace + span IDs
	connCtr   atomic.Uint32

	shared *ring

	mu    sync.Mutex
	conns []*Conn // every connection ever registered (rings are recycled)
	free  []*ring

	phases [kMax]phaseAgg

	slowMu   sync.Mutex
	slowOps  [slowLogSize]SlowOp
	slowLen  int
	slowNext int

	seqMu  sync.Mutex
	seqTab [seqTabSize]seqEntry
	seqLen int
	seqPos int
}

// New creates a Recorder. The ID stream is seeded from the clock so spans
// from distinct processes (leader, follower, client) cannot collide.
func New(opts Options) *Recorder {
	r := &Recorder{
		sampleEvery: uint64(max(opts.SampleEvery, 0)),
		slowNanos:   opts.SlowOp.Nanoseconds(),
		shared:      newRing(sharedRingSize),
	}
	r.idCtr.Store(uint64(time.Now().UnixNano()))
	return r
}

// splitmix64 is the ID mixer (same generator the client uses for backoff
// jitter): one atomic add plus a few multiplies, no locks.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *Recorder) newTraceID() uint64 {
	for {
		if id := splitmix64(r.idCtr.Add(0x9E3779B97F4A7C15)); id != 0 {
			return id
		}
	}
}

func (r *Recorder) newSpanID() uint32 {
	for {
		if id := uint32(splitmix64(r.idCtr.Add(0x9E3779B97F4A7C15))); id != 0 {
			return id
		}
	}
}

// SampleNext is the client-side origination point: on every Nth call (per
// Options.SampleEvery) it returns a fresh sampled Context; otherwise the
// zero Context. Cost when sampling is off: two loads.
func (r *Recorder) SampleNext() Context {
	if r == nil || r.sampleEvery == 0 {
		return Context{}
	}
	if r.sampleCtr.Add(1)%r.sampleEvery != 0 {
		return Context{}
	}
	return Context{TraceID: r.newTraceID(), SpanID: r.newSpanID(), Flags: FlagSampled}
}

// Record writes one loose span (client round trip, follower apply,
// checkpoint) to the shared ring and folds it into the phase aggregates.
// Zero allocation; safe from any goroutine.
func (r *Recorder) Record(sp Span) {
	if r == nil {
		return
	}
	r.shared.record(sp)
	r.phase(sp.Kind, sp.Dur)
}

// Span records a loose interval from start to now, parented under tc.
func (r *Recorder) Span(tc Context, kind uint8, start time.Time, arg int64) {
	if r == nil || !tc.Sampled() {
		return
	}
	r.Record(Span{
		TraceID: tc.TraceID, SpanID: r.newSpanID(), Parent: tc.SpanID,
		Kind: kind, Start: start.UnixNano(), Dur: time.Since(start).Nanoseconds(), Arg: arg,
	})
}

// Event records a loose zero-duration annotation parented under tc.
func (r *Recorder) Event(tc Context, kind uint8, arg int64) {
	if r == nil || !tc.Sampled() {
		return
	}
	r.Record(Span{
		TraceID: tc.TraceID, SpanID: r.newSpanID(), Parent: tc.SpanID,
		Kind: kind, Start: time.Now().UnixNano(), Arg: arg,
	})
}

func (r *Recorder) phase(kind uint8, dur int64) {
	if kind >= kMax {
		return
	}
	r.phases[kind].count.Add(1)
	r.phases[kind].nanos.Add(uint64(dur))
}

// PhaseSnapshot is the cumulative per-kind time accounting, the source of
// bstbench's per-cell phase-breakdown deltas.
type PhaseSnapshot struct {
	Count uint64
	Nanos uint64
}

// Phases returns the cumulative per-kind aggregates keyed by kind name.
func (r *Recorder) Phases() map[string]PhaseSnapshot {
	if r == nil {
		return nil
	}
	out := make(map[string]PhaseSnapshot, kMax)
	for k := uint8(1); k < kMax; k++ {
		c := r.phases[k].count.Load()
		if c == 0 {
			continue
		}
		out[KindName(k)] = PhaseSnapshot{Count: c, Nanos: r.phases[k].nanos.Load()}
	}
	return out
}

// NoteSampledSeq remembers that WAL sequence seq was produced by the
// sampled request tc, so the replication leader can attach the context to
// the shipped batch that covers it.
func (r *Recorder) NoteSampledSeq(seq uint64, tc Context) {
	if r == nil || !tc.Sampled() || seq == 0 {
		return
	}
	r.seqMu.Lock()
	r.seqTab[r.seqPos] = seqEntry{seq: seq, ctx: tc}
	r.seqPos = (r.seqPos + 1) % seqTabSize
	if r.seqLen < seqTabSize {
		r.seqLen++
	}
	r.seqMu.Unlock()
}

// SampledSeqInRange returns the context of a sampled sequence inside
// [first, last], consuming the entry, or ok=false. The replication leader
// calls this once per shipped batch.
func (r *Recorder) SampledSeqInRange(first, last uint64) (Context, uint64, bool) {
	if r == nil || first == 0 {
		return Context{}, 0, false
	}
	r.seqMu.Lock()
	defer r.seqMu.Unlock()
	for i := 0; i < seqTabSize; i++ {
		e := &r.seqTab[i]
		if e.seq >= first && e.seq <= last && e.ctx.Sampled() {
			ctx, seq := e.ctx, e.seq
			*e = seqEntry{}
			return ctx, seq, true
		}
	}
	return Context{}, 0, false
}

// Snapshot copies every currently-published span out of every ring,
// shared and per-connection.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	out := r.shared.snapshot(nil)
	// Collect the rings under mu: Close detaches a conn's ring under it.
	r.mu.Lock()
	rings := make([]*ring, 0, len(r.conns)+len(r.free))
	for _, c := range r.conns {
		rings = append(rings, c.ring)
	}
	rings = append(rings, r.free...)
	r.mu.Unlock()
	seen := make(map[*ring]bool, len(rings))
	for _, rg := range rings {
		if !seen[rg] {
			seen[rg] = true
			out = rg.snapshot(out)
		}
	}
	return out
}

// SlowOps returns the retained slow requests, most recent last.
func (r *Recorder) SlowOps() []SlowOp {
	if r == nil {
		return nil
	}
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	out := make([]SlowOp, 0, r.slowLen)
	start := (r.slowNext - r.slowLen + slowLogSize) % slowLogSize
	for i := 0; i < r.slowLen; i++ {
		out = append(out, r.slowOps[(start+i)%slowLogSize])
	}
	return out
}

func (r *Recorder) addSlowOp(op SlowOp) {
	r.slowMu.Lock()
	r.slowOps[r.slowNext] = op
	r.slowNext = (r.slowNext + 1) % slowLogSize
	if r.slowLen < slowLogSize {
		r.slowLen++
	}
	r.slowMu.Unlock()
}
