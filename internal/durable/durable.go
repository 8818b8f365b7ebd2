// Package durable wraps a bst.Tree with write-ahead logging and
// checkpointing so the set survives crashes: the classic
// checkpoint-plus-log shape, built on two properties the tree already
// has — idempotent set semantics (replaying an insert/delete against a
// state that reflects it is a no-op) and an epoch-pinned weakly-consistent
// Scan that can stream a checkpoint without stopping writers.
//
// # Log-before-ack
//
// Every acknowledged mutation is in the WAL before the caller sees the
// result: apply to the tree, append to the log, then — under the fsync
// policy — wait for the group commit before returning. Only set-changing
// outcomes are logged; an Insert that returns false changed nothing, so it
// needs no durability (its ack is an observation, not a promise).
//
// # Per-key ordering
//
// Replay is per-key order-sensitive (insert-then-delete and
// delete-then-insert end differently), so the wrapper serializes each
// key's tree-apply + log-append through one of 256 striped mutexes. The
// stripe is held only for the tree operation and the (non-blocking) log
// enqueue — nanoseconds — never across the fsync wait, so group commit
// still batches arbitrarily many concurrent appenders. Operations on
// different keys commute, and their relative WAL order is irrelevant.
//
// # Checkpoint correctness
//
// Checkpoint records horizon H = log.LastSeq() and then scans. Any op
// with seq ≤ H ran its tree mutation before its seq was assigned (same
// stripe critical section), hence before the scan began, so the scan
// observes it; the weakly-consistent scan may also observe some ops with
// seq > H, which replay then re-applies idempotently. Recovery loads the
// newest valid snapshot and replays records with seq > H.
//
// # Recovery shape
//
// Snapshot keys are sorted, and inserting a sorted run into an external
// BST builds a worst-case spine. A core batch applies the keys that land
// on one leaf median-first, so one sorted batch builds a balanced
// subtree; but a sorted stream cut into consecutive batches would still
// hang each batch's subtree below the previous one's rightmost leaf.
// Recovery therefore inserts in BFS level-order of the implicit balanced
// tree over the sorted keys — the root median first, then the two
// quartile medians, and so on — giving a perfectly balanced start across
// batches. Each level's medians are themselves ascending, so the
// batched-descent insert path applies.
package durable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	bst "repro"
	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/rtrace"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// Reuse the WAL's op codes as the package's public vocabulary.
const (
	opInsert = wal.OpInsert
	opDelete = wal.OpDelete
)

const numStripes = 256

// Options configures Open.
type Options struct {
	// Sync is the WAL durability policy (default wal.SyncFsync: acked ⇒
	// durable).
	Sync wal.SyncPolicy
	// SyncInterval is the fsync period under wal.SyncInterval.
	SyncInterval time.Duration
	// CheckpointEvery triggers a background checkpoint after this many
	// logged mutations (0 disables automatic checkpoints; explicit
	// Checkpoint calls always work).
	CheckpointEvery int
	// SegmentBytes is the WAL segment rotation size (0 = default).
	SegmentBytes int64
	// TreeOptions are passed to bst.New when recovery builds the tree.
	TreeOptions []bst.Option
	// Logf, when non-nil, receives recovery/checkpoint progress lines.
	Logf func(format string, args ...any)
	// Trace, when non-nil, instruments the synchronous mutation path for
	// deployments that embed the durable tree directly (bstbench's durable
	// cells): self-sampled mutations record a KTreeOp span (tree apply +
	// stripe + log enqueue) and a KWALWait span (the group-commit wait),
	// and every checkpoint records a loose KCheckpoint span. The server
	// path instruments these phases itself — wire Trace at exactly one
	// layer or phases double-count.
	Trace *rtrace.Recorder
	// Failpoints passes fault-injection sites down to the WAL (wal.FPFsync
	// stalls or fails the flusher's fsync). Leave nil in production.
	Failpoints *failpoint.Set
}

// RecoveryStats describes what Open reconstructed.
type RecoveryStats struct {
	// SnapshotPath is the snapshot the tree was loaded from ("" if none).
	SnapshotPath string
	// SnapshotWALSeq is that snapshot's horizon H.
	SnapshotWALSeq uint64
	// SnapshotKeys is the number of keys bulk-loaded.
	SnapshotKeys uint64
	// CorruptSnapshots counts newer snapshots skipped as corrupt.
	CorruptSnapshots int
	// ReplayedOps is the number of WAL records applied after the snapshot.
	ReplayedOps uint64
	// WALTornBytes is the size of the torn tail truncated at open.
	WALTornBytes uint64
	// Duration is wall time for the whole recovery.
	Duration time.Duration
}

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	WALSeq      uint64 // horizon the snapshot covers
	Keys        uint64 // keys written
	Bytes       int64  // snapshot file size
	Duration    time.Duration
	SnapshotsGC int // superseded snapshots removed
	SegmentsGC  int // fully-checkpointed WAL segments removed
}

// lane is one WAL-and-snapshot chain, one per shard, covering that shard's
// key range [lo, hi]. A one-shard store's lane is rooted at the data
// directory; a sharded store's lanes each live in a shard-NNN subdirectory.
type lane struct {
	dir string
	log *wal.Log
	lo  int64 // inclusive user key range this lane covers
	hi  int64
}

// Tree is a durable concurrent ordered set: a bst.Tree plus one WAL lane
// per shard and a checkpointer. It satisfies the server's Store contract
// (NewAccessor, Scan, Health) so it drops into bstserve unchanged.
//
// With a sharded tree (bst.WithShards) every lane is independent: a key's
// mutations apply to its shard and append to its lane, checkpoints
// snapshot all lanes concurrently (one epoch-pinned scan per shard), and
// recovery replays lanes in parallel. Because the key→shard mapping is
// fixed, one key's records always live in one lane and per-key replay
// order is preserved; the forest manifest (manifest.go) pins the mapping
// so a mismatched reopen is refused instead of silently misrouted.
type Tree struct {
	dir  string
	opts Options
	tree *bst.Tree
	log  *wal.Log // lanes[0].log; the only log on one shard (replication works through it)

	lanes []*lane

	stripes [numStripes]sync.Mutex

	recovery RecoveryStats

	ckptMu      sync.Mutex // one checkpoint at a time
	ckptRunning atomic.Bool
	sinceCkpt   atomic.Int64 // mutations logged since the last checkpoint
	ckptWG      sync.WaitGroup

	// walTap holds the replication frame tap (SetWALTap), dispatched from
	// the WAL flusher via fireTap. Stored as a func value so a leader can
	// be wired up after Open without reopening the log.
	walTap atomic.Value // func([]byte, uint64, uint64)

	closed atomic.Bool

	// fenceTerm, when non-zero, refuses direct mutations: the node was
	// deposed by this leader term (see Fence).
	fenceTerm atomic.Uint64

	// Cumulative checkpoint/recovery telemetry for MetricsHook.
	snapshots     atomic.Uint64
	snapshotKeys  atomic.Uint64
	snapshotHist  metrics.Histogram
	lastCkptSeq   atomic.Uint64
	replayedTotal atomic.Uint64
}

func stripeOf(key int64) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> 56)
}

// laneOf routes a key to its WAL lane. The key→lane mapping is the tree's
// key→shard routing, pinned on disk by the forest manifest, so a key's
// whole history stays in one lane.
func (d *Tree) laneOf(key int64) int { return d.tree.ShardOf(key) }

// Shards reports the number of WAL lanes (= the tree's shard count).
func (d *Tree) Shards() int { return len(d.lanes) }

// Open recovers (or creates) a durable tree in dir: newest valid snapshot
// → balanced bulk load → WAL tail replay, per lane. A corrupt snapshot
// falls back to the next older one; a corrupt WAL interior refuses with
// wal.ErrCorrupt. When TreeOptions selects a sharded tree (bst.WithShards)
// each shard recovers its own lane — snapshot load, WAL open and tail
// replay for all lanes run in parallel (disjoint key ranges; each replay
// goroutine owns a private accessor).
func Open(dir string, opts Options) (*Tree, error) {
	start := time.Now()
	d := &Tree{dir: dir, opts: opts}
	d.tree = bst.New(opts.TreeOptions...)
	n := d.tree.Shards()
	bounds := make([]int64, n)
	for i := range bounds {
		_, bounds[i] = d.tree.ShardKeyRange(i)
	}
	if _, err := checkLayout(dir, n, bounds); err != nil {
		d.tree.Close()
		return nil, err
	}

	// Every lane recovers in parallel (disjoint key ranges). A one-shard
	// store's lane is the data directory itself, with the replication tap
	// wired: the layout of every store created before sharding existed.
	// A forest's lanes live in shard-NNN subdirectories and tap nothing.
	var tap func([]byte, uint64, uint64)
	if n == 1 {
		tap = d.fireTap
	}
	d.lanes = make([]*lane, n)
	horizons := make([]uint64, n)
	stats := make([]RecoveryStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range d.lanes {
		ln := &lane{dir: laneDir(dir, i, n)}
		ln.lo, ln.hi = d.tree.ShardKeyRange(i)
		d.lanes[i] = ln
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			horizons[i], errs[i] = d.openLane(ln, tap, &stats[i])
		}(i)
	}
	wg.Wait()
	var err error
	for i, e := range errs {
		if e != nil && err == nil {
			err = fmt.Errorf("shard %d: %w", i, e)
		}
	}
	if err != nil {
		for _, ln := range d.lanes {
			if ln.log != nil {
				ln.log.Close()
			}
		}
		d.tree.Close()
		return nil, err
	}
	// The recovered snapshot is the lane's own on one shard, the manifest
	// that pins every lane's horizon on a forest.
	d.recovery.SnapshotPath = stats[0].SnapshotPath
	if n > 1 {
		d.recovery.SnapshotPath = manifestPath(dir)
	}
	// lastCkptSeq tracks the horizon sum so checkpoint_backlog_ops stays
	// meaningful against the summed wal_last_seq.
	var hsum uint64
	for i, rs := range stats {
		d.recovery.SnapshotKeys += rs.SnapshotKeys
		d.recovery.CorruptSnapshots += rs.CorruptSnapshots
		d.recovery.ReplayedOps += rs.ReplayedOps
		d.recovery.WALTornBytes += rs.WALTornBytes
		d.recovery.SnapshotWALSeq = max(d.recovery.SnapshotWALSeq, rs.SnapshotWALSeq)
		hsum += horizons[i]
	}
	d.log = d.lanes[0].log
	d.replayedTotal.Store(d.recovery.ReplayedOps)
	d.recovery.Duration = time.Since(start)
	d.lastCkptSeq.Store(hsum)
	d.logf("durable: recovered %d snapshot key(s) + %d replayed op(s) across %d lane(s) in %s",
		d.recovery.SnapshotKeys, d.recovery.ReplayedOps, len(d.lanes), d.recovery.Duration)
	return d, nil
}

// openLane recovers one lane into d.tree: newest valid snapshot in the
// lane's directory (bulk-loaded through a routing accessor), then the
// lane's WAL tail. Safe to run concurrently for distinct lanes — they
// cover disjoint key ranges and each call uses its own accessor. Returns
// the lane's snapshot horizon.
func (d *Tree) openLane(ln *lane, tap func([]byte, uint64, uint64), rs *RecoveryStats) (uint64, error) {
	snaps, err := snapshot.List(ln.dir)
	if err != nil {
		return 0, err
	}
	var horizon uint64
	for _, s := range snaps {
		keys, walSeq, lerr := loadSnapshotKeys(s.Path)
		if lerr != nil {
			if errors.Is(lerr, snapshot.ErrCorrupt) {
				d.logf("durable: skipping corrupt snapshot %s: %v", s.Path, lerr)
				rs.CorruptSnapshots++
				continue
			}
			return 0, lerr
		}
		if berr := bulkLoadBalanced(d.tree, keys); berr != nil {
			return 0, fmt.Errorf("durable: bulk load: %w", berr)
		}
		horizon = walSeq
		rs.SnapshotPath = s.Path
		rs.SnapshotWALSeq = walSeq
		rs.SnapshotKeys = uint64(len(keys))
		break
	}

	log, err := wal.Open(ln.dir, wal.Options{
		Sync:         d.opts.Sync,
		Interval:     d.opts.SyncInterval,
		SegmentBytes: d.opts.SegmentBytes,
		NextSeq:      horizon + 1,
		Logf:         d.opts.Logf,
		Tap:          tap,
		Failpoints:   d.opts.Failpoints,
	})
	if err != nil {
		return 0, err
	}
	acc := d.tree.NewAccessor()
	replayed := uint64(0)
	rerr := log.Replay(horizon, func(r wal.Record) error {
		switch r.Op {
		case opInsert:
			if _, err := acc.TryInsert(r.Key); err != nil {
				return fmt.Errorf("durable: replay insert %d (seq %d): %w", r.Key, r.Seq, err)
			}
		case opDelete:
			acc.Delete(r.Key)
		}
		replayed++
		return nil
	})
	acc.Close()
	if rerr != nil {
		log.Close()
		return 0, rerr
	}
	ln.log = log
	rs.ReplayedOps = replayed
	rs.WALTornBytes = log.Stats().TornTruncated
	return horizon, nil
}

func (d *Tree) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// loadSnapshotKeys reads a whole snapshot into memory. The keys must be
// materialized anyway for balanced loading, and doing it before building
// the tree means a corrupt snapshot costs no tree work.
func loadSnapshotKeys(path string) (keys []int64, walSeq uint64, err error) {
	walSeq, count, err := snapshot.Load(path, 8192, func(chunk []int64) error {
		keys = append(keys, chunk...)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(keys)) != count {
		return nil, 0, fmt.Errorf("%w: streamed %d keys, trailer says %d", snapshot.ErrCorrupt, len(keys), count)
	}
	return keys, walSeq, nil
}

// bulkLoadBalanced inserts sorted keys in BFS level-order of the implicit
// balanced BST: each level's medians are ascending, so every InsertBatch
// call gets a sorted run and the result is a balanced external tree
// instead of the N-deep spine sequential insertion would build.
func bulkLoadBalanced(tree *bst.Tree, keys []int64) error {
	if len(keys) == 0 {
		return nil
	}
	const chunk = 1024
	acc := tree.NewAccessor()
	defer acc.Close()
	batch := make([]int64, 0, chunk)
	out := make([]bst.OpResult, chunk)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		acc.InsertBatch(batch, out[:len(batch)])
		for i := range batch {
			if err := out[i].Err; err != nil {
				return fmt.Errorf("key %d: %w", batch[i], err)
			}
		}
		batch = batch[:0]
		return nil
	}

	type span struct{ lo, hi int }
	level := []span{{0, len(keys)}}
	next := make([]span, 0, 2)
	for len(level) > 0 {
		next = next[:0]
		for _, s := range level {
			if s.lo >= s.hi {
				continue
			}
			mid := int(uint(s.lo+s.hi) >> 1)
			batch = append(batch, keys[mid])
			if len(batch) == chunk {
				if err := flush(); err != nil {
					return err
				}
			}
			next = append(next, span{s.lo, mid}, span{mid + 1, s.hi})
		}
		// Flush at the level boundary: the next level's first median is
		// smaller than this level's last, and InsertBatch wants runs it
		// can sort cheaply (each level is already ascending).
		if err := flush(); err != nil {
			return err
		}
		level, next = next, level
	}
	return nil
}

// ErrFenced is returned by direct mutations on a store whose node was
// deposed by a newer leader term: the replication layer fenced the store
// (Fence) and writes must be refused even when the request slipped past
// the server's role gate before the fence landed. Replicated applies and
// reads are unaffected.
var ErrFenced = errors.New("durable: fenced by a newer leader term")

// Fence refuses direct mutations (Insert/TryInsert/Delete and the batch
// paths) from now on, recording the deposing term. The replication layer
// calls it the moment the node observes a term newer than its own while
// believing itself leader — the apply-side half of term fencing: even a
// request already inside the server cannot produce an acknowledged write
// after the fence. ApplyRecord/ApplySnapshot (replicated state from the
// new leader) and reads keep working. Monotonic: a lower term than the
// recorded one does not overwrite it; Unfence (promotion) lifts it.
func (d *Tree) Fence(term uint64) {
	for {
		old := d.fenceTerm.Load()
		if term <= old || d.fenceTerm.CompareAndSwap(old, term) {
			return
		}
	}
}

// Unfence lifts a fence; the replication layer calls it when this node is
// (re-)promoted to leader and may take writes again.
func (d *Tree) Unfence() { d.fenceTerm.Store(0) }

// FencedTerm returns the term that fenced this store (0 = not fenced).
func (d *Tree) FencedTerm() uint64 { return d.fenceTerm.Load() }

// ErrNotDurable wraps a WAL failure that follows a tree change: the change
// is in the tree, but it cannot be made durable, so it must not be
// acknowledged. A server that meets it on any path severs the connection
// instead of answering.
var ErrNotDurable = errors.New("durable: change applied to the tree but not made durable")

// setter is the mutation surface write drives: the tree itself, or one of
// its accessors. Neither method panics on the keys write passes.
type setter interface {
	TryInsert(key int64) (bool, error)
	Delete(key int64) bool
}

// write is the one single-key mutation path: it runs op on t under the
// key's stripe — tree first, then the non-blocking WAL enqueue, so the
// record's sequence order matches the key's linearization order — and
// returns the record's ticket; durability is the caller's to wait for.
// Out-of-range keys are refused before the stripe is taken, and nothing
// under the stripe can panic, so no outcome leaves it locked.
func (d *Tree) write(t setter, op uint8, key int64) (bool, wal.Ticket, error) {
	if d.fenceTerm.Load() != 0 {
		return false, wal.Ticket{}, ErrFenced
	}
	if key > bst.MaxKey {
		return false, wal.Ticket{}, fmt.Errorf("%w: %d > %d", bst.ErrKeyOutOfRange, key, bst.MaxKey)
	}
	lg := d.lanes[d.laneOf(key)].log
	st := &d.stripes[stripeOf(key)]
	st.Lock()
	var ok bool
	var err error
	if op == opInsert {
		ok, err = t.TryInsert(key)
	} else {
		ok = t.Delete(key)
	}
	var tk wal.Ticket
	if ok {
		tk = lg.Enqueue(op, key)
	}
	st.Unlock()
	if ok {
		d.noteMutations(1)
	}
	return ok, tk, err
}

// apply is write plus the ticket wait: it returns once the change is
// durable per the sync policy, and records the Options.Trace spans.
func (d *Tree) apply(t setter, op uint8, key int64) (bool, error) {
	tc := d.opts.Trace.SampleNext()
	var treeStart time.Time
	if tc.Sampled() {
		treeStart = time.Now()
	}
	ok, tk, err := d.write(t, op, key)
	if tc.Sampled() {
		d.opts.Trace.Span(tc, rtrace.KTreeOp, treeStart, key)
	}
	if !ok {
		return false, err
	}
	var walStart time.Time
	if tc.Sampled() {
		walStart = time.Now()
	}
	if _, werr := tk.Wait(); werr != nil {
		return false, fmt.Errorf("%w: %w", ErrNotDurable, werr)
	}
	if tc.Sampled() {
		d.opts.Trace.Span(tc, rtrace.KWALWait, walStart, int64(tk.Seq()))
	}
	return true, nil
}

// mustApply is apply for the panicking methods: any error panics, after
// the stripe is released.
func (d *Tree) mustApply(t setter, op uint8, key int64) bool {
	ok, err := d.apply(t, op, key)
	if err != nil {
		panic(err)
	}
	return ok
}

// noteMutations advances the auto-checkpoint trigger.
func (d *Tree) noteMutations(n int64) {
	if d.opts.CheckpointEvery <= 0 {
		return
	}
	if d.sinceCkpt.Add(n) >= int64(d.opts.CheckpointEvery) && d.ckptRunning.CompareAndSwap(false, true) {
		d.ckptWG.Add(1)
		go func() {
			defer d.ckptWG.Done()
			defer d.ckptRunning.Store(false)
			if d.closed.Load() {
				return
			}
			if _, err := d.Checkpoint(); err != nil && !errors.Is(err, errClosed) {
				d.logf("durable: automatic checkpoint failed: %v", err)
			}
		}()
	}
}

// Insert adds key; it reports whether the set changed, and does not return
// until the change is durable per the sync policy. An out-of-range key, a
// full arena or a WAL failure panics (matching Insert's panicking
// contract); use TryInsert for an error.
func (d *Tree) Insert(key int64) bool { return d.mustApply(d.tree, opInsert, key) }

// TryInsert is the non-panicking Insert: it reports ErrKeyOutOfRange,
// ErrCapacity, and WAL failures (ErrNotDurable) as errors.
func (d *Tree) TryInsert(key int64) (bool, error) { return d.apply(d.tree, opInsert, key) }

// Delete removes key; it reports whether the set changed, durably. Like
// Insert, it panics on an out-of-range key or a WAL failure.
func (d *Tree) Delete(key int64) bool { return d.mustApply(d.tree, opDelete, key) }

// Contains reports whether key is present (reads don't touch the log).
func (d *Tree) Contains(key int64) bool { return d.tree.Contains(key) }

// Len returns the number of keys (quiescent; see bst.Tree.Len).
func (d *Tree) Len() int { return d.tree.Len() }

// Scan passes through to the tree's epoch-pinned weakly-consistent scan.
func (d *Tree) Scan(from, to int64, yield func(key int64) bool) { d.tree.Scan(from, to, yield) }

// Health passes through to the underlying tree.
func (d *Tree) Health() bst.Health { return d.tree.Health() }

// Underlying exposes the wrapped tree for telemetry wiring (metrics
// registry). Mutating through it bypasses the WAL; don't.
func (d *Tree) Underlying() *bst.Tree { return d.tree }

// Order-statistics pass-throughs: aggregates are reads, so nothing is
// logged, and a durable store fronting an indexed tree stays indexed over
// the wire (the server discovers the capability by type assertion).

// Rank passes through to the tree's order-statistics index.
func (d *Tree) Rank(key int64, c bst.Consistency) (int, error) { return d.tree.Rank(key, c) }

// Select passes through to the tree's order-statistics index.
func (d *Tree) Select(i int, c bst.Consistency) (int64, error) { return d.tree.Select(i, c) }

// CountRange passes through to the tree's order-statistics index.
func (d *Tree) CountRange(lo, hi int64, c bst.Consistency) (int, error) {
	return d.tree.CountRange(lo, hi, c)
}

// SumRange passes through to the tree's order-statistics index.
func (d *Tree) SumRange(lo, hi int64, c bst.Consistency) (int64, error) {
	return d.tree.SumRange(lo, hi, c)
}

// Dir returns the data directory (snapshots + WAL segments live there).
func (d *Tree) Dir() string { return d.dir }

// LastSeq returns the newest assigned WAL sequence number, summed across
// lanes. On a sharded store the sum is monotonic and usable as a progress
// gauge, but not a position in any one log; replication (which needs the
// latter) is restricted to one-shard stores.
func (d *Tree) LastSeq() uint64 {
	var s uint64
	for _, ln := range d.lanes {
		s += ln.log.LastSeq()
	}
	return s
}

// DurableSeq returns the newest WAL sequence number known fsynced (the
// lane sum; see LastSeq).
func (d *Tree) DurableSeq() uint64 {
	var s uint64
	for _, ln := range d.lanes {
		s += ln.log.DurableSeq()
	}
	return s
}

// ErrSharded is returned by the replication surface on a sharded store:
// WAL shipping assumes one dense global sequence, which a forest of
// several independent lanes does not have. Run replication with shards = 1.
var ErrSharded = errors.New("durable: operation requires an unsharded store (shards = 1)")

// WALFirstSeq returns the oldest WAL sequence number still retained;
// replication catch-up below it must come from a snapshot. Unsharded only.
func (d *Tree) WALFirstSeq() uint64 { return d.log.FirstSeq() }

// ReplayWAL streams retained records with seq > after to fn (see
// wal.Log.Replay for the live-log semantics replication relies on).
// Unsharded only: a forest's lanes have independent numbering.
func (d *Tree) ReplayWAL(after uint64, fn func(wal.Record) error) error {
	if len(d.lanes) != 1 {
		return ErrSharded
	}
	return d.log.Replay(after, fn)
}

// SetWALTap installs (or, with nil, removes) the frame tap the replication
// leader uses to observe committed WAL frames. The tap runs on the WAL
// flusher goroutine and must not retain the frame bytes past the call.
func (d *Tree) SetWALTap(fn func(frames []byte, firstSeq, lastSeq uint64)) {
	d.walTap.Store(fn)
}

func (d *Tree) fireTap(frames []byte, firstSeq, lastSeq uint64) {
	if f, _ := d.walTap.Load().(func([]byte, uint64, uint64)); f != nil {
		f(frames, firstSeq, lastSeq)
	}
}

// ApplyRecord applies one replicated WAL record on a follower: tree first,
// then the local WAL append, exactly like a leader-side mutation — so the
// follower's log is byte-for-byte replayable and its own checkpoints work
// unchanged. Records must arrive in dense sequence order (the replication
// stream's contract); a gap is a protocol error, not something to paper
// over. The caller is the single apply goroutine, so no stripe locking is
// needed — but the stripes are taken anyway because a follower can be
// promoted, and the moment it starts taking writes the per-key ordering
// argument must already hold.
func (d *Tree) ApplyRecord(r wal.Record) error {
	if d.closed.Load() {
		return errClosed
	}
	if len(d.lanes) != 1 {
		return ErrSharded
	}
	if r.Key > bst.MaxKey {
		return fmt.Errorf("durable: replicated record seq %d: %w", r.Seq, bst.ErrKeyOutOfRange)
	}
	st := &d.stripes[stripeOf(r.Key)]
	st.Lock()
	defer st.Unlock()
	if want := d.log.LastSeq() + 1; r.Seq != want {
		return fmt.Errorf("durable: replication sequence gap: got %d, want %d", r.Seq, want)
	}
	switch r.Op {
	case opInsert:
		if _, err := d.tree.TryInsert(r.Key); err != nil {
			return fmt.Errorf("durable: replicated insert %d (seq %d): %w", r.Key, r.Seq, err)
		}
	case opDelete:
		d.tree.Delete(r.Key)
	default:
		return fmt.Errorf("durable: replicated record seq %d has unknown op %d", r.Seq, r.Op)
	}
	t := d.log.Enqueue(r.Op, r.Key)
	if t.Seq() != r.Seq {
		return fmt.Errorf("durable: local log assigned seq %d to replicated record %d (local writes on a follower?)", t.Seq(), r.Seq)
	}
	d.noteMutations(1)
	return nil
}

// ApplySnapshot bulk-loads a replicated snapshot (ascending keys covering
// walSeq) into an empty store, advances the local WAL numbering past the
// horizon, and persists a local snapshot so recovery never depends on the
// leader being reachable. It refuses a store that already holds data: a
// follower whose local history diverged from what the leader retains needs
// its data directory cleared by the operator, not a silent merge.
func (d *Tree) ApplySnapshot(keys []int64, walSeq uint64) error {
	if d.closed.Load() {
		return errClosed
	}
	if len(d.lanes) != 1 {
		return ErrSharded
	}
	if d.log.LastSeq() != 0 || d.tree.Len() != 0 {
		return errors.New("durable: ApplySnapshot needs an empty store (clear the data directory and resync)")
	}
	if err := bulkLoadBalanced(d.tree, keys); err != nil {
		return fmt.Errorf("durable: snapshot bulk load: %w", err)
	}
	if err := d.log.SkipTo(walSeq); err != nil {
		return err
	}
	info, err := snapshot.Write(d.dir, walSeq, func(emit func(int64) error) error {
		for _, k := range keys {
			if err := emit(k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("durable: persisting replicated snapshot: %w", err)
	}
	d.lastCkptSeq.Store(walSeq)
	d.snapshots.Add(1)
	d.snapshotKeys.Add(info.Count)
	d.logf("durable: bulk-loaded replicated snapshot @seq %d (%d keys)", walSeq, info.Count)
	return nil
}

// RecoveryStats reports what Open reconstructed.
func (d *Tree) RecoveryStats() RecoveryStats { return d.recovery }

// WALStats reports the lanes' log counters, summed (sequence gauges become
// lane sums, MaxGroup the max).
func (d *Tree) WALStats() wal.Stats {
	var agg wal.Stats
	for _, ln := range d.lanes {
		st := ln.log.Stats()
		agg.Appends += st.Appends
		agg.Groups += st.Groups
		agg.GroupRecords += st.GroupRecords
		if st.MaxGroup > agg.MaxGroup {
			agg.MaxGroup = st.MaxGroup
		}
		agg.Fsyncs += st.Fsyncs
		agg.BytesWritten += st.BytesWritten
		agg.Rotations += st.Rotations
		agg.TornTruncated += st.TornTruncated
		agg.LastSeq += st.LastSeq
		agg.DurableSeq += st.DurableSeq
		agg.Segments += st.Segments
		agg.FsyncNanos.Add(st.FsyncNanos)
	}
	return agg
}

var errClosed = errors.New("durable: closed")

// Checkpoint writes a snapshot covering every logged mutation up to the
// current WAL horizon, then garbage-collects superseded snapshots and
// fully-checkpointed WAL segments. Writers keep running throughout (the
// scan is epoch-pinned, not blocking); only one checkpoint runs at a time.
func (d *Tree) Checkpoint() (CheckpointStats, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed.Load() {
		return CheckpointStats{}, errClosed
	}
	return d.checkpointLocked()
}

// checkpointLane snapshots one lane: read the lane's horizon FIRST, scan
// second — every op with seq ≤ H finished its tree mutation before H was
// read (stripe critical section), so the scan, which starts strictly
// later, observes it. The scan covers exactly the lane's key range, which
// routes to one shard (one epoch pin, no cross-shard traffic).
func (d *Tree) checkpointLane(ln *lane) (CheckpointStats, error) {
	start := time.Now()
	h := ln.log.LastSeq()
	var scanErr error
	info, err := snapshot.Write(ln.dir, h, func(emit func(int64) error) error {
		d.tree.Scan(ln.lo, ln.hi, func(k int64) bool {
			if err := emit(k); err != nil {
				scanErr = err
				return false
			}
			return true
		})
		return scanErr
	})
	if err != nil {
		return CheckpointStats{}, err
	}
	stats := CheckpointStats{WALSeq: h, Keys: info.Count, Bytes: info.Bytes, Duration: time.Since(start)}
	if n, err := snapshot.GC(ln.dir, h); err != nil {
		d.logf("durable: snapshot gc: %v", err)
	} else {
		stats.SnapshotsGC = n
	}
	if n, err := ln.log.RemoveThrough(h); err != nil {
		d.logf("durable: wal gc: %v", err)
	} else {
		stats.SegmentsGC = n
	}
	return stats, nil
}

func (d *Tree) checkpointLocked() (CheckpointStats, error) {
	start := time.Now()
	baseline := d.sinceCkpt.Load()
	// Snapshot every lane concurrently (each scan pins only its own
	// shard's epoch), then, on a forest, publish one manifest atomically.
	// Lane snapshots are individually atomic and self-describing, so a
	// crash between lane publishes is safe — each lane still recovers from
	// its own newest snapshot + WAL tail; the manifest rewrite merely
	// records the new horizons.
	per := make([]CheckpointStats, len(d.lanes))
	errs := make([]error, len(d.lanes))
	var wg sync.WaitGroup
	for i, ln := range d.lanes {
		wg.Add(1)
		go func(i int, ln *lane) {
			defer wg.Done()
			per[i], errs[i] = d.checkpointLane(ln)
		}(i, ln)
	}
	wg.Wait()
	var stats CheckpointStats
	m := forestManifest{Version: manifestVersion, Shards: len(d.lanes)}
	for i, e := range errs {
		if e != nil {
			return CheckpointStats{}, fmt.Errorf("durable: checkpoint shard %d: %w", i, e)
		}
		stats.WALSeq += per[i].WALSeq // lane sum, matching LastSeq
		stats.Keys += per[i].Keys
		stats.Bytes += per[i].Bytes
		stats.SnapshotsGC += per[i].SnapshotsGC
		stats.SegmentsGC += per[i].SegmentsGC
		m.CheckpointSeqs = append(m.CheckpointSeqs, per[i].WALSeq)
		m.BoundHi = append(m.BoundHi, d.lanes[i].hi)
	}
	if len(d.lanes) > 1 {
		if err := writeManifest(d.dir, m); err != nil {
			return CheckpointStats{}, fmt.Errorf("durable: publishing forest manifest: %w", err)
		}
	}
	stats.Duration = time.Since(start)
	h := stats.WALSeq
	d.sinceCkpt.Add(-baseline)
	d.lastCkptSeq.Store(h)
	d.snapshots.Add(uint64(len(d.lanes)))
	d.snapshotKeys.Add(stats.Keys)
	d.snapshotHist.Observe(stats.Duration)
	// Checkpoints are rare enough to record unconditionally: a loose span
	// with no trace identity, visible in /debug/rtrace and the phase
	// aggregates (Arg = the horizon the snapshot covers).
	d.opts.Trace.Record(rtrace.Span{
		Kind: rtrace.KCheckpoint, Start: start.UnixNano(),
		Dur: stats.Duration.Nanoseconds(), Arg: int64(h),
	})
	d.logf("durable: checkpoint @seq %d: %d key(s), %d byte(s), %s (gc: %d snapshot(s), %d segment(s))",
		h, stats.Keys, stats.Bytes, stats.Duration, stats.SnapshotsGC, stats.SegmentsGC)
	return stats, nil
}

// Close makes every acknowledged mutation durable (final fsync), writes a
// final checkpoint, and releases the log and tree. Callers must have
// stopped mutating (the server drains connections first).
func (d *Tree) Close() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if !d.closed.CompareAndSwap(false, true) {
		return errClosed
	}
	var firstErr error
	for _, ln := range d.lanes {
		if err := ln.log.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		if _, err := d.checkpointLocked(); err != nil {
			firstErr = fmt.Errorf("durable: final checkpoint: %w", err)
		}
	}
	for _, ln := range d.lanes {
		if err := ln.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.ckptMu.Unlock()
	d.ckptWG.Wait() // let a straggler auto-checkpoint goroutine observe closed
	d.ckptMu.Lock()
	if err := d.tree.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Crash abandons the store the way a crash would: no final checkpoint, no
// fsync — buffered WAL records are handed to the OS and the process-level
// state is dropped. For crash tests and the durability example; real
// shutdowns use Close.
func (d *Tree) Crash() error {
	if !d.closed.CompareAndSwap(false, true) {
		return errClosed
	}
	var err error
	for _, ln := range d.lanes {
		if cerr := ln.log.CloseDirty(); cerr != nil && err == nil {
			err = cerr
		}
	}
	d.ckptWG.Wait()
	d.tree.Close()
	return err
}
