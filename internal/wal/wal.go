// Package wal is an append-only write-ahead log of set mutations
// (insert/delete of an int64 key) with group commit.
//
// # Format
//
// A log is a directory of segment files named wal-<firstseq>.log (16 hex
// digits). Each segment starts with an 8-byte magic ("BSTWAL01") followed
// by frames (see record.go): a 4-byte length, a 4-byte CRC-32C, and the
// payload. Sequence numbers are dense and ascending across the segment
// chain; a segment's name is the sequence number of its first record.
//
// # Group commit
//
// Appenders never touch the file. Append encodes the record into a shared
// in-memory buffer under a mutex and — under the fsync policy — waits for
// the single flusher goroutine to write and fsync the batch it joined.
// Every appender that arrives while an fsync is in progress joins the next
// batch, so one fsync amortizes over all concurrent appenders (the group):
// latency stays one fsync, throughput scales with the offered concurrency.
//
// # Sync policies
//
// SyncFsync acks an append only after its batch is fsynced: acked ⇒
// durable, the contract a system of record needs. SyncInterval acks after
// the record is buffered and fsyncs on a timer: a crash loses at most the
// last interval. SyncNone never fsyncs outside Close: the OS page cache
// decides, which survives process kills but not machine crashes.
//
// # Torn tails
//
// A crash mid-append leaves a partial final frame. Open detects it — the
// bytes end before the frame's length prefix says the frame does, or the
// final frame's CRC fails — truncates it away, and continues: those bytes
// were never acked (the fsync that would have acked them never completed).
// A CRC failure anywhere *before* the final frame is different: complete
// frames follow it, so the bytes were durable once and have since rotted
// or been overwritten. Open refuses the log (ErrCorrupt) rather than
// silently dropping acknowledged history.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/metrics"
)

// FPFsync is the failpoint site the flusher hits immediately before each
// segment fsync (see Options.Failpoints): a stall here is a slow disk, a
// failure is a dying one.
const FPFsync = "wal-fsync"

// errInjectedFsync is the fsync failure a triggered FPFsync hit injects.
var errInjectedFsync = errors.New("wal: fsync: injected failure")

// SyncPolicy selects when appends become durable.
type SyncPolicy uint8

const (
	// SyncFsync fsyncs every group commit before acknowledging its
	// appenders: acked ⇒ durable.
	SyncFsync SyncPolicy = iota
	// SyncInterval acknowledges after buffering and fsyncs on a timer
	// (Options.Interval): bounded loss window, near-SyncNone throughput.
	SyncInterval
	// SyncNone acknowledges after buffering and never fsyncs outside
	// Close/Sync: page-cache durability only.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncFsync:
		return "fsync"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParseSyncPolicy parses "fsync", "interval" or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "fsync":
		return SyncFsync, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want fsync, interval or none)", s)
	}
}

const (
	segMagic       = "BSTWAL01"
	segPrefix      = "wal-"
	segSuffix      = ".log"
	defaultSegment = 64 << 20
	defaultFlushIv = 5 * time.Millisecond
)

// Options configures Open.
type Options struct {
	// Sync is the durability policy (default SyncFsync).
	Sync SyncPolicy
	// Interval is the fsync period under SyncInterval (default 5ms).
	Interval time.Duration
	// SegmentBytes rotates the active segment when it exceeds this size
	// (default 64 MiB). Rotation bounds what checkpoint GC can reclaim.
	SegmentBytes int64
	// NextSeq, when non-zero, is the minimum sequence number the log will
	// assign to its next record. Recovery passes checkpointHorizon+1 so a
	// log whose checkpointed segments were all garbage-collected can never
	// reissue sequence numbers the snapshot already covers.
	NextSeq uint64
	// Logf, when non-nil, receives one line per notable event (torn-tail
	// truncation, segment rotation, GC).
	Logf func(format string, args ...any)
	// Failpoints wires the FP* sites for fault-injection tests (an armed
	// FPFsync stalls or fails the flusher right before it fsyncs, which is
	// how tests make "the disk is slow" deterministic). Leave nil in
	// production.
	Failpoints *failpoint.Set
	// Tap, when non-nil, receives every flushed run of frames right after
	// they hit the segment file (before the fsync, so replication shipping
	// overlaps the disk wait): the verbatim frame bytes and the sequence
	// range they cover. Called from the flusher goroutine with internal
	// locks held — the tap must be fast and must not retain frames past the
	// call (the buffer is recycled).
	Tap func(frames []byte, firstSeq, lastSeq uint64)
}

// Stats is a point-in-time snapshot of the log's counters. Monotonic
// unless noted.
type Stats struct {
	Appends       uint64 // records appended
	Groups        uint64 // group commits (write batches)
	GroupRecords  uint64 // records covered by those groups (≥ Appends once flushed)
	MaxGroup      uint64 // largest single group
	Fsyncs        uint64 // fsync calls on segment files
	BytesWritten  uint64 // payload bytes written (frames, not counting the magic)
	Rotations     uint64 // segment rotations
	TornTruncated uint64 // bytes truncated from the tail at Open
	LastSeq       uint64 // newest assigned sequence number (gauge)
	DurableSeq    uint64 // newest sequence number known fsynced (gauge; SyncFsync only advances it on sync)
	Segments      int    // live segment files (gauge)
	FsyncNanos    metrics.LatencySnapshot
}

// segInfo is one on-disk segment.
type segInfo struct {
	path     string
	firstSeq uint64
}

// batch is one group commit: every appender that joined waits on done.
type batch struct {
	done    chan struct{}
	err     error
	n       uint64
	lastSeq uint64
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex // guards buf, cur, nextSeq, err, closed, segments
	buf     []byte
	cur     *batch
	nextSeq uint64
	err     error // sticky: a failed write/fsync poisons the log
	closed  bool

	segments []segInfo // all segments, ascending; last is active

	flushMu  sync.Mutex // serializes flushes so frames hit the file in seq order
	f        *os.File
	fileSize int64
	needSync bool // bytes written since the last fsync (under flushMu)

	notify chan struct{}
	quit   chan struct{}
	done   chan struct{}
	dirty  atomic.Bool // CloseDirty: final flush must skip fsync

	// Counters (written under flushMu except appends/lastSeq).
	appends      atomic.Uint64
	groups       atomic.Uint64
	groupRecs    atomic.Uint64
	maxGroup     atomic.Uint64
	fsyncs       atomic.Uint64
	bytesWritten atomic.Uint64
	rotations    atomic.Uint64
	tornBytes    atomic.Uint64
	durableSeq   atomic.Uint64
	fsyncHist    metrics.Histogram
}

// Open opens (or creates) the log in dir, scanning existing segments to
// find the next sequence number, truncating a torn tail, and refusing
// interior corruption. The flusher goroutine starts immediately; call
// Replay before the first Append if the caller needs the existing records.
func Open(dir string, opts Options) (*Log, error) {
	if opts.Interval <= 0 {
		opts.Interval = defaultFlushIv
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegment
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:    dir,
		opts:   opts,
		notify: make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l.segments = segs
	l.nextSeq = 1
	if opts.NextSeq > 0 {
		l.nextSeq = opts.NextSeq
	}

	// Validate the chain: interior segments must be clean end to end; the
	// final segment may carry a torn tail, which is truncated away.
	for i, seg := range segs {
		last := i == len(segs)-1
		lastSeq, goodLen, total, err := validateSegment(seg.path, seg.firstSeq)
		if err != nil {
			if !last && errors.Is(err, ErrTornFrame) {
				// A torn tail on a non-final segment is impossible from a
				// crashed append (appends only ever touch the last segment):
				// the chain itself is damaged.
				return nil, fmt.Errorf("%w: segment %s ends mid-frame but later segments exist", ErrCorrupt, filepath.Base(seg.path))
			}
			if !last || !errors.Is(err, ErrTornFrame) {
				return nil, fmt.Errorf("wal: segment %s: %w", filepath.Base(seg.path), err)
			}
			// Torn tail on the final segment: truncate to the last clean
			// frame boundary. Those bytes were never acknowledged.
			if terr := os.Truncate(seg.path, goodLen); terr != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(seg.path), terr)
			}
			l.tornBytes.Store(uint64(total - goodLen))
			l.logf("wal: truncated %d torn byte(s) from %s", total-goodLen, filepath.Base(seg.path))
			if serr := syncDir(dir); serr != nil {
				return nil, serr
			}
		}
		if lastSeq >= l.nextSeq {
			l.nextSeq = lastSeq + 1
		}
	}

	// Open (or create) the active segment for appending.
	if len(l.segments) == 0 {
		if err := l.createSegmentLocked(l.nextSeq); err != nil {
			return nil, err
		}
	} else {
		active := l.segments[len(l.segments)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.fileSize = f, st.Size()
	}
	l.durableSeq.Store(l.nextSeq - 1) // everything on disk at Open is as durable as it will get
	go l.flusher()
	return l, nil
}

func (l *Log) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// LastSeq returns the newest assigned sequence number (0 if none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// DurableSeq returns the newest sequence number known fsynced (under
// SyncInterval/SyncNone it advances only when an fsync actually happens).
func (l *Log) DurableSeq() uint64 { return l.durableSeq.Load() }

// FirstSeq returns the sequence number of the oldest record the log still
// retains (the first segment's first record). Records below it have been
// garbage-collected by a checkpoint; a replication subscriber that needs
// them must catch up from a snapshot instead.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segments) == 0 {
		return l.nextSeq
	}
	return l.segments[0].firstSeq
}

// SkipTo advances an empty log so its next record is assigned seq+1,
// replacing the empty active segment with one named for the new floor (a
// segment's name must match its first record for chain validation). A
// follower that bulk-loads a shipped snapshot covering walSeq calls this
// so its local log numbering continues the leader's. It refuses a log that
// has ever assigned a sequence number.
func (l *Log) SkipTo(seq uint64) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.nextSeq != 1 || len(l.buf) > 0 || len(l.segments) != 1 {
		l.mu.Unlock()
		return errors.New("wal: SkipTo on a non-empty log")
	}
	if seq == 0 {
		l.mu.Unlock()
		return nil
	}
	old := l.segments[0]
	l.segments = l.segments[:0]
	l.nextSeq = seq + 1
	l.mu.Unlock()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: skip-to close: %w", err)
	}
	if err := os.Remove(old.path); err != nil {
		return fmt.Errorf("wal: skip-to remove: %w", err)
	}
	if err := l.createSegmentLocked(seq + 1); err != nil {
		return err
	}
	l.durableSeq.Store(seq)
	return nil
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	lastSeq := l.nextSeq - 1
	segs := len(l.segments)
	l.mu.Unlock()
	return Stats{
		Appends:       l.appends.Load(),
		Groups:        l.groups.Load(),
		GroupRecords:  l.groupRecs.Load(),
		MaxGroup:      l.maxGroup.Load(),
		Fsyncs:        l.fsyncs.Load(),
		BytesWritten:  l.bytesWritten.Load(),
		Rotations:     l.rotations.Load(),
		TornTruncated: l.tornBytes.Load(),
		LastSeq:       lastSeq,
		DurableSeq:    l.durableSeq.Load(),
		Segments:      segs,
		FsyncNanos:    l.fsyncHist.Snapshot(),
	}
}

// Ticket is an enqueued append: the sequence number is assigned, the bytes
// are buffered, and Wait blocks until the record is durable per the log's
// sync policy.
type Ticket struct {
	seq uint64
	b   *batch
	l   *Log
	err error
}

// Enqueue assigns the next sequence number to a record and buffers its
// frame. It never blocks on I/O, so callers may hold fine-grained locks
// (the durable layer's per-key stripes) across it — that is the whole
// point: the lock-held section stays nanoseconds while the fsync wait
// happens outside via Wait.
func (l *Log) Enqueue(op uint8, key int64) Ticket {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return Ticket{err: err}
	}
	if l.closed {
		l.mu.Unlock()
		return Ticket{err: errClosed}
	}
	seq := l.nextSeq
	l.nextSeq++
	l.buf = appendRecord(l.buf, Record{Seq: seq, Op: op, Key: key})
	if l.cur == nil {
		l.cur = &batch{done: make(chan struct{})}
	}
	l.cur.n++
	l.cur.lastSeq = seq
	b := l.cur
	l.mu.Unlock()
	l.appends.Add(1)
	select {
	case l.notify <- struct{}{}:
	default:
	}
	return Ticket{seq: seq, b: b, l: l}
}

var errClosed = errors.New("wal: log closed")

// Seq returns the ticket's assigned sequence number (0 on a failed
// enqueue).
func (t Ticket) Seq() uint64 { return t.seq }

// Empty reports whether the ticket is the zero value — no record was
// enqueued, so there is nothing to wait for. Batched-ack paths that track
// "the last ticket of a window" use it to skip the wait on all-read
// windows.
func (t Ticket) Empty() bool { return t.l == nil && t.err == nil }

// Wait blocks until the ticket's record is durable under the log's sync
// policy and returns the sequence number. Under SyncInterval and SyncNone
// buffering is already "durable enough" and Wait returns immediately. A
// zero Ticket waits for nothing and returns (0, nil).
func (t Ticket) Wait() (uint64, error) {
	if t.err != nil {
		return 0, t.err
	}
	if t.l == nil || t.l.opts.Sync != SyncFsync {
		return t.seq, nil
	}
	<-t.b.done
	if t.b.err != nil {
		return 0, t.b.err
	}
	return t.seq, nil
}

// Append logs one record and blocks until it is durable per the sync
// policy, returning its sequence number. Equivalent to Enqueue().Wait().
func (l *Log) Append(op uint8, key int64) (uint64, error) {
	return l.Enqueue(op, key).Wait()
}

// flusher is the single goroutine that moves buffered frames to disk.
func (l *Log) flusher() {
	defer close(l.done)
	var tick *time.Ticker
	var tickC <-chan time.Time
	if l.opts.Sync == SyncInterval {
		tick = time.NewTicker(l.opts.Interval)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-l.notify:
			l.flushOnce(l.opts.Sync == SyncFsync)
		case <-tickC:
			l.flushOnce(true)
		case <-l.quit:
			l.flushOnce(l.opts.Sync != SyncNone && !l.dirty.Load())
			return
		}
	}
}

// flushOnce writes the pending buffer (rotating first if the active
// segment is full) and optionally fsyncs, then releases the batch's
// waiters. flushMu keeps concurrent callers (flusher, Sync, Close) from
// reordering frames.
func (l *Log) flushOnce(sync bool) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	l.mu.Lock()
	buf, b := l.buf, l.cur
	l.buf, l.cur = nil, nil
	firstSeq := uint64(0)
	if b != nil {
		firstSeq = b.lastSeq - b.n + 1
	}
	stickyErr := l.err
	l.mu.Unlock()

	finish := func(err error) {
		if err != nil {
			l.mu.Lock()
			if l.err == nil {
				l.err = err
			}
			l.mu.Unlock()
		}
		if b != nil {
			b.err = err
			close(b.done)
		}
	}
	if stickyErr != nil {
		finish(stickyErr)
		return
	}

	if len(buf) > 0 {
		// Rotate before the write when the active segment is over budget,
		// so a segment boundary is also a frame boundary.
		if l.fileSize >= l.opts.SegmentBytes {
			if err := l.rotate(firstSeq); err != nil {
				finish(err)
				return
			}
		}
		if _, err := l.f.Write(buf); err != nil {
			finish(fmt.Errorf("wal: write: %w", err))
			return
		}
		l.fileSize += int64(len(buf))
		l.bytesWritten.Add(uint64(len(buf)))
		l.needSync = true
		if l.opts.Tap != nil && b != nil {
			l.opts.Tap(buf, firstSeq, b.lastSeq)
		}
	}
	if b != nil {
		l.groups.Add(1)
		l.groupRecs.Add(b.n)
		for {
			old := l.maxGroup.Load()
			if b.n <= old || l.maxGroup.CompareAndSwap(old, b.n) {
				break
			}
		}
	}
	if sync && l.needSync {
		// A stall parks the flusher here; a triggered hit is a dying disk.
		if fp := l.opts.Failpoints; fp != nil && fp.Hit(FPFsync) {
			finish(errInjectedFsync)
			return
		}
		t0 := time.Now()
		if err := l.f.Sync(); err != nil {
			finish(fmt.Errorf("wal: fsync: %w", err))
			return
		}
		l.needSync = false
		l.fsyncs.Add(1)
		l.fsyncHist.Observe(time.Since(t0))
		l.mu.Lock()
		l.durableSeq.Store(l.nextSeq - 1 - uint64(len(l.buf))/frameLen)
		l.mu.Unlock()
		if b != nil && b.lastSeq > 0 {
			// The batch's records are certainly durable now.
			for {
				old := l.durableSeq.Load()
				if b.lastSeq <= old || l.durableSeq.CompareAndSwap(old, b.lastSeq) {
					break
				}
			}
		}
	}
	finish(nil)
}

// rotate fsyncs and closes the active segment and starts a new one whose
// first record will be firstSeq. Called under flushMu.
func (l *Log) rotate(firstSeq uint64) error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync on rotate: %w", err)
	}
	l.fsyncs.Add(1)
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close on rotate: %w", err)
	}
	l.rotations.Add(1)
	l.logf("wal: rotating at %d bytes; next segment starts at seq %d", l.fileSize, firstSeq)
	return l.createSegmentLocked(firstSeq)
}

// createSegmentLocked creates a fresh segment for firstSeq and makes it
// the active file. Callers hold flushMu (or are in Open, pre-flusher).
func (l *Log) createSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.fileSize = f, int64(len(segMagic))
	l.mu.Lock()
	l.segments = append(l.segments, segInfo{path: path, firstSeq: firstSeq})
	l.mu.Unlock()
	return nil
}

// Sync forces all buffered records to disk with an fsync, regardless of
// policy. The durable layer calls it on clean shutdown.
func (l *Log) Sync() error {
	l.flushOnce(true)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Replay streams every record with sequence number strictly greater than
// after, in order, to fn. The durable layer calls it before the first
// Append (recovery replays, then serves); replication catch-up also calls
// it on a live log, where it observes a consistent prefix — a frame still
// being written looks like a torn tail and is skipped, and the caller
// resumes from the last sequence it saw. A segment GC'd mid-replay
// surfaces as a read error; the caller falls back to snapshot catch-up.
// fn returning an error aborts the replay.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segInfo(nil), l.segments...)
	l.mu.Unlock()
	for _, seg := range segs {
		if err := scanSegment(seg.path, seg.firstSeq, func(r Record) error {
			if r.Seq <= after {
				return nil
			}
			return fn(r)
		}); err != nil {
			return err
		}
	}
	return nil
}

// RemoveThrough garbage-collects segments whose records all have sequence
// numbers ≤ seq (they are fully covered by a checkpoint). The active
// segment is never removed. Returns the number of segments deleted.
func (l *Log) RemoveThrough(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segments) > 1 {
		// The first segment's records all precede the second's firstSeq.
		if l.segments[1].firstSeq > seq+1 {
			break
		}
		path := l.segments[0].path
		if err := os.Remove(path); err != nil {
			return removed, fmt.Errorf("wal: gc %s: %w", filepath.Base(path), err)
		}
		l.logf("wal: gc removed %s (records ≤ %d checkpointed)", filepath.Base(path), seq)
		l.segments = l.segments[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Close flushes buffered records, fsyncs (even under SyncNone — a clean
// shutdown should leave nothing to the page cache), and closes the file.
func (l *Log) Close() error { return l.close(true) }

// CloseDirty abandons the log the way a crash would, except that buffered
// records are handed to the OS first (a killed process loses its user-space
// buffers too, but tests that truncate the tail themselves need the bytes
// in the file): no fsync, no clean shutdown marker. For crash testing.
func (l *Log) CloseDirty() error {
	l.dirty.Store(true)
	return l.close(false)
}

func (l *Log) close(sync bool) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return l.err
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	// The flusher's final flushOnce ran without fsync under SyncNone /
	// CloseDirty semantics; honour the caller's choice here.
	l.flushMu.Lock()
	var err error
	if sync {
		if serr := l.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: final fsync: %w", serr)
		} else {
			l.fsyncs.Add(1)
			l.durableSeq.Store(l.appendsDrained())
		}
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	l.flushMu.Unlock()
	l.mu.Lock()
	if l.err == nil {
		l.err = errClosed
	} else if err == nil && !errors.Is(l.err, errClosed) {
		err = l.err
	}
	l.mu.Unlock()
	return err
}

func (l *Log) appendsDrained() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// listSegments returns dir's segments sorted by first sequence number.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segInfo
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hexs := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		seq, err := strconv.ParseUint(hexs, 16, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, segInfo{path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// validateSegment scans one segment checking frame integrity and sequence
// continuity. It returns the last valid sequence number, the byte offset
// of the end of the last valid frame, and the file's total size. A torn
// tail reports ErrTornFrame; interior corruption reports ErrCorrupt.
func validateSegment(path string, firstSeq uint64) (lastSeq uint64, goodLen, total int64, err error) {
	lastSeq = firstSeq - 1
	goodLen, total, err = walkSegment(path, firstSeq, func(r Record) error {
		lastSeq = r.Seq
		return nil
	})
	return lastSeq, goodLen, total, err
}

// scanSegment streams a segment's records to fn, tolerating a torn tail
// (Open has already truncated the canonical log, but Replay may re-read a
// file Open validated, and crash tooling reads logs it never opened).
func scanSegment(path string, firstSeq uint64, fn func(Record) error) error {
	_, _, err := walkSegment(path, firstSeq, fn)
	if errors.Is(err, ErrTornFrame) {
		return nil
	}
	return err
}

// walkSegment reads the whole segment into memory (segments are bounded
// by SegmentBytes) and walks its frames. It enforces the header magic and
// dense ascending sequence numbers starting at firstSeq — a gap or
// repetition means frames were lost or duplicated and the log cannot be
// trusted. A frame error becomes ErrCorrupt when complete frames follow it
// (interior corruption) and stays ErrTornFrame only at the true tail.
func walkSegment(path string, firstSeq uint64, fn func(Record) error) (goodLen, total int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	total = int64(len(data))
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, total, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	off := int64(len(segMagic))
	want := firstSeq
	for off < total {
		r, n, derr := DecodeFrame(data[off:])
		if derr != nil {
			if errors.Is(derr, ErrTornFrame) && !framesFollow(data[off:]) {
				return off, total, ErrTornFrame
			}
			// A complete-but-bad frame, or a "torn" frame with decodable
			// frames after it (which a single torn append cannot produce):
			// interior corruption.
			return off, total, fmt.Errorf("%w: frame at offset %d: %v", ErrCorrupt, off, derr)
		}
		if r.Seq != want {
			return off, total, fmt.Errorf("%w: sequence gap at offset %d: got %d, want %d", ErrCorrupt, off, r.Seq, want)
		}
		if err := fn(r); err != nil {
			return off, total, err
		}
		off += int64(n)
		want++
	}
	return off, total, nil
}

// framesFollow reports whether skipping one frame-sized stride from a bad
// frame lands on something that still decodes — the signature of interior
// damage rather than a torn tail. (A torn append is a pure prefix of one
// frame; nothing valid can follow it.)
func framesFollow(b []byte) bool {
	for skip := frameLen; skip < len(b); skip += frameLen {
		if _, _, err := DecodeFrame(b[skip:]); err == nil {
			return true
		}
	}
	return false
}

// syncDir fsyncs a directory so entry creation/removal/rename survives a
// crash (required on Linux for the rename-into-place pattern).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// ReadAll is a test/tooling helper: it returns every record in dir's
// segments without opening the log for writing, tolerating a torn tail.
func ReadAll(dir string) ([]Record, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, seg := range segs {
		if err := scanSegment(seg.path, seg.firstSeq, func(r Record) error {
			out = append(out, r)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
