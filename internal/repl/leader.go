package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/snapshot"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Streaming tunables. sendChunk bounds how many WAL bytes one ReplFrames
// batch carries (well under wire.MaxFrame after headers); liveQueue is the
// per-subscriber buffer of tap batches — overflow marks the subscriber
// lagged and it resyncs from disk rather than stalling the flusher.
const (
	sendChunk    = 32 << 10
	liveQueueLen = 1024
)

// liveBatch is one tap delivery: verbatim on-disk WAL frames covering the
// dense sequence range [first, last].
type liveBatch struct {
	first, last uint64
	frames      []byte
}

// subscriber is one follower connection on the replication listener.
type subscriber struct {
	conn net.Conn
	bw   *bufio.Writer
	live chan liveBatch
	// lagged is set (by the tap, under subMu) when live overflowed and the
	// subscriber must resync from the WAL files.
	lagged bool
	// sent is the newest sequence streamed to this follower; only the
	// subscriber goroutine touches it.
	sent uint64
}

func (n *Node) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			if n.closed.Load() {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			n.log.Error("replication accept failed", "err", err)
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if err := n.serveSubscriber(c); err != nil && !n.closed.Load() {
				n.log.Warn("subscriber stream ended", "peer", c.RemoteAddr().String(), "err", err)
			}
		}()
	}
}

// serveSubscriber runs one follower stream: handshake, catch-up (snapshot
// and/or WAL replay), then live tail + heartbeats, with acks read on a
// side goroutine. Any node with a replication listener serves subscribers
// regardless of role — a follower relaying its log downstream is chained
// replication, and the term/address it advertises are the cluster
// leader's, so redirects stay correct.
func (n *Node) serveSubscriber(c net.Conn) error {
	defer c.Close()

	c.SetReadDeadline(time.Now().Add(30 * time.Second))
	frame, _, err := wire.ReadFrame(c, nil)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	// The first frame's kind splits the connection's purpose: a ReplStatus
	// is a one-shot status exchange (election probes, new-leader
	// announcements), a Subscribe opens a stream.
	var hello wire.Repl
	if err := decode(frame, &hello, wire.ReplSubscribe, wire.ReplStatus); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if hello.Kind == wire.ReplStatus {
		return n.handleStatusExchange(c, &hello)
	}
	c.SetReadDeadline(time.Time{})

	// A subscriber carrying a higher term than ours has spoken to a newer
	// leader; adopt it — if we were leading that term is fenced now, and
	// either way our heartbeats must not roll the cluster back.
	if t := hello.Term; t > n.term.Load() {
		n.log.Info("subscriber announces newer term; adopting", "subscriber_term", t)
		n.observeTerm(t, "", "")
	}

	s := &subscriber{
		conn: c,
		bw:   bufio.NewWriterSize(c, 64<<10),
		live: make(chan liveBatch, liveQueueLen),
		sent: hello.Seq,
	}
	n.subMu.Lock()
	n.subs[s] = struct{}{}
	n.subMu.Unlock()
	defer func() {
		n.subMu.Lock()
		delete(n.subs, s)
		n.subMu.Unlock()
	}()

	// Ack reader: cumulative ReplAcks arrive on the same connection.
	ackErr := make(chan error, 1)
	go func() {
		var (
			scratch []byte
			ack     wire.Repl
		)
		for {
			frame, newScratch, rerr := wire.ReadFrame(c, scratch)
			if rerr != nil {
				ackErr <- rerr
				return
			}
			scratch = newScratch
			if derr := decode(frame, &ack, wire.ReplAck); derr != nil {
				ackErr <- derr
				return
			}
			n.noteAck(ack.Seq, ack.Term)
		}
	}()

	hb := time.NewTicker(n.cfg.Heartbeat)
	defer hb.Stop()

	// Initial catch-up: anything the follower is missing that predates the
	// live window comes from disk (or from a snapshot, if the WAL tail it
	// needs was GC'd by a checkpoint).
	if err := n.resync(s); err != nil {
		return err
	}

	for {
		select {
		case b := <-s.live:
			if err := n.forwardLive(s, b); err != nil {
				return err
			}
		case <-hb.C:
			// Heartbeat-send failpoint: skip the tick as a lossy network
			// would, letting tests starve a follower's lease on demand.
			if fp := n.cfg.Failpoints; fp != nil && fp.Hit(FPHeartbeatSend) {
				continue
			}
			if err := n.sendBatch(s, nil, 0, 0, 0); err != nil {
				return err
			}
			n.c.heartbeatsSent.Add(1)
		case err := <-ackErr:
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("ack stream: %w", err)
		case <-n.quit:
			return nil
		}
		// The tap marks lagged under subMu when live overflows; recover by
		// draining and re-reading from the segment files.
		n.subMu.Lock()
		lagged := s.lagged
		s.lagged = false
		n.subMu.Unlock()
		if lagged {
			for {
				select {
				case <-s.live:
					continue
				default:
				}
				break
			}
			if err := n.resync(s); err != nil {
				return err
			}
		}
	}
}

// handleStatusExchange answers one symmetric status probe on the
// replication listener: the caller has already sent its own status as the
// first frame (ps); record any news it carries — a self-declared leader
// with a newer term retargets (and fences) us, a bare higher term at
// least fences — then reply with our own status and close. Election
// probes and new-leader announcements are the same exchange.
func (n *Node) handleStatusExchange(c net.Conn, ps *wire.Repl) error {
	if ps.IsLeader {
		n.observeTerm(ps.Term, ps.Addr, ps.ReplAddr)
	} else if ps.Term > n.term.Load() {
		n.observeTerm(ps.Term, "", "")
	}
	out := n.localStatus()
	c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	return send(c, &out)
}

// forwardLive relays one tap batch. Batches arrive in flush order, so a
// gap (first > sent+1) only appears after an overflow drop; the caller's
// lagged check resyncs afterwards, and overlap (first <= sent) is
// harmless — followers skip records at or below their own log.
func (n *Node) forwardLive(s *subscriber, b liveBatch) error {
	if b.last <= s.sent {
		return nil
	}
	if err := n.sendBatch(s, b.frames, countRecords(b.frames), b.first, b.last); err != nil {
		return err
	}
	s.sent = b.last
	return nil
}

// sendBatch writes one ReplFrames frame (frames == nil is a heartbeat)
// carrying the current term, the commit horizon, and the leader's
// advertised data address — the address rides every frame so followers
// can always answer "who is the leader" for client redirects. The horizon
// a follower measures its applied lag against is the newest assigned
// sequence, not the durable one: the WAL tap ships a batch before its
// fsync, and under sync=none the durable horizon never moves. Live
// batches ([first, last] nonzero) additionally carry the trace context of
// any sampled mutation they cover, so the follower's apply span links into
// the originating request's trace; the recorder consumes the entry, so
// with multiple subscribers exactly one stream carries the stamp.
func (n *Node) sendBatch(s *subscriber, frames []byte, nrec uint32, first, last uint64) error {
	m := wire.Repl{
		Kind:   wire.ReplFrames,
		Term:   n.term.Load(),
		Seq:    n.store.LastSeq(),
		Addr:   n.LeaderAddr(),
		N:      nrec,
		Frames: frames,
	}
	if nrec > 0 && last > 0 {
		if tc, seq, ok := n.cfg.Trace.SampledSeqInRange(first, last); ok {
			m.Trace, m.TraceSeq = tc, seq
		}
	}
	if err := send(s.bw, &m); err != nil {
		return err
	}
	if nrec > 0 {
		n.c.recordsSent.Add(uint64(nrec))
		n.c.batchesSent.Add(1)
	}
	return nil
}

// countRecords counts WAL frames in a verbatim byte run (tap batches are
// always well-formed; a decode error here is a programming error upstream
// and the count stops early, which the follower will reject loudly).
func countRecords(frames []byte) uint32 {
	var nrec uint32
	for len(frames) > 0 {
		_, adv, err := wal.DecodeFrame(frames)
		if err != nil {
			break
		}
		frames = frames[adv:]
		nrec++
	}
	return nrec
}

// resync brings a subscriber to the log's current tail from durable state:
// snapshot bulk-transfer when the follower's position predates the
// retained WAL, then segment replay until sent catches the tail. Live
// batches queued meanwhile are deduplicated by sequence in forwardLive.
func (n *Node) resync(s *subscriber) error {
	n.c.resyncs.Add(1)
	for {
		first := n.store.WALFirstSeq()
		if s.sent+1 < first {
			before := s.sent
			if err := n.shipSnapshot(s); err != nil {
				return err
			}
			if s.sent <= before {
				// No snapshot advanced the position (none on disk, or the
				// newest predates the follower): the gap is unbridgeable.
				return fmt.Errorf("repl: subscriber at seq %d predates retained WAL (first %d) and no snapshot covers the gap", before, first)
			}
			continue
		}
		target := n.store.LastSeq()
		if s.sent >= target {
			return nil
		}
		if err := n.replayRange(s, target); err != nil {
			return err
		}
	}
}

// replayRange streams records (s.sent, target] from the WAL segment files,
// re-framed with the on-disk encoding so the stream is identical to the
// live tap's. A read error from a segment GC'd mid-replay surfaces as a
// replay error; the caller loop falls back to the snapshot path.
func (n *Node) replayRange(s *subscriber, target uint64) error {
	var (
		buf  []byte
		nrec uint32
	)
	flush := func() error {
		if nrec == 0 {
			return nil
		}
		err := n.sendBatch(s, buf, nrec, 0, 0)
		buf, nrec = buf[:0], 0
		return err
	}
	err := n.store.ReplayWAL(s.sent, func(r wal.Record) error {
		if r.Seq > target {
			// Stop at the requested horizon; the tail past it is either in
			// the live queue already or picked up by the caller's next pass.
			return errReplayDone
		}
		buf = wal.AppendFrame(buf, r)
		nrec++
		s.sent = r.Seq
		if len(buf) >= sendChunk {
			return flush()
		}
		return nil
	})
	if err != nil && !errors.Is(err, errReplayDone) {
		if ferr := flush(); ferr != nil {
			return ferr
		}
		// Retained-WAL miss (a checkpoint removed segments under the
		// replay): report distinctly so resync retries via snapshot.
		n.log.Warn("replay fell off retained WAL; resync via snapshot", "seq", s.sent, "err", err)
		return nil
	}
	return flush()
}

var errReplayDone = errors.New("repl: replay horizon reached")

// shipSnapshot streams the newest snapshot to a follower whose position
// predates the retained WAL. The file is pinned for the duration so a
// concurrent checkpoint's GC cannot delete it mid-stream (see
// snapshot.Pin), and the final chunk carries Final=1 so the follower knows
// to bulk-load and re-subscribe its log position to the snapshot horizon.
func (n *Node) shipSnapshot(s *subscriber) error {
	entries, err := snapshot.List(n.store.Dir())
	if err != nil {
		return fmt.Errorf("snapshot list: %w", err)
	}
	if len(entries) == 0 {
		// No snapshot means no checkpoint ever ran, so the WAL is fully
		// retained and the replay path must succeed; nothing to ship.
		return nil
	}
	e := entries[0]
	release := snapshot.Pin(e.Path)
	defer release()

	chunk := wire.Repl{Kind: wire.ReplSnapshot, Seq: e.WALSeq, Keys: make([]int64, 0, wire.MaxSnapshotChunk)}
	ship := func(final bool) error {
		chunk.Final = final
		if err := send(s.bw, &chunk); err != nil {
			return err
		}
		n.c.snapshotKeysShipped.Add(uint64(len(chunk.Keys)))
		chunk.Keys = chunk.Keys[:0]
		return nil
	}
	_, _, err = snapshot.Load(e.Path, wire.MaxSnapshotChunk, func(keys []int64) error {
		chunk.Keys = append(chunk.Keys, keys...)
		if len(chunk.Keys) >= wire.MaxSnapshotChunk {
			return ship(false)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("snapshot load: %w", err)
	}
	// Final chunk (possibly empty — an empty snapshot still moves the
	// follower's log position to the snapshot horizon).
	if err := ship(true); err != nil {
		return err
	}
	s.sent = e.WALSeq
	n.c.snapshotsShipped.Add(1)
	n.log.Info("shipped snapshot", "wal_seq", e.WALSeq, "peer", s.conn.RemoteAddr().String())
	return nil
}

// tapFanout distributes one flushed WAL batch to every subscriber. Called
// from the log flusher (via durable.SetWALTap) — it must not block and
// must not retain frames, so each subscriber gets its own copy through a
// buffered channel, and overflow degrades to a disk resync.
func (n *Node) tapFanout(frames []byte, first, last uint64) {
	n.subMu.Lock()
	for s := range n.subs {
		cp := make([]byte, len(frames))
		copy(cp, frames)
		select {
		case s.live <- liveBatch{first: first, last: last, frames: cp}:
		default:
			s.lagged = true
		}
	}
	n.subMu.Unlock()
}
