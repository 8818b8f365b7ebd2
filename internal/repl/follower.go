package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/rtrace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// followerLoop is the pull side: dial the leader's replication listener,
// subscribe from the local log position, and apply whatever arrives —
// snapshot chunks into a bulk load, WAL frames record-by-record — until
// the connection drops (redial with backoff) or the node is promoted or
// closed.
func (n *Node) followerLoop() {
	defer n.wg.Done()
	backoff := 100 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		if n.closed.Load() || n.Role() != Follower {
			return
		}
		err := n.pullOnce()
		if n.closed.Load() || n.Role() != Follower {
			return
		}
		if err != nil {
			n.log.Warn("replication pull failed; retrying", "retry_in", backoff, "err", err)
		}
		n.c.reconnects.Add(1)
		select {
		case <-time.After(backoff):
		case <-n.quit:
			return
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// pullOnce runs one replication connection to completion, dialing the
// current leader (elections and probes may have moved it off the
// configured ReplicaOf).
func (n *Node) pullOnce() error {
	target := n.replicaTarget()
	if target == "" {
		// A deposed original leader that has not yet learned who won; the
		// election loop's probes will fill the target in.
		return errors.New("repl: no known leader to subscribe to")
	}
	c, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		return err
	}
	n.followerConn.Lock()
	if n.closed.Load() || n.Role() != Follower {
		n.followerConn.Unlock()
		c.Close()
		return nil
	}
	n.followerConn.c = c
	n.followerConn.Unlock()
	defer func() {
		n.followerConn.Lock()
		n.followerConn.c = nil
		n.followerConn.Unlock()
		c.Close()
	}()

	bw := bufio.NewWriterSize(c, 4<<10)
	sub := wire.Subscribe{FromSeq: n.store.LastSeq(), Term: n.term.Load()}
	bp := wire.GetBuf()
	*bp = wire.AppendReplSubscribe((*bp)[:0], sub)
	err = wire.WriteFrame(bw, *bp)
	wire.PutBuf(bp)
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}

	st := &applyState{
		n:       n,
		bw:      bw,
		applied: n.store.LastSeq(),
		lastAck: n.store.LastSeq(),
	}
	n.applied.Store(st.applied)

	br := bufio.NewReaderSize(c, 64<<10)
	ackTick := time.NewTicker(n.cfg.AckInterval)
	defer ackTick.Stop()

	var scratch []byte
	for {
		// Bound each read by the lease: a leader that goes silent for the
		// full lease window is reported lost; the loop keeps waiting (the
		// role only changes via explicit promotion) but the error path
		// re-dials, which distinguishes a dead TCP peer from a slow one.
		c.SetReadDeadline(time.Now().Add(n.lease()))
		var frame []byte
		frame, scratch, err = wire.ReadFrame(br, scratch)
		if err != nil {
			if st.snapKeys != nil {
				return fmt.Errorf("stream ended mid-snapshot: %w", err)
			}
			return err
		}
		if err := st.handleFrame(frame); err != nil {
			return err
		}
		// Windowed cumulative acks: every AckEvery records, or on the
		// interval tick, whichever comes first.
		select {
		case <-ackTick.C:
			if err := st.sendAck(true); err != nil {
				return err
			}
		default:
			if err := st.sendAck(false); err != nil {
				return err
			}
		}
		if n.closed.Load() || n.Role() != Follower {
			return nil
		}
	}
}

// applyState is the per-connection apply cursor.
type applyState struct {
	n       *Node
	bw      *bufio.Writer
	applied uint64 // local log position (== store.LastSeq(); cached)
	lastAck uint64 // newest seq covered by a sent ack
	// snapKeys accumulates an in-flight snapshot transfer (nil when none).
	snapKeys   []int64
	snapWALSeq uint64
}

func (st *applyState) handleFrame(frame []byte) error {
	n := st.n
	switch k, _ := wire.ReplKind(frame); k {
	case wire.ReplFrames:
		fb, err := wire.DecodeReplFrames(frame)
		if err != nil {
			return err
		}
		if st.snapKeys != nil {
			return errors.New("repl: WAL frames arrived mid-snapshot transfer")
		}
		// Term fencing: frames from a term older than ours come from a
		// deposed leader (or a relay that has not heard the news). Refuse
		// the whole stream — the lease must not refresh and nothing may be
		// applied from a superseded history.
		if fb.Term < n.term.Load() {
			n.c.fencedFrames.Add(1)
			return fmt.Errorf("repl: rejecting frames from stale term %d (ours %d)", fb.Term, n.term.Load())
		}
		// Heartbeat-receive failpoint: drop the batch before it refreshes
		// the lease, as a blackholed link would.
		if fp := n.cfg.Failpoints; fp != nil && fp.Hit(FPHeartbeatRecv) {
			return nil
		}
		n.lastHeard.Store(n.now().UnixNano())
		n.leaderCommit.Store(fb.CommitSeq)
		if fb.Addr != "" {
			n.leaderAddr.Store(fb.Addr)
		}
		n.observeTerm(fb.Term, fb.Addr, "")
		return st.applyFrames(fb)
	case wire.ReplSnapshot:
		sc, err := wire.DecodeReplSnapshot(frame)
		if err != nil {
			return err
		}
		if fp := n.cfg.Failpoints; fp != nil && fp.Hit(FPHeartbeatRecv) {
			return nil
		}
		return st.applySnapshotChunk(sc)
	default:
		return fmt.Errorf("repl: unexpected frame kind %d from leader", k)
	}
}

// applyFrames applies one ReplFrames batch: decode each verbatim WAL
// frame, skip what the local log already holds (catch-up overlap is by
// design — see forwardLive), apply the rest in order.
func (st *applyState) applyFrames(fb wire.FrameBatch) error {
	frames := fb.Frames
	var applied uint32
	start := time.Now()
	for len(frames) > 0 {
		r, adv, err := wal.DecodeFrame(frames)
		if err != nil {
			return fmt.Errorf("repl: bad WAL frame in stream: %w", err)
		}
		frames = frames[adv:]
		if r.Seq <= st.applied {
			continue // overlap with what we already hold: idempotent skip
		}
		if err := st.n.store.ApplyRecord(r); err != nil {
			return fmt.Errorf("repl: apply seq %d: %w", r.Seq, err)
		}
		st.applied = r.Seq
		applied++
	}
	if applied > 0 {
		st.n.c.recordsApplied.Add(uint64(applied))
		st.n.applied.Store(st.applied)
		st.n.wakeApplied()
		// A batch stamped with a trace context covers a sampled mutation on
		// the leader: record this apply as a span of that trace, parented
		// under the leader's request span (Arg = the sampled WAL seq).
		if fb.Trace.Sampled() {
			st.n.cfg.Trace.Span(fb.Trace, rtrace.KApply, start, int64(fb.TraceSeq))
		}
	}
	return nil
}

// applySnapshotChunk accumulates snapshot chunks and bulk-loads on the
// final one. Snapshot catch-up requires an empty local store — the
// durable layer enforces it; a non-empty follower that is too far behind
// must be wiped by the operator (documented in DESIGN).
func (st *applyState) applySnapshotChunk(sc wire.SnapshotChunk) error {
	n := st.n
	n.lastHeard.Store(n.now().UnixNano())
	if st.snapKeys == nil {
		st.snapKeys = make([]int64, 0, len(sc.Keys))
		st.snapWALSeq = sc.WALSeq
	}
	if sc.WALSeq != st.snapWALSeq {
		return fmt.Errorf("repl: snapshot transfer changed horizon mid-stream (%d -> %d)", st.snapWALSeq, sc.WALSeq)
	}
	st.snapKeys = append(st.snapKeys, sc.Keys...)
	if !sc.Final {
		return nil
	}
	keys := st.snapKeys
	st.snapKeys = nil
	if err := n.store.ApplySnapshot(keys, st.snapWALSeq); err != nil {
		return fmt.Errorf("repl: snapshot bulk load: %w", err)
	}
	st.applied = st.snapWALSeq
	st.lastAck = 0 // force an ack so the leader learns the new position
	n.applied.Store(st.applied)
	n.wakeApplied()
	n.c.snapshotLoads.Add(1)
	n.log.Info("loaded snapshot", "wal_seq", st.snapWALSeq, "keys", len(keys))
	return st.sendAck(true)
}

// sendAck sends one cumulative ReplAck covering everything applied so
// far. force bypasses the record-count window (interval ticks, snapshot
// completion); otherwise an ack goes out once AckEvery records have been
// applied since the last one.
func (st *applyState) sendAck(force bool) error {
	if st.applied == st.lastAck {
		return nil
	}
	if !force && st.applied-st.lastAck < uint64(st.n.cfg.AckEvery) {
		return nil
	}
	// The ack carries the highest term we have observed: a deposed leader
	// still holding this connection sees a newer term than its own and
	// must fence itself rather than count the ack (see Node.noteAck).
	ack := wire.Ack{
		AppliedSeq: st.applied,
		DurableSeq: st.n.store.DurableSeq(),
		Term:       st.n.term.Load(),
	}
	bp := wire.GetBuf()
	*bp = wire.AppendReplAck((*bp)[:0], ack)
	err := wire.WriteFrame(st.bw, *bp)
	wire.PutBuf(bp)
	if err != nil {
		return err
	}
	if err := st.bw.Flush(); err != nil {
		return err
	}
	st.lastAck = st.applied
	st.n.c.acksSent.Add(1)
	return nil
}
