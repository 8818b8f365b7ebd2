package repl

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wire"
)

// Every receive site decodes a frame of any kind and refuses the kinds it
// does not take. These tests pin each site's refusal.

func dialRepl(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(5 * time.Second))
	return c
}

// readUntilClosed reads frames until the peer closes c, and fails if the
// read deadline passes first: the peer kept the connection open.
func readUntilClosed(t *testing.T, c net.Conn, what string) {
	t.Helper()
	for {
		_, _, err := wire.ReadFrame(c, nil)
		if err == nil {
			continue
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: the connection stayed open", what)
		}
		return
	}
}

// TestHandshakeRefusesOtherKinds: a first frame that is neither a
// Subscribe nor a Status closes the connection without opening a stream.
func TestHandshakeRefusesOtherKinds(t *testing.T) {
	leader := startLeader(t, openStore(t), nil)
	for _, m := range []wire.Repl{
		{Kind: wire.ReplAck, Seq: 1, Term: 1},
		{Kind: wire.ReplFrames, Term: 1, Addr: "x:1"},
		{Kind: wire.ReplSnapshot, Final: true},
	} {
		c := dialRepl(t, leader.ReplAddr())
		if err := send(c, &m); err != nil {
			t.Fatal(err)
		}
		if frame, _, err := wire.ReadFrame(c, nil); err == nil {
			t.Fatalf("kind %d handshake: the leader answered %x", m.Kind, frame)
		}
	}
	// A stream starts with a resync; none did.
	if got := leader.c.resyncs.Load(); got != 0 {
		t.Fatalf("%d subscriber streams opened", got)
	}

	// The same leader streams to a Subscribe: heartbeats arrive.
	c := dialRepl(t, leader.ReplAddr())
	if err := send(c, &wire.Repl{Kind: wire.ReplSubscribe}); err != nil {
		t.Fatal(err)
	}
	frame, _, err := wire.ReadFrame(c, nil)
	var m wire.Repl
	if err != nil || wire.DecodeRepl(frame, &m) != nil || m.Kind != wire.ReplFrames {
		t.Fatalf("subscribed stream: first frame %x, %v", frame, err)
	}
}

// TestAckStreamRefusesOtherKinds: a frame other than an Ack on a
// subscriber's ack stream ends the stream. The frame sent is a Subscribe
// carrying term 2 (the bytes of internal/wire's ack-seed-03 seed); had it
// been counted as an ack, its newer term would have fenced the leader.
func TestAckStreamRefusesOtherKinds(t *testing.T) {
	leader := startLeader(t, openStore(t), nil)
	c := dialRepl(t, leader.ReplAddr())
	if err := send(c, &wire.Repl{Kind: wire.ReplSubscribe}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscriber", func() bool { return leader.Status().Followers == 1 })
	if err := send(c, &wire.Repl{Kind: wire.ReplSubscribe, Seq: 1, Term: 2}); err != nil {
		t.Fatal(err)
	}
	readUntilClosed(t, c, "ack stream after a Subscribe")
	waitFor(t, "subscriber gone", func() bool { return leader.Status().Followers == 0 })
	if st := leader.Status(); st.Term != 1 || st.Fenced || leader.c.acksReceived.Load() != 0 {
		t.Fatalf("leader counted the frame as an ack: term %d, fenced %v, %d acks",
			st.Term, st.Fenced, leader.c.acksReceived.Load())
	}
}

// TestFollowerStreamRefusesOtherKinds: a Status or an Ack on a follower's
// stream makes it drop the connection and redial. A fake leader sends
// each one followed by a batch holding one WAL record; the follower
// applies none of it.
func TestFollowerStreamRefusesOtherKinds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fs := openStore(t)
	follower := startFollower(t, fs, ln.Addr().String(), nil)
	batch := wire.Repl{
		Kind: wire.ReplFrames, Term: 1, Seq: 1, Addr: "fake-leader:1", N: 1,
		Frames: wal.AppendFrame(nil, wal.Record{Seq: 1, Op: wal.OpInsert, Key: 7}),
	}
	for _, m := range []wire.Repl{
		{Kind: wire.ReplStatus, Term: 1, IsLeader: true, Addr: "fake-leader:1"},
		{Kind: wire.ReplAck, Seq: 1, Term: 1},
	} {
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
		c, err := ln.Accept()
		if err != nil {
			t.Fatalf("kind %d: the follower did not dial: %v", m.Kind, err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		var sub wire.Repl
		if frame, _, err := wire.ReadFrame(c, nil); err != nil || decode(frame, &sub, wire.ReplSubscribe) != nil {
			t.Fatalf("kind %d: no subscribe: %v", m.Kind, err)
		}
		if err := send(c, &m); err != nil {
			t.Fatal(err)
		}
		send(c, &batch) // the follower may already have closed
		readUntilClosed(t, c, fmt.Sprintf("follower stream after kind %d", m.Kind))
		c.Close()
	}
	// The loop redials once more after the second refusal.
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	if c, err := ln.Accept(); err != nil {
		t.Fatalf("no redial after the second refusal: %v", err)
	} else {
		c.Close()
	}
	if fs.LastSeq() != 0 || fs.Contains(7) || follower.Status().AppliedSeq != 0 || follower.c.recordsApplied.Load() != 0 {
		t.Fatalf("follower applied a record: last seq %d, applied %d", fs.LastSeq(), follower.Status().AppliedSeq)
	}
	if follower.LeaderAddr() != "" {
		t.Fatalf("follower learned leader %q from a refused stream", follower.LeaderAddr())
	}
}

// TestProbeRefusesOtherKinds: a status probe answered by a frame other
// than a Status fails.
func TestProbeRefusesOtherKinds(t *testing.T) {
	node := startLeader(t, openStore(t), nil)
	for _, reply := range []wire.Repl{
		{Kind: wire.ReplAck, Seq: 5, Term: 1},
		{Kind: wire.ReplSubscribe, Term: 1},
		{Kind: wire.ReplStatus, Term: 1, Priority: 3, Addr: "peer:1"},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := wire.ReadFrame(c, nil); err == nil {
				send(c, &reply)
			}
		}()
		st, err := node.probePeer(ln.Addr().String())
		ln.Close()
		if reply.Kind == wire.ReplStatus {
			if err != nil || st.Priority != 3 || st.Addr != "peer:1" {
				t.Fatalf("probe answered by a Status: %+v, %v", st, err)
			}
		} else if err == nil {
			t.Fatalf("probe answered by kind %d succeeded: %+v", reply.Kind, st)
		}
	}
}

// TestAdvertiseBound: Advertise rides every heartbeat and status frame, so
// Start refuses one longer than wire.MaxReplAddr instead of letting the
// first heartbeat panic the leader; one at the bound replicates.
func TestAdvertiseBound(t *testing.T) {
	long := strings.Repeat("a", wire.MaxReplAddr+1)
	if n, err := Start(Config{Store: openStore(t), Advertise: long, ListenRepl: "127.0.0.1:0"}); err == nil {
		n.Close()
		t.Fatalf("Start accepted a %d-byte Advertise", len(long))
	}

	adv := long[:wire.MaxReplAddr]
	ls := openStore(t)
	leader := startLeader(t, ls, func(c *Config) { c.Advertise = adv })
	fs := openStore(t)
	follower := startFollower(t, fs, leader.ReplAddr(), nil)
	for i := int64(1); i <= 20; i++ {
		ls.Insert(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := follower.WaitApplied(ctx, ls.LastSeq()); err != nil {
		t.Fatalf("WaitApplied: %v", err)
	}
	if fs.Len() != 20 {
		t.Fatalf("follower len = %d, want 20", fs.Len())
	}
	waitFor(t, "the leader's address", func() bool { return follower.LeaderAddr() == adv })
	if _, err := leader.probePeer(follower.ReplAddr()); err != nil {
		t.Fatalf("status exchange carrying the address: %v", err)
	}
}
