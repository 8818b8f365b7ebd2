package repl

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/wal"
)

func openStore(t *testing.T) *durable.Tree {
	t.Helper()
	d, err := durable.Open(t.TempDir(), durable.Options{Sync: wal.SyncFsync})
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func startLeader(t *testing.T, store *durable.Tree, extra func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		Store:      store,
		Advertise:  "leader-data:1",
		ListenRepl: "127.0.0.1:0",
		Heartbeat:  20 * time.Millisecond,
	}
	if extra != nil {
		extra(&cfg)
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start leader: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func startFollower(t *testing.T, store *durable.Tree, leaderRepl string, extra func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		Store:       store,
		Advertise:   "follower-data:1",
		ListenRepl:  "127.0.0.1:0",
		ReplicaOf:   leaderRepl,
		Heartbeat:   20 * time.Millisecond,
		AckEvery:    1,
		AckInterval: 5 * time.Millisecond,
	}
	if extra != nil {
		extra(&cfg)
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start follower: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLiveReplication: records inserted on the leader appear on a
// follower that subscribed from seq 0, via the live tap path.
func TestLiveReplication(t *testing.T) {
	ls := openStore(t)
	leader := startLeader(t, ls, nil)
	fs := openStore(t)
	follower := startFollower(t, fs, leader.ReplAddr(), nil)

	for i := int64(1); i <= 200; i++ {
		if !ls.Insert(i * 7) {
			t.Fatalf("leader Insert(%d) = false", i*7)
		}
	}
	ls.Delete(7)

	seq := ls.LastSeq()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := follower.WaitApplied(ctx, seq); err != nil {
		t.Fatalf("WaitApplied(%d): %v", seq, err)
	}
	if fs.Len() != 199 || fs.Contains(7) || !fs.Contains(14) {
		t.Fatalf("follower state wrong: len=%d", fs.Len())
	}
	// The follower learned the leader's data address from heartbeats.
	waitFor(t, "leader address", func() bool { return follower.LeaderAddr() == "leader-data:1" })
	if follower.IsLeader() {
		t.Fatal("follower reports leader role")
	}
	if got := follower.Status().Term; got != 1 {
		t.Fatalf("follower term = %d, want 1", got)
	}
	// The leader saw cumulative acks covering the tail.
	waitFor(t, "leader ack watermark", func() bool { return leader.AckedSeq() >= seq })
}

// TestSnapshotCatchUp: a follower whose position predates the leader's
// retained WAL (checkpoint GC'd the early segments) bulk-loads from a
// shipped snapshot, then rides the live tail.
func TestSnapshotCatchUp(t *testing.T) {
	// Small segments so the checkpoint can GC sealed WAL prefix segments,
	// leaving a retained-WAL gap only a snapshot can bridge.
	ls, err := durable.Open(t.TempDir(), durable.Options{Sync: wal.SyncFsync, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	t.Cleanup(func() { ls.Close() })
	for i := int64(1); i <= 500; i++ {
		ls.Insert(i)
	}
	if _, err := ls.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if ls.WALFirstSeq() <= 1 {
		t.Fatalf("checkpoint did not advance the retained WAL (first=%d); snapshot path not exercised", ls.WALFirstSeq())
	}
	leader := startLeader(t, ls, nil)

	fs := openStore(t)
	follower := startFollower(t, fs, leader.ReplAddr(), nil)

	waitFor(t, "snapshot load", func() bool { return follower.Status().AppliedSeq >= 500 })
	if fs.Len() != 500 {
		t.Fatalf("follower len = %d after snapshot, want 500", fs.Len())
	}

	// Tail records continue over the same stream.
	ls.Insert(1000)
	ls.Delete(1)
	seq := ls.LastSeq()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := follower.WaitApplied(ctx, seq); err != nil {
		t.Fatalf("WaitApplied tail: %v", err)
	}
	if !fs.Contains(1000) || fs.Contains(1) {
		t.Fatal("tail records not applied after snapshot catch-up")
	}
}

// TestRestartResume: a follower restarted with durable state re-subscribes
// from its log position and receives only the missing tail.
func TestRestartResume(t *testing.T) {
	ls := openStore(t)
	leader := startLeader(t, ls, nil)

	fdir := t.TempDir()
	fs1, err := durable.Open(fdir, durable.Options{Sync: wal.SyncFsync})
	if err != nil {
		t.Fatalf("open follower store: %v", err)
	}
	f1 := startFollower(t, fs1, leader.ReplAddr(), nil)

	for i := int64(1); i <= 100; i++ {
		ls.Insert(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f1.WaitApplied(ctx, ls.LastSeq()); err != nil {
		t.Fatalf("WaitApplied: %v", err)
	}
	f1.Close()
	fs1.Close()

	// More writes while the follower is down.
	for i := int64(101); i <= 150; i++ {
		ls.Insert(i)
	}

	fs2, err := durable.Open(fdir, durable.Options{Sync: wal.SyncFsync})
	if err != nil {
		t.Fatalf("reopen follower store: %v", err)
	}
	t.Cleanup(func() { fs2.Close() })
	if fs2.LastSeq() != 100 {
		t.Fatalf("follower restarted at seq %d, want 100", fs2.LastSeq())
	}
	f2 := startFollower(t, fs2, leader.ReplAddr(), nil)
	if err := f2.WaitApplied(ctx, ls.LastSeq()); err != nil {
		t.Fatalf("WaitApplied after restart: %v", err)
	}
	if fs2.Len() != 150 {
		t.Fatalf("follower len = %d after resume, want 150", fs2.Len())
	}
}

// TestPromotion: an operator promotes a follower; the role flips, the
// term increments, and applied reads don't regress.
func TestPromotion(t *testing.T) {
	ls := openStore(t)
	leader := startLeader(t, ls, nil)
	fs := openStore(t)
	follower := startFollower(t, fs, leader.ReplAddr(), nil)

	ls.Insert(42)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := follower.WaitApplied(ctx, ls.LastSeq()); err != nil {
		t.Fatalf("WaitApplied: %v", err)
	}
	waitFor(t, "term adoption", func() bool { return follower.Status().Term == 1 })

	term, err := follower.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if term != 2 {
		t.Fatalf("promoted term = %d, want 2", term)
	}
	if !follower.IsLeader() {
		t.Fatal("promoted node not leader")
	}
	if follower.LeaderAddr() != "follower-data:1" {
		t.Fatalf("promoted leader addr = %q", follower.LeaderAddr())
	}
	if _, err := follower.Promote(); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("second Promote err = %v, want ErrNotFollower", err)
	}
	// The new leader takes writes through its store immediately.
	if !fs.Insert(43) {
		t.Fatal("insert on promoted leader failed")
	}
	if err := follower.WaitApplied(ctx, fs.LastSeq()); err != nil {
		t.Fatalf("WaitApplied on new leader: %v", err)
	}
}

// TestSemiSyncWaitReplicated: with RequireAck the leader's gate opens only
// once a follower ack covers the sequence, and times out (ErrAckTimeout)
// when no follower is connected.
func TestSemiSyncWaitReplicated(t *testing.T) {
	ls := openStore(t)
	leader := startLeader(t, ls, func(c *Config) {
		c.RequireAck = true
		c.AckTimeout = 200 * time.Millisecond
	})

	ls.Insert(1)
	ctx := context.Background()
	if err := leader.WaitReplicated(ctx, ls.LastSeq()); !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("WaitReplicated with no follower = %v, want ErrAckTimeout", err)
	}

	fs := openStore(t)
	startFollower(t, fs, leader.ReplAddr(), nil)
	ls.Insert(2)
	done := make(chan error, 1)
	go func() { done <- leader.WaitReplicated(ctx, ls.LastSeq()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitReplicated with follower: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitReplicated never released")
	}
}

// TestLeaseExpiry: a follower cut off from its leader reports the lease
// expired; one that is connected does not.
func TestLeaseExpiry(t *testing.T) {
	ls := openStore(t)
	leader := startLeader(t, ls, nil)
	fs := openStore(t)
	follower := startFollower(t, fs, leader.ReplAddr(), nil)

	waitFor(t, "initial heartbeat", func() bool { return follower.LeaderAddr() != "" })
	if follower.Status().LeaseExpired {
		t.Fatal("lease expired while connected")
	}
	leader.Close()
	waitFor(t, "lease expiry", func() bool { return follower.Status().LeaseExpired })
}

// TestFollowerLagNeverNegative scrapes a follower's repl_lag_records
// every 50 of 2,000 leader inserts, once the follower has applied them,
// under an fsync and a sync=none leader. The gauge never reads negative,
// and once the follower has caught up and heard one more heartbeat its
// lag is 0 and its commit horizon is the leader's newest sequence. A
// leader stamping frames with its durable horizon fails both: the WAL tap
// ships a batch before its fsync, and under sync=none that horizon never
// moves.
func TestFollowerLagNeverNegative(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncFsync, wal.SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			ls, err := durable.Open(t.TempDir(), durable.Options{Sync: policy})
			if err != nil {
				t.Fatalf("durable.Open: %v", err)
			}
			t.Cleanup(func() { ls.Close() })
			leader := startLeader(t, ls, nil)
			follower := startFollower(t, openStore(t), leader.ReplAddr(), nil)
			lag := func() float64 {
				s := metrics.Snapshot{Gauges: map[string]float64{}, External: map[string]uint64{}}
				follower.MetricsHook(&s)
				return s.Gauges["repl_lag_records"]
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var scrapes, negative int
			minLag := 0.0
			for i := int64(1); i <= 2000; i++ {
				ls.Insert(i)
				if i%50 != 0 {
					continue
				}
				if err := follower.WaitApplied(ctx, ls.LastSeq()); err != nil {
					t.Fatalf("WaitApplied after %d inserts: %v", i, err)
				}
				scrapes++
				if l := lag(); l < 0 {
					negative++
					minLag = min(minLag, l)
				}
			}
			if negative > 0 {
				t.Errorf("%d of %d scrapes read a negative repl_lag_records (min %v)", negative, scrapes, minLag)
			}

			// Frames are handled in order on one connection: once a second
			// frame has arrived after catch-up, the first one's commit
			// horizon is stored.
			for range 2 {
				t0 := time.Now().UnixNano()
				waitFor(t, "a heartbeat", func() bool { return follower.lastHeard.Load() > t0 })
			}
			if l, c := lag(), follower.leaderCommit.Load(); l != 0 || c != ls.LastSeq() {
				t.Errorf("caught up: repl_lag_records = %v, commit horizon %d, want 0 and the leader's last seq %d",
					l, c, ls.LastSeq())
			}
		})
	}
}

// TestMetricsHookSeries pins the series a node's MetricsHook exports, on
// a leader and on a follower, so a rename or a dropped series fails here
// before it breaks a dashboard.
func TestMetricsHookSeries(t *testing.T) {
	gauges := []string{
		"repl_acked_seq", "repl_applied_seq", "repl_election_state",
		"repl_fenced", "repl_followers_connected",
		"repl_holdoff_remaining_seconds", "repl_is_leader", "repl_lag_records",
		"repl_lease_expired", "repl_lease_remaining_seconds", "repl_term",
	}
	counters := []string{
		"repl_ack_timeouts_total", "repl_acks_received_total",
		"repl_acks_sent_total", "repl_batches_sent_total",
		"repl_elections_total", "repl_fence_events_total",
		"repl_fenced_frames_total", "repl_heartbeats_sent_total",
		"repl_promotions_total",
		"repl_reconnects_total", "repl_records_applied_total",
		"repl_records_sent_total", "repl_resyncs_total",
		"repl_snapshot_keys_shipped_total", "repl_snapshot_loads_total",
		"repl_snapshots_shipped_total", "repl_stale_acks_total",
	}
	leader := startLeader(t, openStore(t), nil)
	follower := startFollower(t, openStore(t), leader.ReplAddr(), nil)
	for name, n := range map[string]*Node{"leader": leader, "follower": follower} {
		s := metrics.Snapshot{Gauges: map[string]float64{}, External: map[string]uint64{}}
		n.MetricsHook(&s)
		if got := sortedKeys(s.Gauges); !slices.Equal(got, gauges) {
			t.Errorf("%s gauges = %v, want %v", name, got, gauges)
		}
		if got := sortedKeys(s.External); !slices.Equal(got, counters) {
			t.Errorf("%s counters = %v, want %v", name, got, counters)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
