package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/wal"
	"repro/internal/wire"
)

// replServer is one member of a replicated pair: a durable store, its
// replication node, and a server fronting both, with bstserve's metric
// hooks registered.
type replServer struct {
	store *durable.Tree
	node  *repl.Node
	srv   *Server
	addr  string // data address, also the node's Advertise
	admin *httptest.Server
}

// startReplServer builds one replServer on ephemeral ports; replicaOf ""
// starts a leader.
func startReplServer(t *testing.T, replicaOf string) *replServer {
	t.Helper()
	store, err := durable.Open(t.TempDir(), durable.Options{Sync: wal.SyncFsync})
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	node, err := repl.Start(repl.Config{
		Store:       store,
		Advertise:   addr,
		ListenRepl:  "127.0.0.1:0",
		ReplicaOf:   replicaOf,
		Heartbeat:   20 * time.Millisecond,
		AckEvery:    1,
		AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("repl.Start: %v", err)
	}
	t.Cleanup(func() { node.Close() })
	reg := metrics.NewRegistry(0)
	reg.AddHook(store.MetricsHook)
	reg.AddHook(node.MetricsHook)
	srv := New(Config{Store: store, Cluster: node, Metrics: reg})
	if err := srv.Start(addr); err != nil {
		t.Fatalf("Start(%s): %v", addr, err)
	}
	t.Cleanup(func() { srv.Close() })
	admin := httptest.NewServer(srv.AdminHandler())
	t.Cleanup(admin.Close)
	return &replServer{store: store, node: node, srv: srv, addr: addr, admin: admin}
}

func (r *replServer) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(r.admin.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// clusterDoc is the "cluster" object of a health document: its keys in
// document order, and its values by key.
type clusterDoc struct {
	keys []string
	vals map[string]any
}

func (r *replServer) cluster(t *testing.T, path string) clusterDoc {
	t.Helper()
	_, body := r.get(t, path)
	var doc struct {
		Cluster json.RawMessage `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || doc.Cluster == nil {
		t.Fatalf("%s: no cluster object (%v): %s", path, err, body)
	}
	cd := clusterDoc{vals: map[string]any{}}
	dec := json.NewDecoder(bytes.NewReader(doc.Cluster))
	dec.Token() // {
	for dec.More() {
		k, _ := dec.Token()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%s: cluster.%v: %v", path, k, err)
		}
		cd.keys = append(cd.keys, k.(string))
		cd.vals[k.(string)] = v
	}
	return cd
}

// TestClusterHealthDocument pins the cluster object of /healthz on both
// sides of a live pair, and the follower branch of /readyz.
func TestClusterHealthDocument(t *testing.T) {
	leader := startReplServer(t, "")
	follower := startReplServer(t, leader.node.ReplAddr())

	cl, err := client.Dial(client.Config{Addr: leader.addr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for k := int64(1); k <= 50; k++ {
		if ok, err := cl.Insert(ctx, k); err != nil || !ok {
			t.Fatalf("Insert(%d) = (%v, %v)", k, ok, err)
		}
	}
	last := leader.store.LastSeq()

	keys := []string{
		"role", "term", "leader_addr", "applied_seq", "acked_seq", "applied_lag",
		"lease_remaining_ms", "followers", "lease_expired", "election_state",
		"holdoff_remaining_ms", "fenced",
	}
	for _, r := range []*replServer{leader, follower} {
		if cd := r.cluster(t, "/healthz"); !slices.Equal(cd.keys, keys) {
			t.Fatalf("cluster keys = %v, want %v", cd.keys, keys)
		}
	}

	// Caught up: applied through the leader's last record, and a later
	// heartbeat has told the follower nothing is left to apply.
	var fd clusterDoc
	deadline := time.Now().Add(10 * time.Second)
	for {
		fd = follower.cluster(t, "/healthz")
		if fd.vals["applied_seq"] == float64(last) && fd.vals["applied_lag"] == 0.0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up to seq %d: %v", last, fd.vals)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fd.vals["role"] != "follower" || fd.vals["leader_addr"] != leader.addr ||
		fd.vals["lease_expired"] != false || fd.vals["term"] != 1.0 || fd.vals["fenced"] != false {
		t.Fatalf("follower cluster = %v", fd.vals)
	}
	ld := leader.cluster(t, "/healthz")
	if ld.vals["role"] != "leader" || ld.vals["term"] != 1.0 || ld.vals["followers"] != 1.0 ||
		ld.vals["leader_addr"] != leader.addr || ld.vals["election_state"] != "leading" {
		t.Fatalf("leader cluster = %v", ld.vals)
	}
	if code, _ := follower.get(t, "/readyz"); code != http.StatusOK {
		t.Fatalf("follower /readyz = %d while connected", code)
	}

	// The leader goes silent: within a lease the follower is unready.
	leader.node.Close()
	for deadline := time.Now().Add(10 * time.Second); ; {
		code, body := follower.get(t, "/readyz")
		if code == http.StatusServiceUnavailable && strings.Contains(body, "follower lease expired") {
			if cd := follower.cluster(t, "/readyz"); cd.vals["lease_expired"] != true {
				t.Fatalf("unready follower's cluster = %v", cd.vals)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower /readyz after leader loss = %d %s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicatedSeries is every series a replicated durable server's admin
// endpoint serves with bstserve's durability and replication hooks, as
// "name type". A renamed, retyped or dropped series fails
// TestReplicatedServedSeriesGolden; a new one must be added here.
var replicatedSeries = []string{
	"bst_batch_ops_total counter",
	"bst_batch_seek_skipped_levels_total counter",
	"bst_capacity_failures_total counter",
	"bst_capacity_retries_total counter",
	"bst_cas_failures_total counter",
	"bst_checkpoint_backlog_ops gauge",
	"bst_checkpoint_last_wal_seq gauge",
	"bst_help_total counter",
	"bst_insert_retries_total counter",
	"bst_latency_sample_period_ops gauge",
	"bst_op_latency_seconds histogram",
	"bst_ops_total counter",
	"bst_pruned_leaves_total counter",
	"bst_recovery_replayed_ops_total counter",
	"bst_repl_ack_timeouts_total counter",
	"bst_repl_acked_seq gauge",
	"bst_repl_acks_received_total counter",
	"bst_repl_acks_sent_total counter",
	"bst_repl_applied_seq gauge",
	"bst_repl_batches_sent_total counter",
	"bst_repl_election_state gauge",
	"bst_repl_elections_total counter",
	"bst_repl_fence_events_total counter",
	"bst_repl_fenced gauge",
	"bst_repl_fenced_frames_total counter",
	"bst_repl_followers_connected gauge",
	"bst_repl_heartbeats_sent_total counter",
	"bst_repl_holdoff_remaining_seconds gauge",
	"bst_repl_is_leader gauge",
	"bst_repl_lag_records gauge",
	"bst_repl_lease_expired gauge",
	"bst_repl_lease_remaining_seconds gauge",
	"bst_repl_promotions_total counter",
	"bst_repl_reconnects_total counter",
	"bst_repl_records_applied_total counter",
	"bst_repl_records_sent_total counter",
	"bst_repl_resyncs_total counter",
	"bst_repl_snapshot_keys_shipped_total counter",
	"bst_repl_snapshot_loads_total counter",
	"bst_repl_snapshots_shipped_total counter",
	"bst_repl_stale_acks_total counter",
	"bst_repl_term gauge",
	"bst_seek_restarts_total counter",
	"bst_server_aggregates_total counter",
	"bst_server_bad_requests_total counter",
	"bst_server_batch_ops_total counter",
	"bst_server_capacity_errors_total counter",
	"bst_server_conns_accepted_total counter",
	"bst_server_conns_closed_total counter",
	"bst_server_deadline_timeouts_total counter",
	"bst_server_drain_rejected_total counter",
	"bst_server_draining gauge",
	"bst_server_drains_total counter",
	"bst_server_fenced_total counter",
	"bst_server_inflight_requests gauge",
	"bst_server_no_index_total counter",
	"bst_server_not_leader_total counter",
	"bst_server_open_conns gauge",
	"bst_server_out_of_range_total counter",
	"bst_server_panics_total counter",
	"bst_server_repl_degraded_total counter",
	"bst_server_repl_lag_total counter",
	"bst_server_requests_total counter",
	"bst_server_shed_total counter",
	"bst_server_slow_reads_total counter",
	"bst_snapshot_duration_seconds histogram",
	"bst_snapshot_keys_total counter",
	"bst_snapshots_total counter",
	"bst_splice_wins_total counter",
	"bst_wal_append_total counter",
	"bst_wal_bytes_written_total counter",
	"bst_wal_durable_seq gauge",
	"bst_wal_fsync_seconds histogram",
	"bst_wal_fsync_total counter",
	"bst_wal_group_commits_total counter",
	"bst_wal_group_records_total counter",
	"bst_wal_group_size_max gauge",
	"bst_wal_last_seq gauge",
	"bst_wal_rotations_total counter",
	"bst_wal_segments gauge",
	"bst_wal_torn_bytes_truncated_total counter",
}

// TestReplicatedServedSeriesGolden pins the # TYPE lines /metrics serves
// on a leader and on its follower: the same list for both.
func TestReplicatedServedSeriesGolden(t *testing.T) {
	leader := startReplServer(t, "")
	follower := startReplServer(t, leader.node.ReplAddr())
	for name, r := range map[string]*replServer{"leader": leader, "follower": follower} {
		_, body := r.get(t, "/metrics")
		var got []string
		for _, l := range strings.Split(body, "\n") {
			if s, ok := strings.CutPrefix(l, "# TYPE "); ok {
				got = append(got, s)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, replicatedSeries) {
			t.Errorf("%s serves\n%s\nwant\n%s", name, strings.Join(got, "\n"), strings.Join(replicatedSeries, "\n"))
		}
	}
}

// TestFencedWriteCountedOnce: a clustered leader deposed by a newer term
// refuses a write with StatusFenced and counts it once, in
// Counters().Fenced and its series bst_server_fenced_total; the
// replication layer keeps no second count.
func TestFencedWriteCountedOnce(t *testing.T) {
	r := startReplServer(t, "")
	// A status exchange from a self-declared leader of term 5 deposes the
	// node, which fences its store.
	c, err := net.DialTimeout("tcp", r.node.ReplAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	hello := wire.AppendRepl(nil, &wire.Repl{Kind: wire.ReplStatus, Term: 5, IsLeader: true, Addr: "new-leader:1"})
	if err := wire.WriteFrame(c, hello); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadFrame(c, nil); err != nil {
		t.Fatalf("status exchange: %v", err)
	}
	if st := r.node.Status(); !st.Fenced || st.Term != 5 {
		t.Fatalf("after a term-5 leader's status: fenced %v, term %d", st.Fenced, st.Term)
	}

	cl, err := client.Dial(client.Config{Addr: r.addr, Seed: 1, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before := r.srv.Counters().Fenced
	if _, err := cl.Insert(context.Background(), 7); !errors.Is(err, client.ErrFenced) {
		t.Fatalf("Insert on a fenced leader: %v, want ErrFenced", err)
	}
	if got := r.srv.Counters().Fenced - before; got != 1 {
		t.Fatalf("Counters().Fenced rose by %d, want 1", got)
	}
	_, body := r.get(t, "/metrics")
	if !strings.Contains(body, "\nbst_server_fenced_total{tree=\"serve\"} 1\n") || strings.Contains(body, "fenced_requests") {
		t.Fatalf("/metrics fenced series:\n%s", body)
	}
}
