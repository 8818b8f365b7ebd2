package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/durable"
	"repro/internal/failpoint"
	"repro/internal/repl"
	"repro/internal/wal"
)

// repl.Node is the Cluster a replicated server runs with.
var _ Cluster = (*repl.Node)(nil)

// startDurableServer builds a durable store + server + client on an
// ephemeral port.
func startDurableServer(t *testing.T, dir string, cfg Config) (*durable.Tree, *Server, *client.Client) {
	t.Helper()
	dur, err := durable.Open(dir, durable.Options{Sync: wal.SyncFsync})
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	cfg.Store = dur
	srv := New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return dur, srv, cl
}

// TestDurableStoreOverWire serves a durable.Tree through the unchanged
// protocol: mutations ack only after the WAL fsync, survive a simulated
// crash, and the /checkpoint admin endpoint cuts a snapshot on demand.
func TestDurableStoreOverWire(t *testing.T) {
	dir := t.TempDir()
	dur, srv, cl := startDurableServer(t, dir, Config{})
	ctx := context.Background()

	for _, k := range []int64{5, 10, 15, 20} {
		if ok, err := cl.Insert(ctx, k); err != nil || !ok {
			t.Fatalf("Insert(%d) = (%v, %v)", k, ok, err)
		}
	}
	if ok, err := cl.Delete(ctx, 10); err != nil || !ok {
		t.Fatalf("Delete(10) = (%v, %v)", ok, err)
	}
	// Batch path through the durable accessor.
	ops := []client.Op{client.InsertOp(100), client.InsertOp(200), client.InsertOp(300)}
	res, err := cl.Do(ctx, ops)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || !r.OK {
			t.Fatalf("batch op %d = %+v", i, r)
		}
	}

	// /checkpoint via the admin surface.
	admin := httptest.NewServer(srv.AdminHandler())
	resp, err := http.Post(admin.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatalf("POST /checkpoint: %v", err)
	}
	var ck struct {
		Keys   uint64 `json:"keys"`
		WALSeq uint64 `json:"wal_seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil || resp.StatusCode != 200 {
		t.Fatalf("POST /checkpoint = %d (%v)", resp.StatusCode, err)
	}
	resp.Body.Close()
	if ck.Keys != 6 {
		t.Fatalf("checkpoint covered %d keys, want 6", ck.Keys)
	}
	// GET is rejected, and health reports the durability section.
	if resp, _ := http.Get(admin.URL + "/checkpoint"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /checkpoint = %d, want 405", resp.StatusCode)
	}
	hresp, err := http.Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Durability *struct {
			WALLastSeq    uint64 `json:"wal_last_seq"`
			WALDurableSeq uint64 `json:"wal_durable_seq"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	admin.Close()
	if health.Durability == nil {
		t.Fatal("healthz has no durability section for a durable store")
	}
	if health.Durability.WALDurableSeq != health.Durability.WALLastSeq {
		t.Fatalf("under -sync fsync durable_seq (%d) must equal last_seq (%d)",
			health.Durability.WALDurableSeq, health.Durability.WALLastSeq)
	}

	// More acked ops after the checkpoint, then crash without them.
	if ok, err := cl.Insert(ctx, 400); err != nil || !ok {
		t.Fatalf("Insert(400) = (%v, %v)", ok, err)
	}
	cl.Close()
	shutdown(t, srv)
	if err := dur.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	// Reopen: snapshot + WAL tail reconstruct every acked mutation.
	dur2, err := durable.Open(dir, durable.Options{Sync: wal.SyncFsync})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dur2.Close()
	rs := dur2.RecoveryStats()
	if rs.SnapshotKeys != 6 || rs.ReplayedOps != 1 {
		t.Fatalf("RecoveryStats = %+v, want 6 snapshot keys + 1 replayed op", rs)
	}
	for _, k := range []int64{5, 15, 20, 100, 200, 300, 400} {
		if !dur2.Contains(k) {
			t.Fatalf("acked key %d lost across crash", k)
		}
	}
	if dur2.Contains(10) {
		t.Fatal("deleted key 10 resurrected")
	}
}

// TestInMemoryStoreHasNoCheckpoint: a plain tree behind the same server
// answers 404 on /checkpoint and omits the durability health section.
func TestInMemoryStoreHasNoCheckpoint(t *testing.T) {
	_, srv, cl := startServer(t, nil, Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()
	resp, err := http.Post(admin.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /checkpoint on in-memory store = %d, want 404", resp.StatusCode)
	}
	hresp, err := http.Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["durability"]; ok {
		t.Fatal("in-memory health body carries a durability section")
	}
}

// TestDurableDrainFlushesAndCheckpoints: the bstserve shutdown sequence —
// server drain, then durable Close — leaves a data dir that recovers with
// zero WAL replay (everything checkpointed).
func TestDurableDrainFlushesAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	dur, srv, cl := startDurableServer(t, dir, Config{})
	ctx := context.Background()
	for k := int64(0); k < 25; k++ {
		if _, err := cl.Insert(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	ctx2, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx2); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := dur.Close(); err != nil {
		t.Fatalf("durable Close: %v", err)
	}

	dur2, err := durable.Open(dir, durable.Options{Sync: wal.SyncFsync})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dur2.Close()
	rs := dur2.RecoveryStats()
	if rs.SnapshotKeys != 25 || rs.ReplayedOps != 0 {
		t.Fatalf("clean shutdown should leave no replay: %+v", rs)
	}
}

// TestWALFailureSevers: a write whose WAL record cannot be made durable is
// never answered — neither acknowledged nor blamed on the request. With
// every fsync failing, a one-attempt Insert (window path) and a
// one-attempt Do([insert]) (batch path) both see the connection severed,
// and no request counts as malformed.
func TestWALFailureSevers(t *testing.T) {
	fps := failpoint.NewSet()
	dur, err := durable.Open(t.TempDir(), durable.Options{Sync: wal.SyncFsync, Failpoints: fps})
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	defer dur.Close()
	srv := New(Config{Store: dur})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), MaxAttempts: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	fps.Site(wal.FPFsync).FailEveryN(1)
	ok, err := cl.Insert(ctx, 7)
	if err == nil || errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("Insert with a failing WAL = (%v, %v), want a transport error", ok, err)
	}
	t.Logf("Insert: %v", err)
	res, err := cl.Do(ctx, []client.Op{client.InsertOp(8)})
	if err == nil {
		err = res[0].Err
	}
	if err == nil || errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("Do([insert]) with a failing WAL = %+v, want a transport error", res)
	}
	t.Logf("Do: %v", err)
	if got := srv.Counters().BadRequests; got != 0 {
		t.Fatalf("BadRequests = %d, want 0", got)
	}
}
