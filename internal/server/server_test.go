package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bst "repro"
	"repro/internal/client"
	"repro/internal/failpoint"
	"repro/internal/wire"
)

// startServer builds a tree + server + client stack on an ephemeral port.
func startServer(t *testing.T, treeOpts []bst.Option, cfg Config) (*bst.Tree, *Server, *client.Client) {
	t.Helper()
	tree := bst.New(treeOpts...)
	cfg.Store = tree
	srv := New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tree, srv, cl
}

func shutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestBasicOpsOverWire(t *testing.T) {
	tree, srv, cl := startServer(t, nil, Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	ctx := context.Background()

	if ok, err := cl.Insert(ctx, 42); err != nil || !ok {
		t.Fatalf("Insert(42) = (%v, %v), want (true, nil)", ok, err)
	}
	if ok, err := cl.Insert(ctx, 42); err != nil || ok {
		t.Fatalf("duplicate Insert(42) = (%v, %v), want (false, nil)", ok, err)
	}
	if ok, err := cl.Lookup(ctx, 42); err != nil || !ok {
		t.Fatalf("Lookup(42) = (%v, %v), want (true, nil)", ok, err)
	}
	for _, k := range []int64{-5, 7, 100} {
		if _, err := cl.Insert(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := cl.Range(ctx, -10, 50, 0)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	want := []int64{-5, 7, 42}
	if len(keys) != len(want) {
		t.Fatalf("Range = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Range = %v, want %v", keys, want)
		}
	}
	if ok, err := cl.Delete(ctx, 42); err != nil || !ok {
		t.Fatalf("Delete(42) = (%v, %v), want (true, nil)", ok, err)
	}
	if tree.Contains(42) {
		t.Fatal("key 42 still present in the backing tree")
	}
	// Out-of-range keys come back as the in-process sentinel error.
	if _, err := cl.Insert(ctx, bst.MaxKey+1); !errors.Is(err, bst.ErrKeyOutOfRange) {
		t.Fatalf("Insert(MaxKey+1) err = %v, want ErrKeyOutOfRange", err)
	}
	if _, err := cl.Lookup(ctx, bst.MaxKey+1); !errors.Is(err, bst.ErrKeyOutOfRange) {
		t.Fatalf("Lookup(MaxKey+1) err = %v, want ErrKeyOutOfRange", err)
	}
}

// TestLoadSheddingEngagesAndRecovers is acceptance criterion (a): with an
// in-flight cap of 1 and one request frozen mid-execution, concurrent
// requests are shed with StatusOverloaded; after release everything
// retries through, and every acknowledged insert is really in the tree.
func TestLoadSheddingEngagesAndRecovers(t *testing.T) {
	fp := failpoint.NewSet()
	tree, srv, cl := startServer(t, nil, Config{MaxInFlight: 1, Failpoints: fp})
	defer cl.Close()
	defer shutdown(t, srv)

	st := fp.Site(FPHandle)
	st.StallNext()

	// Freeze one insert inside the handler, holding the only slot.
	stalled := make(chan error, 1)
	go func() {
		_, err := cl.Insert(context.Background(), 1)
		stalled <- err
	}()
	if !st.WaitStalled(5 * time.Second) {
		t.Fatal("first request never reached the handler failpoint")
	}

	// A bare-wire probe (no retries) must be shed, not queued.
	probe, err := client.Dial(client.Config{Addr: srv.Addr().String(), MaxAttempts: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	if _, err := probe.Insert(context.Background(), 2); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("probe insert err = %v, want ErrOverloaded", err)
	}
	if c := srv.Counters(); c.Shed == 0 || c.InFlight != 1 {
		t.Fatalf("counters after shed: %+v, want Shed>0 and InFlight=1", c)
	}

	// Retrying clients ride out the overload: launch a burst, then
	// release the stall; every acknowledged op must be durable.
	const burst = 16
	acked := make([]bool, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			ok, err := cl.Insert(ctx, int64(100+i))
			if err != nil {
				t.Errorf("burst insert %d: %v", i, err)
				return
			}
			acked[i] = ok
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the burst pile into sheds
	st.Release()
	wg.Wait()
	if err := <-stalled; err != nil {
		t.Fatalf("stalled insert failed: %v", err)
	}

	// Zero dropped-but-acknowledged ops.
	if !tree.Contains(1) {
		t.Fatal("stalled insert acknowledged but key 1 missing")
	}
	for i := 0; i < burst; i++ {
		if acked[i] && !tree.Contains(int64(100+i)) {
			t.Fatalf("insert %d acknowledged but missing from the tree", 100+i)
		}
		if !acked[i] {
			t.Fatalf("burst insert %d reported no change on a fresh key", 100+i)
		}
	}
	if c := srv.Counters(); c.InFlight != 0 {
		t.Fatalf("InFlight = %d after recovery, want 0", c.InFlight)
	}
}

// TestCapacityErrorsOnTheWire is acceptance criterion (b): a bounded
// reclaiming arena exhausts mid-traffic, the wire carries StatusCapacity
// (surfacing as bst.ErrCapacity), and the client's capacity backoff
// converges once deletes free space.
func TestCapacityErrorsOnTheWire(t *testing.T) {
	tree, srv, cl := startServer(t,
		[]bst.Option{bst.WithCapacity(128), bst.WithReclamation()},
		Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	ctx := context.Background()

	// One-shot client: sees raw capacity errors without retry masking.
	oneShot, err := client.Dial(client.Config{Addr: srv.Addr().String(), MaxAttempts: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer oneShot.Close()

	var kept []int64
	sawCapacity := false
	for k := int64(0); k < 10_000; k++ {
		ok, err := oneShot.Insert(ctx, k)
		if err != nil {
			if !errors.Is(err, bst.ErrCapacity) {
				t.Fatalf("Insert(%d) err = %v, want ErrCapacity", k, err)
			}
			sawCapacity = true
			break
		}
		if !ok {
			t.Fatalf("Insert(%d) = false on a fresh key", k)
		}
		kept = append(kept, k)
	}
	if !sawCapacity {
		t.Fatal("bounded tree never pushed back over the wire")
	}
	if c := srv.Counters(); c.CapacityErrs == 0 {
		t.Fatalf("server CapacityErrs = 0 after wire capacity error: %+v", c)
	}

	// The full tree still serves reads and deletes over the wire.
	if ok, err := cl.Lookup(ctx, kept[0]); err != nil || !ok {
		t.Fatalf("Lookup at capacity = (%v, %v)", ok, err)
	}

	// Free half through the server, then a retrying insert must converge
	// (the client's capacity backoff rides out the reclamation delay).
	for _, k := range kept[:len(kept)/2] {
		if ok, err := cl.Delete(ctx, k); err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v)", k, ok, err)
		}
	}
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	ok, err := cl.Insert(rctx, 1<<40)
	if err != nil || !ok {
		t.Fatalf("post-free Insert = (%v, %v), want (true, nil); client stats %+v", ok, err, cl.Stats())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("tree invalid after exhaust/recover over the wire: %v", err)
	}
}

// TestGracefulDrain is acceptance criterion (c): Shutdown lets the frozen
// in-flight request finish and deliver its response, rejects new work with
// StatusDraining, closes the reclaim domain via Tree.Close, and leaks no
// goroutines.
func TestGracefulDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	fp := failpoint.NewSet()
	tree, srv, cl := startServer(t,
		[]bst.Option{bst.WithCapacity(1 << 16), bst.WithReclamation()},
		Config{Failpoints: fp})

	ctx := context.Background()
	for k := int64(0); k < 64; k++ {
		if _, err := cl.Insert(ctx, k); err != nil {
			t.Fatal(err)
		}
	}

	// Freeze one delete inside the handler, then start the drain.
	st := fp.Site(FPHandle)
	st.StallNext()
	stalled := make(chan error, 1)
	stalledOK := make(chan bool, 1)
	go func() {
		ok, err := cl.Delete(context.Background(), 7)
		stalledOK <- ok
		stalled <- err
	}()
	if !st.WaitStalled(5 * time.Second) {
		t.Fatal("delete never reached the handler failpoint")
	}

	drainDone := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Shutdown(dctx)
	}()

	// While draining: not ready, and new connections are refused.
	waitFor(t, time.Second, func() bool { return srv.Counters().Draining })
	if err := srv.Ready(); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("Ready() during drain = %v, want draining error", err)
	}
	if _, err := net.DialTimeout("tcp", srv.Addr().String(), 250*time.Millisecond); err == nil {
		// Accept may race the listener close by one connection; that
		// conn must still be dropped without service. Give it a beat.
		time.Sleep(50 * time.Millisecond)
	}

	// The frozen request must complete and be acknowledged.
	st.Release()
	if err := <-drainDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-stalled; err != nil {
		t.Fatalf("in-flight delete dropped during drain: %v", err)
	}
	if !<-stalledOK {
		t.Fatal("in-flight delete returned false on a present key")
	}
	if tree.Contains(7) {
		t.Fatal("acknowledged delete not applied")
	}
	if c := srv.Counters(); c.Drains != 1 || c.InFlight != 0 || c.OpenConns != 0 {
		t.Fatalf("post-drain counters: %+v", c)
	}

	// Drain ordering: accessors are closed, so the reclaim domain retires
	// cleanly and the tree reports no live epoch slots afterwards.
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if h := tree.Health(); h.EpochSlots != 0 || h.PinnedSlots != 0 {
		t.Fatalf("epoch slots survived Tree.Close: %+v", h)
	}

	cl.Close()
	// No goroutine leaks: everything the server spawned is gone.
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline })
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.GC() // finalizer-driven cleanups count too
		time.Sleep(10 * time.Millisecond)
	}
	if !cond() {
		t.Fatalf("condition not reached within %v", timeout)
	}
}

// TestPanicIsolation: a panicking handler answers StatusInternal, poisons
// only its own connection, and every other connection keeps serving.
func TestPanicIsolation(t *testing.T) {
	fp := failpoint.NewSet()
	tree, srv, cl := startServer(t, nil, Config{Failpoints: fp})
	defer cl.Close()
	defer shutdown(t, srv)
	_ = tree
	ctx := context.Background()

	if _, err := cl.Insert(ctx, 1); err != nil {
		t.Fatal(err)
	}

	fp.Site(FPPanic).FailOnce()
	victim, err := client.Dial(client.Config{Addr: srv.Addr().String(), MaxAttempts: 1, Conns: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	if _, err := victim.Lookup(ctx, 1); !errors.Is(err, client.ErrInternal) {
		t.Fatalf("victim err = %v, want ErrInternal", err)
	}
	// The victim's connection is poisoned; its next use redials and works.
	if ok, err := victim.Lookup(ctx, 1); err != nil || !ok {
		t.Fatalf("victim after redial = (%v, %v), want (true, nil)", ok, err)
	}
	// Other connections were never disturbed.
	if ok, err := cl.Lookup(ctx, 1); err != nil || !ok {
		t.Fatalf("bystander = (%v, %v), want (true, nil)", ok, err)
	}
	if c := srv.Counters(); c.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", c.Panics)
	}
}

// TestSlowLorisDisconnected: a peer that sends half a frame and stalls is
// dropped by the per-frame read deadline without tying up the server.
func TestSlowLorisDisconnected(t *testing.T) {
	_, srv, cl := startServer(t, nil, Config{ReadTimeout: 200 * time.Millisecond})
	defer cl.Close()
	defer shutdown(t, srv)

	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Announce a 21-byte frame, deliver 3 bytes, go silent.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 21)
	c.Write(hdr[:])
	c.Write([]byte{1, 2, 3})

	waitFor(t, 5*time.Second, func() bool { return srv.Counters().SlowReads >= 1 })
	// The server remains fully available to honest clients.
	if ok, err := cl.Insert(context.Background(), 9); err != nil || !ok {
		t.Fatalf("honest client during slow-loris = (%v, %v)", ok, err)
	}
	// The dribbled connection is actually dead.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("slow-loris connection still open after read timeout")
	}
}

// TestDeadlineExpiredBeforeExecution: a request whose budget is already
// gone when it reaches execution answers StatusDeadlineExceeded.
func TestDeadlineExpiredBeforeExecution(t *testing.T) {
	fp := failpoint.NewSet()
	_, srv, _ := startServer(t, nil, Config{Failpoints: fp})
	defer shutdown(t, srv)

	// Raw wire: a request with a 1ms budget frozen for 100ms at the
	// handler must come back deadline-exceeded.
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := fp.Site(FPHandle)
	st.StallNext()
	if err := wire.WriteFrame(c, wire.AppendRequest(nil, &wire.Request{ID: 5, Op: wire.OpInsert, DeadlineMS: 1, Key: 3})); err != nil {
		t.Fatal(err)
	}
	if !st.WaitStalled(5 * time.Second) {
		t.Fatal("request never reached the handler failpoint")
	}
	time.Sleep(100 * time.Millisecond)
	st.Release()
	payload, _, err := wire.ReadFrame(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(payload, wire.OpInsert, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || resp.Status != wire.StatusDeadlineExceeded {
		t.Fatalf("response = %+v, want id 5 StatusDeadlineExceeded", resp)
	}
	if srv.Counters().Timeouts == 0 {
		t.Fatal("Timeouts counter not incremented")
	}
}

// TestBadRequestsRejected: unknown ops answer StatusBadRequest; an
// oversized length prefix drops the connection before allocation.
func TestBadRequestsRejected(t *testing.T) {
	_, srv, cl := startServer(t, nil, Config{})
	defer cl.Close()
	defer shutdown(t, srv)

	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := wire.WriteFrame(c, wire.AppendRequest(nil, &wire.Request{ID: 1, Op: 99, Key: 1})); err != nil {
		t.Fatal(err)
	}
	payload, _, err := wire.ReadFrame(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	wire.DecodeResponse(payload, 99, &resp)
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("unknown op status = %v, want StatusBadRequest", resp.Status)
	}

	// Hostile length prefix: connection must die without service.
	c2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Write([]byte{0xff, 0xff, 0xff, 0xff})
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c2.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection with hostile length prefix survived")
	}
}

// TestMalformedTailKeepsConnection: a frame whose header parses but whose
// op tail does not — a range cut short of its 12-byte tail, a lookup-at
// cut short of its sequence floor — answers StatusBadRequest, and the
// connection keeps serving, since the frame boundary held. Only a payload
// cut inside the header is answered and then closes the connection.
func TestMalformedTailKeepsConnection(t *testing.T) {
	_, srv, cl := startServer(t, nil, Config{})
	defer cl.Close()
	defer shutdown(t, srv)
	if _, err := cl.Insert(context.Background(), 5); err != nil {
		t.Fatal(err)
	}

	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	roundTrip := func(payload []byte, op uint8) wire.Response {
		t.Helper()
		if err := wire.WriteFrame(c, payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		reply, _, err := wire.ReadFrame(c, nil)
		if err != nil {
			t.Fatalf("read after a %d-byte %s frame: %v", len(payload), wire.OpName(op), err)
		}
		var resp wire.Response
		if err := wire.DecodeResponse(reply, op, &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp
	}

	rng := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpRange, Key: 0, To: 10})
	if resp := roundTrip(rng[:len(rng)-4], wire.OpRange); resp.ID != 1 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("truncated range tail = %+v, want id 1 StatusBadRequest", resp)
	}
	at := wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpLookupAt, Key: 5})
	if resp := roundTrip(at[:len(at)-1], wire.OpLookupAt); resp.ID != 2 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("truncated lookup-at tail = %+v, want id 2 StatusBadRequest", resp)
	}
	lookup := wire.AppendRequest(nil, &wire.Request{ID: 3, Op: wire.OpLookup, Key: 5})
	if resp := roundTrip(lookup, wire.OpLookup); resp.ID != 3 || resp.Status != wire.StatusOK || !resp.OK {
		t.Fatalf("lookup after two bad tails = %+v, want id 3 found", resp)
	}
	if got := srv.Counters().BadRequests; got != 2 {
		t.Fatalf("BadRequests = %d, want 2", got)
	}

	if resp := roundTrip(lookup[:10], wire.OpLookup); resp.Status != wire.StatusBadRequest {
		t.Fatalf("short header = %+v, want StatusBadRequest", resp)
	}
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived a short header")
	}
}

// TestAdminEndpoints exercises /healthz, /readyz and /metrics, including
// the server_* counter export.
func TestAdminEndpoints(t *testing.T) {
	_, srv, cl := startServer(t, nil, Config{MaxInFlight: 1})
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Insert(ctx, 1); err != nil {
		t.Fatal(err)
	}

	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := admin.Client().Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	// One series per Counters field: a counter added to Counters without
	// an export, or an export renamed, fails here.
	series := map[string]string{
		"ConnsAccepted": "bst_server_conns_accepted_total",
		"ConnsClosed":   "bst_server_conns_closed_total",
		"Requests":      "bst_server_requests_total",
		"BatchOps":      "bst_server_batch_ops_total",
		"Shed":          "bst_server_shed_total",
		"DrainRejected": "bst_server_drain_rejected_total",
		"Timeouts":      "bst_server_deadline_timeouts_total",
		"CapacityErrs":  "bst_server_capacity_errors_total",
		"OutOfRange":    "bst_server_out_of_range_total",
		"BadRequests":   "bst_server_bad_requests_total",
		"Panics":        "bst_server_panics_total",
		"SlowReads":     "bst_server_slow_reads_total",
		"Drains":        "bst_server_drains_total",
		"NotLeader":     "bst_server_not_leader_total",
		"Fenced":        "bst_server_fenced_total",
		"ReplLag":       "bst_server_repl_lag_total",
		"ReplDegraded":  "bst_server_repl_degraded_total",
		"Aggregates":    "bst_server_aggregates_total",
		"NoIndex":       "bst_server_no_index_total",
		"InFlight":      "bst_server_inflight_requests",
		"OpenConns":     "bst_server_open_conns",
		"Draining":      "bst_server_draining",
	}
	ct := reflect.TypeOf(Counters{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		name, ok := series[f.Name]
		if !ok {
			t.Errorf("Counters.%s has no /metrics series", f.Name)
			continue
		}
		typ := "gauge"
		if f.Type.Kind() == reflect.Uint64 {
			typ = "counter"
		}
		if !strings.Contains(body, "# TYPE "+name+" "+typ+"\n") {
			t.Errorf("/metrics missing %s %s for Counters.%s", typ, name, f.Name)
		}
	}
	if len(series) != ct.NumField() {
		t.Errorf("%d series listed for %d Counters fields", len(series), ct.NumField())
	}
	var doc map[string]any
	if code, body := get("/debug/vars"); code != 200 || json.Unmarshal([]byte(body), &doc) != nil {
		t.Fatalf("/debug/vars = %d, not JSON: %q", code, body)
	}

	shutdown(t, srv)
	if code, _ := get("/readyz"); code != 503 {
		t.Fatalf("/readyz after drain = %d, want 503", code)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz after drain = %d, want 200 (process still alive)", code)
	}
}

// TestConcurrentMixedLoad: many clients, shedding on, counting invariant
// holds — every acknowledged state change is reflected in the tree.
func TestConcurrentMixedLoad(t *testing.T) {
	tree, srv, _ := startServer(t, nil, Config{MaxInFlight: 4})
	defer shutdown(t, srv)

	const (
		workers  = 8
		keySpace = 32
		opsEach  = 200
	)
	var ins, del [keySpace]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), Conns: 1, Seed: int64(w + 1)})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < opsEach; i++ {
				k := int64((w*7 + i*13) % keySpace)
				switch i % 3 {
				case 0:
					ok, err := cl.Insert(ctx, k)
					if err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					if ok {
						ins[k].Add(1)
					}
				case 1:
					ok, err := cl.Delete(ctx, k)
					if err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					if ok {
						del[k].Add(1)
					}
				default:
					if _, err := cl.Lookup(ctx, k); err != nil {
						t.Errorf("lookup: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for k := int64(0); k < keySpace; k++ {
		diff := ins[k].Load() - del[k].Load()
		present := tree.Contains(k)
		if !(diff == 0 && !present || diff == 1 && present) {
			t.Fatalf("key %d: %d acked inserts − %d acked deletes = %d, present=%v",
				k, ins[k].Load(), del[k].Load(), diff, present)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}
