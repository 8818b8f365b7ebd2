package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/durable"
)

// TestMain lets a test run the command itself: the test binary started
// with BSTSERVE_RUN_MAIN=1 runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("BSTSERVE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serveProc is a bstserve child process and the stdout lines read from it
// so far.
type serveProc struct {
	cmd *exec.Cmd
	// lines carries stdout and is closed at EOF. Its buffer holds more
	// than the few lines bstserve prints, so the reader never blocks on a
	// test that stopped reading.
	lines  chan string
	out    []string
	stderr bytes.Buffer // read only after the process is reaped
}

// startServe runs main in a child process on args. The child is killed
// when the test ends unless the test reaped it first.
func startServe(t *testing.T, args ...string) *serveProc {
	t.Helper()
	p := &serveProc{cmd: exec.Command(os.Args[0], args...), lines: make(chan string, 64)}
	p.cmd.Env = append(os.Environ(), "BSTSERVE_RUN_MAIN=1")
	p.cmd.Stderr = &p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
			t.Logf("bstserve stdout:\n%s\nstderr:\n%s", strings.Join(p.out, "\n"), p.stderr.String())
		}
	})
	return p
}

// next returns the next stdout line, or ok false at EOF.
func (p *serveProc) next(t *testing.T) (line string, ok bool) {
	t.Helper()
	select {
	case line, ok = <-p.lines:
		if ok {
			p.out = append(p.out, line)
		}
		return line, ok
	case <-time.After(30 * time.Second):
		t.Fatalf("bstserve printed nothing for 30s; so far:\n%s", strings.Join(p.out, "\n"))
		return "", false
	}
}

// expect reads stdout up to the first line that starts with prefix and
// returns the rest of that line.
func (p *serveProc) expect(t *testing.T, prefix string) string {
	t.Helper()
	for {
		line, ok := p.next(t)
		if !ok {
			t.Fatalf("bstserve closed stdout before printing %q:\n%s", prefix, strings.Join(p.out, "\n"))
		}
		if rest, found := strings.CutPrefix(line, prefix); found {
			return rest
		}
	}
}

// wait reads stdout to EOF and reaps the process.
func (p *serveProc) wait(t *testing.T) error {
	t.Helper()
	for {
		if _, ok := p.next(t); !ok {
			return p.cmd.Wait()
		}
	}
}

// TestServeDrainRecover runs bstserve as its own process on a durable
// order-statistics store, the way an operator starts it. Over the wire it
// must answer point operations, one batch frame and one Exact CountRange;
// its admin port must answer the probes with a scrape that carries the
// served tree's own series; SIGTERM must drain it to exit 0 with a final
// checkpoint; and the data directory must then reopen with every
// acknowledged insert present and every acknowledged delete gone.
func TestServeDrainRecover(t *testing.T) {
	dir := t.TempDir()
	p := startServe(t, "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-data", dir, "-order-stats")
	addr := strings.Fields(p.expect(t, "bstserve: serving on "))[0]
	admin := strings.Fields(p.expect(t, "bstserve: admin on "))[0]

	// One pooled connection, so every operation runs on one server-side
	// accessor and its 1-in-64 latency sample fires within n inserts.
	cl, err := client.Dial(client.Config{Addr: addr, Conns: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	const n = 300
	present := map[int64]bool{}
	for i := int64(0); i < n; i++ {
		if ok, err := cl.Insert(ctx, 7*i); err != nil || !ok {
			t.Fatalf("Insert(%d) = (%v, %v), want (true, nil)", 7*i, ok, err)
		}
		present[7*i] = true
	}
	for k := range present {
		if ok, err := cl.Lookup(ctx, k); err != nil || !ok {
			t.Fatalf("Lookup(%d) = (%v, %v), want (true, nil)", k, ok, err)
		}
	}
	for i := int64(0); i < n; i += 3 {
		if ok, err := cl.Delete(ctx, 7*i); err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v), want (true, nil)", 7*i, ok, err)
		}
		present[7*i] = false
	}
	ops := []client.Op{client.InsertOp(-1), client.LookupOp(7), client.DeleteOp(0), client.LookupOp(-1)}
	res, err := cl.Do(ctx, ops)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for i, want := range []bool{true, true, false, true} {
		if res[i].Err != nil || res[i].OK != want {
			t.Fatalf("Do op %d (%+v) = (%v, %v), want (%v, nil)", i, ops[i], res[i].OK, res[i].Err, want)
		}
	}
	present[-1] = true
	live := 0
	for _, in := range present {
		if in {
			live++
		}
	}
	if got, err := cl.CountRange(ctx, -1, 7*n, client.Consistency{Exact: true}); err != nil || got != int64(live) {
		t.Fatalf("CountRange = (%d, %v), want (%d, nil)", got, err, live)
	}

	for path, status := range map[string]string{"/healthz": "ok", "/readyz": "ready"} {
		var body struct{ Status string }
		if code := getAdmin(t, admin+path, &body); code != http.StatusOK || body.Status != status {
			t.Errorf("GET %s = %d %q, want 200 %q", path, code, body.Status, status)
		}
	}
	var scrape string
	if code := getAdmin(t, admin+"/metrics", &scrape); code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	series := parseScrape(scrape)
	if v := series[`bst_ops_total{tree="serve",op="insert"}`]; v < n {
		t.Errorf("bst_ops_total insert = %v after %d inserts", v, n)
	}
	if v := series[`bst_op_latency_seconds_count{tree="serve",op="insert"}`]; v == 0 {
		t.Errorf("bst_op_latency_seconds_count insert = 0 after %d inserts on one connection", n)
	}
	if v := series[`bst_server_requests_total{tree="serve"}`]; v == 0 {
		t.Error("bst_server_requests_total = 0 after traffic")
	}
	// One Exact query after writes runs one refresh wave; 2 would mean the
	// order-statistics series reach the scrape twice.
	if v := series[`bst_orderstat_waves_total{tree="serve"}`]; v != 1 {
		t.Errorf("bst_orderstat_waves_total = %v, want 1", v)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.expect(t, "bstserve: final checkpoint written, WAL synced")
	p.expect(t, "bstserve: drained — ")
	if err := p.wait(t); err != nil {
		t.Fatalf("bstserve after SIGTERM: %v\nstderr:\n%s", err, p.stderr.String())
	}

	dur, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dur.Close()
	if rs := dur.RecoveryStats(); rs.SnapshotKeys != uint64(live) || rs.ReplayedOps != 0 {
		t.Errorf("recovered %d snapshot keys + %d WAL ops, want %d + 0 after a clean drain",
			rs.SnapshotKeys, rs.ReplayedOps, live)
	}
	for k, in := range present {
		if dur.Contains(k) != in {
			t.Errorf("reopened store: Contains(%d) = %v, want %v", k, !in, in)
		}
	}
}

// getAdmin GETs url and decodes its body into out: JSON, or the raw text
// when out is a *string.
func getAdmin(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := out.(*string); ok {
		*s = string(b)
	} else if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, b)
	}
	return resp.StatusCode
}

// parseScrape maps each sample of a Prometheus text exposition, keyed by
// its name and label set, to its value.
func parseScrape(text string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil && i > 0 {
			m[line[:i]] = v
		}
	}
	return m
}
