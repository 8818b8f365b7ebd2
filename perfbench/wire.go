package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	bst "repro"
	"repro/internal/client"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

const (
	wireKeys        = 1_000_000
	wireConns       = 2  // load goroutines, pooled connections, residues
	wireFrame       = 64 // operations per wire-batch frame
	wirePointWarmup = 2500
	wireBatchWarmup = 60
)

// wireInputs returns the checkpoint the wire workloads restore, 500K keys
// of the 1M range drawn from the seed, ascending, with its model.
func (e *env) wireInputs() ([]int64, *keySet) {
	if e.wireKeys == nil {
		keys := shuffled(newRNG(e.seed, streamPrefill), wireKeys)[:wireKeys/2]
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		model := newKeySet(wireKeys)
		for _, k := range keys {
			model.apply(opInsert, k)
		}
		e.wireKeys, e.wireModel = keys, model
	}
	return e.wireKeys, e.wireModel
}

// wireSys is internal/server on loopback in front of internal/durable,
// driven through internal/client by two goroutines that own the even and
// the odd keys.
type wireSys struct {
	batch   bool
	dir     string
	store   *durable.Tree
	srv     *server.Server
	served  chan error
	cl      *client.Client
	workers []*wireWorker

	// traced only
	tr     *tracer
	tree   *treeLayers
	before wireProbe
	delta  wireProbe
}

type wireWorker struct {
	res   *residue
	r     *rng
	kinds []opKind
	keys  []int64
	ops   []client.Op
	eff   effective
	h     Hist
	t     tally
	err   error
	log   *spanLog // traced only: the worker's client calls
}

// wireProbe is the program counters the traced run takes deltas of.
type wireProbe struct {
	cli client.Stats
	srv server.Counters
	wal wal.Stats
}

func openWire(e *env, batch, traced bool) (system, time.Duration, error) {
	keys, model := e.wireInputs()
	dir, err := os.MkdirTemp(e.data, "store-")
	if err != nil {
		return nil, 0, err
	}
	if _, err := snapshot.Write(dir, 0, func(emit func(int64) error) error {
		for _, k := range keys {
			if err := emit(k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}

	start := time.Now()
	opts := []bst.Option{bst.WithReclamation()}
	if traced {
		opts = append(opts, bst.WithMetrics(1))
	}
	d, err := durable.Open(dir, durable.Options{Sync: wal.SyncInterval, TreeOptions: opts})
	if err != nil {
		return nil, 0, err
	}
	s := &wireSys{batch: batch, dir: dir, store: d, served: make(chan error, 1)}
	var store server.Store = d
	if traced {
		s.tr = newTracer()
		store = &tracedStore{d: d, tr: s.tr}
		s.tree = &treeLayers{tree: d.Underlying(), tr: s.tr, counters: s.effective}
	}
	s.srv = server.New(server.Config{Store: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, 0, err
	}
	if traced {
		ln = &tracedListener{Listener: ln, tr: s.tr}
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.cl, err = client.Dial(client.Config{Addr: ln.Addr().String(), Conns: wireConns, Seed: e.seed})
	if err != nil {
		s.close()
		return nil, 0, err
	}
	for i, res := range splitResidues(model, wireKeys, wireConns) {
		w := &wireWorker{res: res, r: newRNG(e.seed, streamLoad+uint64(i))}
		if batch {
			w.kinds, w.keys, w.ops = make([]opKind, wireFrame), make([]int64, wireFrame), make([]client.Op, wireFrame)
		}
		if traced {
			w.log = s.tr.loadLog(i)
		}
		s.workers = append(s.workers, w)
	}
	// Dial the pooled connections one after another, so the i-th accepted
	// connection is the one whose accessor the store creates i-th.
	for i := 0; i < wireConns; i++ {
		if err := s.workers[0].resync(s.cl, s.workers[0].res.key(0)); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("connect: %w", err)
		}
	}
	warm := wirePointWarmup
	if batch {
		warm = wireBatchWarmup
	}
	if _, err := s.drive(time.Time{}, warm, nil); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return s, time.Since(start), nil
}

// effective sums the workers' set-changing mutations.
func (s *wireSys) effective() effective {
	var e effective
	for _, w := range s.workers {
		e.inserts += w.eff.inserts
		e.deletes += w.eff.deletes
	}
	return e
}

func (s *wireSys) run(end time.Time, h *Hist) (tally, error) { return s.drive(end, 0, h) }

// drive runs the load goroutines until end, or for n calls each when n >
// 0, and merges their latencies into h when h is not nil.
func (s *wireSys) drive(end time.Time, n int, h *Hist) (tally, error) {
	var wg sync.WaitGroup
	for _, w := range s.workers {
		w.h.Reset()
		w.t, w.err = tally{}, nil
		wg.Add(1)
		go func(w *wireWorker) {
			defer wg.Done()
			for i := 0; n <= 0 || i < n; i++ {
				var t1 time.Time
				if s.batch {
					t1, w.err = w.frame(s.cl, s.tr)
				} else {
					t1, w.err = w.point(s.cl, s.tr)
				}
				if w.err != nil || (n <= 0 && !t1.Before(end)) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var t tally
	var err error
	for _, w := range s.workers {
		t.add(w.t)
		if h != nil {
			h.Merge(&w.h)
		}
		if err == nil {
			err = w.err
		}
	}
	return t, err
}

// point runs one timed single-op client call and checks it.
func (w *wireWorker) point(cl *client.Client, tr *tracer) (time.Time, error) {
	ctx := context.Background()
	op, k := w.r.mixedOp(), w.res.draw(w.r)
	var got bool
	var err error
	t0 := time.Now()
	switch op {
	case opInsert:
		got, err = cl.Insert(ctx, k)
	case opDelete:
		got, err = cl.Delete(ctx, k)
	default:
		got, err = cl.Lookup(ctx, k)
	}
	t1 := time.Now()
	w.note(tr, t0, t1, 1)
	if err != nil {
		w.t.failed++
		return t1, w.resync(cl, k)
	}
	want := w.res.model.apply(op, w.res.index(k))
	w.eff.note(op, want)
	return t1, checkOutcome(op, k, got, want)
}

var clientOps = [...]func(int64) client.Op{opLookup: client.LookupOp, opInsert: client.InsertOp, opDelete: client.DeleteOp}

// frame runs one timed client.Do of 64 mixed operations and checks every
// slot.
func (w *wireWorker) frame(cl *client.Client, tr *tracer) (time.Time, error) {
	w.res.frameOps(w.r, w.kinds, w.keys)
	for i, k := range w.keys {
		w.ops[i] = clientOps[w.kinds[i]](k)
	}
	t0 := time.Now()
	out, err := cl.Do(context.Background(), w.ops)
	t1 := time.Now()
	w.note(tr, t0, t1, len(w.ops))
	for i, k := range w.keys {
		if err != nil || out[i].Err != nil {
			w.t.failed++
			if rerr := w.resync(cl, k); rerr != nil {
				return t1, rerr
			}
			continue
		}
		want := w.res.model.apply(w.kinds[i], w.res.index(k))
		w.eff.note(w.kinds[i], want)
		if cerr := checkOutcome(w.kinds[i], k, out[i].OK, want); cerr != nil {
			return t1, cerr
		}
	}
	return t1, nil
}

// note records one timed call.
func (w *wireWorker) note(tr *tracer, t0, t1 time.Time, ops int) {
	w.h.Record(uint64(t1.Sub(t0)))
	w.t.calls++
	w.t.ops += uint64(ops)
	if tr != nil {
		tr.record(w.log, spanCall, int64(t0.Sub(tr.base)), int64(t1.Sub(tr.base)), int64(ops))
	}
}

// resync re-reads k after a call that failed, whose outcome is unknown, and
// sets the model to what the store holds.
func (w *wireWorker) resync(cl *client.Client, k int64) error {
	present, err := cl.Lookup(context.Background(), k)
	if err != nil {
		return fmt.Errorf("lookup(%d) to resync the model: %w", k, err)
	}
	i := w.res.index(k)
	if w.res.model.has(i) != present {
		if present {
			w.res.model.apply(opInsert, i)
		} else {
			w.res.model.apply(opDelete, i)
		}
	}
	return nil
}

func (s *wireSys) liveKeys() int {
	n := 0
	for _, w := range s.workers {
		n += w.res.model.n
	}
	return n
}

// verify checks the tree's invariants and that the store holds exactly
// the model's keys.
func (s *wireSys) verify() error {
	t := s.store.Underlying()
	if err := t.Validate(); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	if n := t.Len(); n != s.liveKeys() {
		return fmt.Errorf("store holds %d keys, model %d", n, s.liveKeys())
	}
	var bad error
	t.Ascend(func(k int64) bool {
		res := s.workers[k%wireConns].res
		if !res.model.has(res.index(k)) {
			bad = fmt.Errorf("store holds key %d the model does not", k)
			return false
		}
		return true
	})
	return bad
}

func (s *wireSys) close() error {
	if s.cl != nil {
		s.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	os.RemoveAll(s.dir)
	return err
}

func (s *wireSys) probe() wireProbe {
	return wireProbe{cli: s.cl.Stats(), srv: s.srv.Counters(), wal: s.store.WALStats()}
}

func (s *wireSys) begin() {
	s.before = s.probe()
	s.tree.begin()
}

func (s *wireSys) end() {
	s.tree.end()
	a, b := s.probe(), s.before
	d := &s.delta
	d.cli.Retries += a.cli.Retries - b.cli.Retries
	d.srv.Requests += a.srv.Requests - b.srv.Requests
	d.srv.Shed += a.srv.Shed - b.srv.Shed
	d.wal.Groups += a.wal.Groups - b.wal.Groups
	d.wal.GroupRecords += a.wal.GroupRecords - b.wal.GroupRecords
	for i := range a.wal.FsyncNanos.Buckets {
		d.wal.FsyncNanos.Buckets[i] += a.wal.FsyncNanos.Buckets[i] - b.wal.FsyncNanos.Buckets[i]
	}
	d.wal.FsyncNanos.Count += a.wal.FsyncNanos.Count - b.wal.FsyncNanos.Count
}

// layers splits the mean call into the server's read system calls, its
// residence (read done to response write started), its write system calls
// and the rest, which the client side spends: codec, loopback transit and
// scheduling. Server self time is residence minus the store calls in it.
func (s *wireSys) layers(m metricSet, t tally) {
	conns, loads := s.tr.conns, s.tr.loads
	calls := float64(max(t.calls, 1))
	perCall := func(ns uint64) float64 { return float64(ns) / calls / 1e3 }
	_, callNS := sum(loads, spanCall)
	_, readNS := sum(conns, spanRead)
	writeN, writeNS := sum(conns, spanWrite)
	var storeN, storeNS, residence, bytes uint64
	for k := spanSearch; k <= spanBatch; k++ {
		n, ns := sum(conns, k)
		storeN, storeNS = storeN+n, storeNS+ns
	}
	for _, l := range conns {
		residence += l.residence.Load()
		bytes += l.bytes.Load()
	}
	d := s.delta
	m.layer("client.retries_per_call", float64(d.cli.Retries)/calls)
	m.layer("client.unattributed_us_per_call", perCall(callNS)-perCall(readNS)-perCall(residence)-perCall(writeNS))
	m.layer("wire.read_us_per_call", perCall(readNS))
	m.layer("wire.write_us_per_call", perCall(writeNS))
	m.layer("wire.writes_per_call", float64(writeN)/calls)
	m.layer("wire.bytes_per_op", float64(bytes)/float64(max(t.ops, 1)))
	m.layer("server.residence_us_per_call", perCall(residence))
	m.layer("server.self_us_per_call", perCall(residence)-perCall(storeNS))
	m.layer("server.store_calls_per_call", float64(storeN)/calls)
	m.layer("server.shed_ratio", float64(d.srv.Shed)/float64(max(d.srv.Requests, 1)))
	m.layer("durable.store_us_per_call", perCall(storeNS))
	m.layer("durable.recovery_s", s.store.RecoveryStats().Duration.Seconds())
	m.layer("wal.groups_per_call", float64(d.wal.Groups)/calls)
	m.layer("wal.records_per_group", float64(d.wal.GroupRecords)/float64(max(d.wal.Groups, 1)))
	m.layer("wal.fsync_p50_us", float64(d.wal.FsyncNanos.Quantile(0.5))/1e3)
	s.tree.set(m, t, conns)
	zeroLayers(m, orderstatLayers)
}

func (s *wireSys) writeSpans(w io.Writer) { s.tr.writeSpans(w) }
