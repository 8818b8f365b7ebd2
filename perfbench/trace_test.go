package main

import (
	"math"
	"strings"
	"testing"
	"time"

	bst "repro"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/wal"
)

// The interfaces the server discovers on a store or an accessor by type
// assertion. A wrapper that lacked one would send the traced run down a
// different server path than the untraced one.
var storeInterfaces = map[string]func(any) bool{
	"server.Store":          func(v any) bool { _, ok := v.(server.Store); return ok },
	"server.AggregateStore": func(v any) bool { _, ok := v.(server.AggregateStore); return ok },
	"LastSeq":               func(v any) bool { _, ok := v.(interface{ LastSeq() uint64 }); return ok },
	"Checkpoint, WALStats, RecoveryStats": func(v any) bool {
		_, ok := v.(interface {
			Checkpoint() (durable.CheckpointStats, error)
			WALStats() wal.Stats
			RecoveryStats() durable.RecoveryStats
		})
		return ok
	},
}

var accessorInterfaces = map[string]func(any) bool{
	"bst.Accessor":                  func(v any) bool { _, ok := v.(bst.Accessor); return ok },
	"TryInsertTicket, DeleteTicket": func(v any) bool { _, ok := v.(ticketAccessor); return ok },
}

func sameInterfaces(t *testing.T, what string, plain, wrapped any, ifaces map[string]func(any) bool) {
	t.Helper()
	for name, has := range ifaces {
		if has(plain) != has(wrapped) {
			t.Errorf("%s: unwrapped satisfies %s = %v, wrapped = %v", what, name, has(plain), has(wrapped))
		}
	}
}

func TestWrappersSatisfyTheSameInterfaces(t *testing.T) {
	d, err := durable.Open(t.TempDir(), durable.Options{TreeOptions: []bst.Option{bst.WithReclamation()}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tr := newTracer()
	ts := &tracedStore{d: d, tr: tr}
	sameInterfaces(t, "durable store", d, ts, storeInterfaces)

	pa, wa := d.NewAccessor(), ts.NewAccessor()
	defer pa.Close()
	defer wa.Close()
	sameInterfaces(t, "durable accessor", pa, wa, accessorInterfaces)
	if !accessorInterfaces["TryInsertTicket, DeleteTicket"](wa) {
		t.Error("wrapped durable accessor lost the ticket methods")
	}

	tree := bst.New(bst.WithReclamation())
	defer tree.Close()
	ta := tree.NewAccessor()
	defer ta.Close()
	sameInterfaces(t, "tree accessor", ta, newTracedAccessor(ta, tr, tr.loadLog(0)), accessorInterfaces)
}

// TestTracedWireLayersAddUp runs a short traced wire-point system and
// checks that the per-call layer times and the unattributed rest add up
// to the mean call time.
func TestTracedWireLayersAddUp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 500K-key store")
	}
	for _, batch := range []bool{false, true} {
		e := &env{seed: 9, data: t.TempDir()}
		s, _, err := openWire(e, batch, true)
		if err != nil {
			t.Fatal(err)
		}
		ws := s.(*wireSys)
		var h Hist
		ws.begin()
		tl, err := ws.run(time.Now().Add(300*time.Millisecond), &h)
		ws.end()
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.verify(); err != nil {
			t.Fatal(err)
		}
		if err := ws.close(); err != nil {
			t.Fatal(err)
		}
		m := metricSet{}
		ws.layers(m, tl)
		parts := m["wire.read_us_per_call"].Value + m["server.residence_us_per_call"].Value +
			m["wire.write_us_per_call"].Value + m["client.unattributed_us_per_call"].Value
		if mean := h.Mean() / 1e3; math.Abs(parts-mean) > 1e-6*mean {
			t.Errorf("batch=%v: layers add up to %.4f us, mean call %.4f us", batch, parts, mean)
		}
		for _, name := range []string{"wire.read_us_per_call", "server.residence_us_per_call", "wire.write_us_per_call",
			"client.unattributed_us_per_call", "durable.store_us_per_call", "server.store_calls_per_call"} {
			if m[name].Value <= 0 {
				t.Errorf("batch=%v: %s = %f, want > 0", batch, name, m[name].Value)
			}
		}
		if !batch && m["server.store_calls_per_call"].Value != 1 {
			t.Errorf("single ops make %f store calls per call, want 1", m["server.store_calls_per_call"].Value)
		}
		var sb strings.Builder
		ws.writeSpans(&sb)
		if !strings.Contains(sb.String(), "conn0\tread\t") || !strings.Contains(sb.String(), "load1\tcall\t") {
			t.Errorf("batch=%v: span dump lacks server reads or client calls:\n%.300s", batch, sb.String())
		}
	}
}
