package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/wal"
)

// durableStore is the extra surface a durability-wrapped store exposes;
// durable.Tree implements it. Checked by type assertion so a plain
// in-memory *bst.Tree still serves unchanged.
type durableStore interface {
	Checkpoint() (durable.CheckpointStats, error)
	WALStats() wal.Stats
	RecoveryStats() durable.RecoveryStats
}

// AdminHandler returns the server's operational HTTP surface:
//
//	GET /healthz     liveness — 200 while the process serves at all
//	                 (including during drain), with a tree-health body
//	GET /readyz      readiness — 200 only when the server is accepting
//	                 and should receive traffic; 503 while draining,
//	                 closed, or when reclamation is stalled
//	GET /metrics     Prometheus exposition of Config.Metrics: the
//	                 server_* counters (shed, timeouts, drains, ...) plus
//	                 whatever its owner's hooks add — the tree's
//	                 contention series only if the owner folds them in
//	GET /debug/vars  the same snapshot as expvar-style JSON
//	POST /checkpoint force a durability checkpoint now (404 when the
//	                 store has no durability layer)
//
// Serve it on a side listener, separate from the data port, so health
// checks and scrapes are never subject to the data plane's admission
// control.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	metricsH := metrics.Handler(func() []metrics.Source {
		return []metrics.Source{{Name: "serve", Registry: s.reg}}
	})
	mux.Handle("/metrics", metricsH)
	mux.Handle("/debug/vars", metricsH)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeHealth(w, http.StatusOK, "ok", s)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Ready(); err != nil {
			writeHealth(w, http.StatusServiceUnavailable, err.Error(), s)
			return
		}
		writeHealth(w, http.StatusOK, "ready", s)
	})
	mux.HandleFunc("/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		ds, ok := s.cfg.Store.(durableStore)
		if !ok {
			http.Error(w, "store has no durability layer", http.StatusNotFound)
			return
		}
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		stats, err := ds.Checkpoint()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"wal_seq":         stats.WALSeq,
			"keys":            stats.Keys,
			"bytes":           stats.Bytes,
			"duration":        stats.Duration.String(),
			"snapshots_gc":    stats.SnapshotsGC,
			"wal_segments_gc": stats.SegmentsGC,
		})
	})
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		cl := s.cfg.Cluster
		if cl == nil {
			http.Error(w, "not part of a replication cluster", http.StatusNotFound)
			return
		}
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		term, err := cl.Promote()
		if err != nil {
			// Promoting a leader is idempotent from the operator's view:
			// report the current state with a conflict code rather than
			// flapping.
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(map[string]any{
				"error": err.Error(),
				"term":  term,
			})
			return
		}
		s.log.Info("promoted to leader", "term", term)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"role":   "leader",
			"term":   term,
			"leader": cl.LeaderAddr(),
		})
	})
	if rec := s.cfg.Trace; rec != nil {
		// Flight-recorder exports: raw span/slow-op JSON, and the same
		// spans as Chrome trace events (load in about://tracing, Perfetto).
		mux.HandleFunc("/debug/rtrace", rec.ServeJSON)
		mux.HandleFunc("/debug/rtrace/chrome", rec.ServeChrome)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "bstserve admin: /healthz /readyz /metrics /debug/vars /checkpoint /promote /debug/rtrace")
	})
	return mux
}

// Ready reports whether the server should receive new traffic: nil when
// accepting, an explanatory error while draining or closed, and an error
// when the tree's reclamation is visibly wedged (a stalled reader freezing
// a growing retired backlog) — the one tree condition a load balancer
// should route away from before it becomes arena exhaustion.
func (s *Server) Ready() error {
	if s.closed.Load() {
		return fmt.Errorf("closed")
	}
	if s.draining.Load() {
		return fmt.Errorf("draining")
	}
	h := s.cfg.Store.Health()
	if h.StalledSlots > 0 && h.RetiredBacklog > 0 {
		return fmt.Errorf("reclamation stalled: %d slot(s) pinning the epoch, %d nodes backlogged",
			h.StalledSlots, h.RetiredBacklog)
	}
	// A follower whose heartbeat lease has lapsed is serving reads of
	// unknown staleness — a load balancer should route somewhere fresher
	// until it reconnects (or is promoted). During an automatic election
	// the state ("candidate", "holding_off") names why.
	if cl := s.cfg.Cluster; cl != nil {
		if st := cl.Status(); st.LeaseExpired {
			if st.ElectionState != "following" {
				return fmt.Errorf("follower lease expired (election state %s): leader unheard, applied_seq %d", st.ElectionState, st.AppliedSeq)
			}
			return fmt.Errorf("follower lease expired: leader unheard, applied_seq %d", st.AppliedSeq)
		}
	}
	return nil
}

// healthBody is the JSON document both health endpoints serve.
type healthBody struct {
	Status     string            `json:"status"`
	Draining   bool              `json:"draining"`
	Counters   Counters          `json:"counters"`
	Tree       treeHealth        `json:"tree"`
	Durability *durabilityHealth `json:"durability,omitempty"`
	Cluster    *repl.Status      `json:"cluster,omitempty"`
}

// durabilityHealth summarizes the WAL's progress for operators: how far
// acks have advanced (last_seq), how far durability has (durable_seq), and
// how much log a crash would replay (backlog since the last checkpoint).
type durabilityHealth struct {
	WALLastSeq    uint64 `json:"wal_last_seq"`
	WALDurableSeq uint64 `json:"wal_durable_seq"`
	WALSegments   int    `json:"wal_segments"`
	ReplayedOps   uint64 `json:"recovery_replayed_ops"`
	SnapshotKeys  uint64 `json:"recovery_snapshot_keys"`
}

type treeHealth struct {
	Capacity       int    `json:"capacity_nodes"`
	Allocated      uint64 `json:"allocated_nodes"`
	Recycled       uint64 `json:"recycled_nodes"`
	Reclaim        bool   `json:"reclaim_enabled"`
	StalledSlots   int    `json:"stalled_slots"`
	RetiredBacklog int    `json:"retired_backlog_nodes"`
}

func writeHealth(w http.ResponseWriter, code int, status string, s *Server) {
	h := s.cfg.Store.Health()
	body := healthBody{
		Status:   status,
		Draining: s.draining.Load(),
		Counters: s.Counters(),
		Tree: treeHealth{
			Capacity:       h.Capacity,
			Allocated:      h.NodesAllocated,
			Recycled:       h.NodesRecycled,
			Reclaim:        h.ReclaimEnabled,
			StalledSlots:   h.StalledSlots,
			RetiredBacklog: h.RetiredBacklog,
		},
	}
	if ds, ok := s.cfg.Store.(durableStore); ok {
		ws := ds.WALStats()
		rs := ds.RecoveryStats()
		body.Durability = &durabilityHealth{
			WALLastSeq:    ws.LastSeq,
			WALDurableSeq: ws.DurableSeq,
			WALSegments:   ws.Segments,
			ReplayedOps:   rs.ReplayedOps,
			SnapshotKeys:  rs.SnapshotKeys,
		}
	}
	if cl := s.cfg.Cluster; cl != nil {
		st := cl.Status()
		body.Cluster = &st
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}
