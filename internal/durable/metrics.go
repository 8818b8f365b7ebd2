package durable

import "repro/internal/metrics"

// MetricsHook folds the durability subsystem's telemetry into a registry
// snapshot. Register it on the serving registry:
//
//	reg.AddHook(dur.MetricsHook)
//
// Counter names follow the existing export conventions (the renderer adds
// the bst_ prefix); histograms land in ExternalLatency with _seconds
// names and nanosecond buckets (the renderer converts).
func (d *Tree) MetricsHook(s *metrics.Snapshot) {
	st := d.WALStats()
	s.External["wal_append_total"] += st.Appends
	s.External["wal_fsync_total"] += st.Fsyncs
	s.External["wal_group_commits_total"] += st.Groups
	s.External["wal_group_records_total"] += st.GroupRecords
	s.External["wal_bytes_written_total"] += st.BytesWritten
	s.External["wal_rotations_total"] += st.Rotations
	s.External["wal_torn_bytes_truncated_total"] += st.TornTruncated
	s.External["snapshots_total"] += d.snapshots.Load()
	s.External["snapshot_keys_total"] += d.snapshotKeys.Load()
	s.External["recovery_replayed_ops_total"] += d.replayedTotal.Load()

	s.Gauges["wal_last_seq"] = float64(st.LastSeq)
	s.Gauges["wal_durable_seq"] = float64(st.DurableSeq)
	s.Gauges["wal_segments"] = float64(st.Segments)
	// wal_group_size: the live max plus mean-derivable counters above.
	s.Gauges["wal_group_size_max"] = float64(st.MaxGroup)
	s.Gauges["checkpoint_last_wal_seq"] = float64(d.lastCkptSeq.Load())
	s.Gauges["checkpoint_backlog_ops"] = float64(st.LastSeq - d.lastCkptSeq.Load())

	s.AddLatency("wal_fsync_seconds", st.FsyncNanos)
	s.AddLatency("snapshot_duration_seconds", d.snapshotHist.Snapshot())
}
