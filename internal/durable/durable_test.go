package durable

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	bst "repro"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

func openT(t *testing.T, dir string, opts Options) *Tree {
	t.Helper()
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return d
}

// keysOf collects the full key set via the concurrent scan.
func keysOf(d *Tree) []int64 {
	var out []int64
	d.Scan(-1<<62, bst.MaxKey, func(k int64) bool { out = append(out, k); return true })
	return out
}

func TestCleanCloseRecovers(t *testing.T) {
	dir := t.TempDir()
	d := openT(t, dir, Options{Sync: wal.SyncFsync})
	for i := int64(0); i < 100; i++ {
		if !d.Insert(i * 3) {
			t.Fatalf("Insert(%d) = false", i*3)
		}
	}
	if !d.Delete(30) {
		t.Fatal("Delete(30) = false")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d = openT(t, dir, Options{Sync: wal.SyncFsync})
	defer d.Close()
	rs := d.RecoveryStats()
	// Close checkpoints, so recovery is pure snapshot load: 99 keys, no
	// replay.
	if rs.SnapshotKeys != 99 || rs.ReplayedOps != 0 {
		t.Fatalf("RecoveryStats = %+v, want 99 snapshot keys and 0 replayed", rs)
	}
	if d.Len() != 99 || d.Contains(30) || !d.Contains(33) {
		t.Fatalf("state wrong after recovery: len=%d", d.Len())
	}
}

func TestCrashRecoversFromWALAlone(t *testing.T) {
	dir := t.TempDir()
	d := openT(t, dir, Options{Sync: wal.SyncFsync})
	d.Insert(1)
	d.Insert(2)
	d.Delete(1)
	d.Insert(3)
	if err := d.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	d = openT(t, dir, Options{Sync: wal.SyncFsync})
	defer d.Close()
	rs := d.RecoveryStats()
	if rs.SnapshotKeys != 0 || rs.ReplayedOps != 4 {
		t.Fatalf("RecoveryStats = %+v, want 0 snapshot keys and 4 replayed ops", rs)
	}
	if got := keysOf(d); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("recovered keys = %v, want [2 3]", got)
	}
}

func TestSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	d := openT(t, dir, Options{Sync: wal.SyncFsync})
	for i := int64(0); i < 50; i++ {
		d.Insert(i)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Tail: mutations after the horizon, including reversals of
	// checkpointed state.
	d.Delete(10)
	d.Insert(100)
	d.Delete(100)
	d.Insert(101)
	if err := d.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	d = openT(t, dir, Options{Sync: wal.SyncFsync})
	defer d.Close()
	rs := d.RecoveryStats()
	if rs.SnapshotKeys != 50 {
		t.Fatalf("SnapshotKeys = %d, want 50", rs.SnapshotKeys)
	}
	if rs.ReplayedOps != 4 {
		t.Fatalf("ReplayedOps = %d, want 4", rs.ReplayedOps)
	}
	if d.Contains(10) || d.Contains(100) || !d.Contains(101) || !d.Contains(49) {
		t.Fatal("tail replay produced wrong state")
	}
	if d.Len() != 50 { // 50 - delete(10) + insert(101)
		t.Fatalf("Len = %d, want 50", d.Len())
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	d := openT(t, dir, Options{Sync: wal.SyncFsync})
	for i := int64(0); i < 20; i++ {
		d.Insert(i)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	d.Insert(1000)
	if err := d.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	// A corrupt snapshot claiming a newer horizon must be skipped in favor
	// of the valid one.
	bogus := filepath.Join(dir, "snap-00000000ffffffff.bst")
	if err := os.WriteFile(bogus, []byte("BSTSNAP1 this is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	d = openT(t, dir, Options{Sync: wal.SyncFsync})
	defer d.Close()
	rs := d.RecoveryStats()
	if rs.CorruptSnapshots != 1 {
		t.Fatalf("CorruptSnapshots = %d, want 1", rs.CorruptSnapshots)
	}
	if rs.SnapshotKeys != 20 || rs.ReplayedOps != 1 {
		t.Fatalf("RecoveryStats = %+v, want 20 keys + 1 replayed", rs)
	}
	if !d.Contains(1000) || d.Len() != 21 {
		t.Fatalf("fallback recovery wrong: len=%d", d.Len())
	}
}

func TestCheckpointGCsWALSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the workload rotates several times.
	d := openT(t, dir, Options{Sync: wal.SyncFsync, SegmentBytes: 512})
	for i := int64(0); i < 200; i++ {
		d.Insert(i)
	}
	before := d.WALStats().Segments
	if before < 2 {
		t.Fatalf("expected multiple segments, got %d", before)
	}
	stats, err := d.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if stats.SegmentsGC == 0 {
		t.Fatal("checkpoint GC'd no WAL segments")
	}
	if after := d.WALStats().Segments; after >= before {
		t.Fatalf("segments did not shrink: %d → %d", before, after)
	}
	// Two checkpoints: the second supersedes the first's snapshot.
	d.Insert(1000)
	stats2, err := d.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	if stats2.SnapshotsGC == 0 {
		t.Fatal("second checkpoint did not GC the first snapshot")
	}
	snaps, _ := snapshot.List(dir)
	if len(snaps) != 1 {
		t.Fatalf("want exactly 1 snapshot after GC, got %d", len(snaps))
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// And the GC'd log still recovers correctly (seq floor prevents reuse).
	d = openT(t, dir, Options{Sync: wal.SyncFsync})
	defer d.Close()
	if d.Len() != 201 {
		t.Fatalf("Len after GC+recover = %d, want 201", d.Len())
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := openT(t, dir, Options{Sync: wal.SyncNone, CheckpointEvery: 100})
	for i := int64(0); i < 350; i++ {
		d.Insert(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.snapshots.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic checkpoint within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestBatchDurability(t *testing.T) {
	dir := t.TempDir()
	d := openT(t, dir, Options{Sync: wal.SyncFsync})
	acc := d.NewAccessor()
	keys := make([]int64, 500)
	out := make([]bst.OpResult, len(keys))
	for i := range keys {
		keys[i] = int64(i)
	}
	acc.InsertBatch(keys, out)
	for i := range out {
		if out[i].Err != nil || !out[i].OK {
			t.Fatalf("InsertBatch[%d] = %+v", i, out[i])
		}
	}
	// Second insert of the same keys: no slot changes the set, nothing new
	// must be logged.
	logged := d.WALStats().Appends
	acc.InsertBatch(keys, out)
	for i := range out {
		if out[i].Err != nil || out[i].OK {
			t.Fatalf("re-InsertBatch[%d] = %+v, want OK=false", i, out[i])
		}
	}
	if got := d.WALStats().Appends; got != logged {
		t.Fatalf("idempotent batch logged %d new records", got-logged)
	}
	acc.DeleteBatch(keys[:100], out[:100])
	if err := acc.Close(); err != nil {
		t.Fatalf("acc.Close: %v", err)
	}
	if err := d.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	d = openT(t, dir, Options{Sync: wal.SyncFsync})
	defer d.Close()
	if d.Len() != 400 || d.Contains(50) || !d.Contains(450) {
		t.Fatalf("batch recovery wrong: len=%d", d.Len())
	}
}

// TestConcurrentMixedWorkloadRecovers hammers one key range from many
// goroutines (singles and batches, inserts and deletes), then crashes and
// verifies the recovered state matches the tree's final pre-crash state —
// the per-key stripe ordering guarantee, under the race detector.
func TestConcurrentMixedWorkloadRecovers(t *testing.T) {
	dir := t.TempDir()
	d := openT(t, dir, Options{Sync: wal.SyncFsync})
	const (
		workers = 8
		iters   = 150
		keySpan = 64 // small: force same-key contention
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := d.NewAccessor()
			defer acc.Close()
			keys := make([]int64, 8)
			out := make([]bst.OpResult, 8)
			for i := 0; i < iters; i++ {
				k := int64((w*31 + i*17) % keySpan)
				switch i % 4 {
				case 0:
					acc.Insert(k)
				case 1:
					acc.Delete(k)
				case 2:
					for j := range keys {
						keys[j] = int64((w + i + j) % keySpan)
					}
					acc.InsertBatch(keys, out)
				default:
					for j := range keys {
						keys[j] = int64((w + i + j*3) % keySpan)
					}
					acc.DeleteBatch(keys, out)
				}
			}
		}(w)
	}
	wg.Wait()
	want := keysOf(d)
	if err := d.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	d = openT(t, dir, Options{Sync: wal.SyncFsync})
	defer d.Close()
	got := keysOf(d)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBulkLoadBalancedShapes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1023, 1024, 1025, 5000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(i * 2)
			}
			tree := bst.New()
			defer tree.Close()
			if err := bulkLoadBalanced(tree, keys); err != nil {
				t.Fatalf("bulkLoadBalanced: %v", err)
			}
			if tree.Len() != n {
				t.Fatalf("Len = %d, want %d", tree.Len(), n)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			i := 0
			tree.Ascend(func(k int64) bool {
				if k != int64(i*2) {
					t.Fatalf("key %d = %d, want %d", i, k, i*2)
				}
				i++
				return true
			})
		})
	}
}

func TestMetricsHook(t *testing.T) {
	dir := t.TempDir()
	d := openT(t, dir, Options{Sync: wal.SyncFsync})
	defer d.Close()
	for i := int64(0); i < 10; i++ {
		d.Insert(i)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	reg := metrics.NewRegistry(0)
	reg.AddHook(d.MetricsHook)
	s := reg.Snapshot()
	if s.External["wal_append_total"] != 10 {
		t.Fatalf("wal_append_total = %d, want 10", s.External["wal_append_total"])
	}
	if s.External["wal_fsync_total"] == 0 {
		t.Fatal("wal_fsync_total = 0")
	}
	if s.External["snapshots_total"] != 1 || s.External["snapshot_keys_total"] != 10 {
		t.Fatalf("snapshot counters wrong: %v", s.External)
	}
	if s.ExternalLatency["wal_fsync_seconds"].Count == 0 {
		t.Fatal("wal_fsync_seconds histogram empty")
	}
	if s.ExternalLatency["snapshot_duration_seconds"].Count != 1 {
		t.Fatal("snapshot_duration_seconds histogram missing the checkpoint")
	}
	if s.Gauges["wal_last_seq"] != 10 || s.Gauges["checkpoint_backlog_ops"] != 0 {
		t.Fatalf("gauges wrong: %v", s.Gauges)
	}
}

// TestMetricsHookSeries pins every series MetricsHook exports, by kind, on
// a one-shard and a four-shard store, so a renamed or dropped series fails
// here before a dashboard notices.
func TestMetricsHookSeries(t *testing.T) {
	counters := []string{
		"recovery_replayed_ops_total", "snapshot_keys_total", "snapshots_total",
		"wal_append_total", "wal_bytes_written_total", "wal_fsync_total",
		"wal_group_commits_total", "wal_group_records_total",
		"wal_rotations_total", "wal_torn_bytes_truncated_total",
	}
	gauges := []string{
		"checkpoint_backlog_ops", "checkpoint_last_wal_seq", "wal_durable_seq",
		"wal_group_size_max", "wal_last_seq", "wal_segments",
	}
	histograms := []string{"snapshot_duration_seconds", "wal_fsync_seconds"}
	for _, shards := range []int{1, 4} {
		d := openT(t, t.TempDir(), Options{Sync: wal.SyncNone,
			TreeOptions: []bst.Option{bst.WithShards(shards)}})
		s := metrics.Snapshot{External: map[string]uint64{}, Gauges: map[string]float64{},
			ExternalLatency: map[string]metrics.LatencySnapshot{}}
		d.MetricsHook(&s)
		for _, kind := range []struct {
			name      string
			got, want []string
		}{
			{"counters", slices.Sorted(maps.Keys(s.External)), counters},
			{"gauges", slices.Sorted(maps.Keys(s.Gauges)), gauges},
			{"histograms", slices.Sorted(maps.Keys(s.ExternalLatency)), histograms},
		} {
			if !slices.Equal(kind.got, kind.want) {
				t.Errorf("shards=%d %s = %v, want %v", shards, kind.name, kind.got, kind.want)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpsAfterCloseFail(t *testing.T) {
	dir := t.TempDir()
	d := openT(t, dir, Options{Sync: wal.SyncNone})
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); !errors.Is(err, errClosed) {
		t.Fatalf("second Close = %v, want errClosed", err)
	}
	if _, err := d.Checkpoint(); !errors.Is(err, errClosed) {
		t.Fatalf("Checkpoint after Close = %v, want errClosed", err)
	}
}

// TestTryInsertOutOfRange: a key above MaxKey answers ErrKeyOutOfRange and
// logs nothing, on one shard and on a forest, through the Tree and through
// an accessor (single op and batch slot) — routing never panics on it.
func TestTryInsertOutOfRange(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := openT(t, t.TempDir(), Options{Sync: wal.SyncNone,
				TreeOptions: []bst.Option{bst.WithShards(shards)}})
			defer d.Close()
			if _, err := d.TryInsert(bst.MaxKey + 1); !errors.Is(err, bst.ErrKeyOutOfRange) {
				t.Fatalf("TryInsert(MaxKey+1) = %v, want ErrKeyOutOfRange", err)
			}
			acc := d.NewAccessor()
			defer acc.Close()
			if _, err := acc.TryInsert(bst.MaxKey + 1); !errors.Is(err, bst.ErrKeyOutOfRange) {
				t.Fatalf("accessor TryInsert(MaxKey+1) = %v, want ErrKeyOutOfRange", err)
			}
			out := make([]bst.OpResult, 2)
			acc.InsertBatch([]int64{bst.MaxKey + 1, 7}, out)
			if !errors.Is(out[0].Err, bst.ErrKeyOutOfRange) || !out[1].OK {
				t.Fatalf("InsertBatch = %+v, want slot 0 ErrKeyOutOfRange and slot 1 inserted", out)
			}
			if got := d.WALStats().Appends; got != 1 {
				t.Fatalf("%d records logged, want only the in-range insert's", got)
			}
		})
	}
}

// TestPanicsReleaseTheStripe: the panicking Insert and Delete panic only
// after their key's stripe is released, so recovering the panic leaves no
// later write on that stripe blocked. Three triggers: an out-of-range
// Delete on the Tree and on an accessor, and an Insert into a full arena.
func TestPanicsReleaseTheStripe(t *testing.T) {
	check := func(t *testing.T, d *Tree, key int64, op func()) {
		t.Helper()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for key %d", key)
				}
			}()
			op()
		}()
		next := int64(0)
		for next == key || stripeOf(next) != stripeOf(key) {
			next++
		}
		done := make(chan struct{})
		go func() {
			d.TryInsert(next)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("TryInsert(%d) on the stripe of the panicked key %d still blocked after 2s", next, key)
		}
	}
	t.Run("Tree.Delete", func(t *testing.T) {
		d := openT(t, t.TempDir(), Options{Sync: wal.SyncNone})
		defer d.Close()
		check(t, d, bst.MaxKey+1, func() { d.Delete(bst.MaxKey + 1) })
	})
	t.Run("Accessor.Delete", func(t *testing.T) {
		d := openT(t, t.TempDir(), Options{Sync: wal.SyncNone})
		defer d.Close()
		acc := d.NewAccessor()
		defer acc.Close()
		check(t, d, bst.MaxKey+1, func() { acc.Delete(bst.MaxKey + 1) })
	})
	t.Run("Tree.Insert at capacity", func(t *testing.T) {
		d := openT(t, t.TempDir(), Options{Sync: wal.SyncNone,
			TreeOptions: []bst.Option{bst.WithCapacity(64)}})
		defer d.Close()
		k := int64(0)
		for ; ; k++ {
			if _, err := d.TryInsert(k); errors.Is(err, bst.ErrCapacity) {
				break
			} else if err != nil {
				t.Fatalf("TryInsert(%d): %v", k, err)
			}
		}
		check(t, d, k, func() { d.Insert(k) })
	})
}
