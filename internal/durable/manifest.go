package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/snapshot"
)

// manifestName is the forest manifest file, at the top of a sharded data
// directory. Its real job is refusing a reopen whose routing disagrees
// with the data on disk: a key's WAL records all live in ONE lane, and
// replay applies lanes independently — reopening with a different shard
// count (or routing range) would split a key's history across lanes and
// break per-key replay order. The manifest pins shards + per-shard bounds
// at first open and every later open must match exactly.
const manifestName = "FOREST"

// manifestVersion is bumped on incompatible layout changes.
const manifestVersion = 1

// forestManifest is the persisted sharding contract plus the last
// checkpoint's per-lane horizons (informational — each lane's snapshot
// carries its own authoritative horizon).
type forestManifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	// BoundHi[i] is the inclusive upper user key routed to shard i; with
	// the shard count this pins the whole routing function.
	BoundHi []int64 `json:"bound_hi"`
	// CheckpointSeqs[i] is lane i's horizon at the last completed
	// checkpoint (all zero before the first).
	CheckpointSeqs []uint64 `json:"checkpoint_seqs,omitempty"`
}

func manifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// shardDir is lane i's subdirectory (its WAL segments and snapshots) in a
// sharded store.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// laneDir is lane i's directory in a store of n lanes: the data directory
// itself for one lane, its shard-NNN subdirectory otherwise.
func laneDir(dir string, i, n int) string {
	if n == 1 {
		return dir
	}
	return shardDir(dir, i)
}

// loadManifest reads dir's manifest; ok is false when none exists.
func loadManifest(dir string) (m forestManifest, ok bool, err error) {
	b, err := os.ReadFile(manifestPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return m, false, nil
	}
	if err != nil {
		return m, false, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, false, fmt.Errorf("durable: corrupt forest manifest %s: %w", manifestPath(dir), err)
	}
	return m, true, nil
}

// writeManifest publishes m atomically: tmp file, fsync, rename over the
// final name, fsync the directory — the same publish protocol as
// snapshots, so a crash mid-write leaves either the old manifest or the
// new one, never a torn file.
func writeManifest(dir string, m forestManifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(dir, manifestName+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, manifestPath(dir)); err != nil {
		return err
	}
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}

// checkLayout validates dir against the requested shard count n (the
// tree's effective count) and, for a forest, creates or verifies the
// manifest. bounds must hold the tree's per-shard inclusive upper keys.
func checkLayout(dir string, n int, bounds []int64) (forestManifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return forestManifest{}, err
	}
	m, ok, err := loadManifest(dir)
	if err != nil {
		return forestManifest{}, err
	}
	if n == 1 {
		if ok {
			return forestManifest{}, fmt.Errorf("durable: %s is a sharded store (%d shards); open it with the same shard count", dir, m.Shards)
		}
		return forestManifest{}, nil
	}
	if !ok {
		// First sharded open. Refuse a directory already holding an
		// unsharded store's data: silently resharding it would strand that
		// history outside every lane.
		if snaps, err := snapshot.List(dir); err != nil {
			return forestManifest{}, err
		} else if len(snaps) > 0 {
			return forestManifest{}, fmt.Errorf("durable: %s holds an unsharded store's snapshots; cannot open sharded", dir)
		}
		if ents, err := os.ReadDir(dir); err != nil {
			return forestManifest{}, err
		} else {
			for _, e := range ents {
				if !e.IsDir() && filepath.Ext(e.Name()) == ".log" {
					return forestManifest{}, fmt.Errorf("durable: %s holds an unsharded store's WAL; cannot open sharded", dir)
				}
			}
		}
		m = forestManifest{Version: manifestVersion, Shards: n, BoundHi: append([]int64(nil), bounds...)}
		if err := writeManifest(dir, m); err != nil {
			return forestManifest{}, fmt.Errorf("durable: writing forest manifest: %w", err)
		}
		return m, nil
	}
	if m.Version != manifestVersion {
		return forestManifest{}, fmt.Errorf("durable: forest manifest version %d (want %d)", m.Version, manifestVersion)
	}
	if m.Shards != n {
		return forestManifest{}, fmt.Errorf("durable: store has %d shards, tree configured with %d — shard count is fixed at creation", m.Shards, n)
	}
	if len(m.BoundHi) != len(bounds) {
		return forestManifest{}, fmt.Errorf("durable: forest manifest has %d shard bounds, tree has %d", len(m.BoundHi), len(bounds))
	}
	for i := range bounds {
		if m.BoundHi[i] != bounds[i] {
			return forestManifest{}, fmt.Errorf("durable: shard %d routing bound changed (%d on disk, %d configured) — the shard range is fixed at creation", i, m.BoundHi[i], bounds[i])
		}
	}
	return m, nil
}
