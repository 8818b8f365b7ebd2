package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	bst "repro"
	"repro/internal/client"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/wal"
)

// The -crash round is the durability gate. It runs two phases:
//
// Phase A (kill -9): the process re-execs itself as a durable bstserve
// child (-sync fsync) on a temp data dir, hammers it over the wire from
// workers on disjoint key ranges while recording exactly which mutations
// were acknowledged, SIGKILLs the child mid-flight, then reopens the data
// dir in-process and audits the recovered set:
//
//   - every acked insert (not later acked-deleted) must be present,
//   - every acked delete must have stuck,
//   - the single op each worker had in flight when the connection died
//     may have landed either way,
//   - and a full Scan must show no ghost keys — nothing the workers never
//     asked for, and nothing that was never acknowledged and not in
//     flight.
//
// Phase B (recovery clock): builds a 1M-key store, checkpoints, appends a
// 100k-op WAL tail, crashes without fsync, and times the reopen — the
// snapshot bulk-load plus tail replay must finish inside
// recoveryBudget, and the measured time is printed for the CI log.

// shardTreeOpts returns the TreeOptions for an n-sharded store routing the
// key range [0, rangeHi]; n <= 1 means the classic unsharded store. Every
// open of the same data dir must pass the same options — the forest
// manifest refuses a mismatched reopen.
func shardTreeOpts(n int, rangeHi int64) []bst.Option {
	if n <= 1 {
		return nil
	}
	return []bst.Option{bst.WithShards(n), bst.WithShardRange(0, rangeHi)}
}

// runCrashChild is the re-exec'd server side of phase A: a durable
// fsync-on-ack store behind the full server stack. It writes its data
// address to addrFile and then parks forever — the parent's SIGKILL is
// the only way out, which is the point.
func runCrashChild(dir, addrFile string, shards int, rangeHi int64) int {
	// CheckpointEvery is set low so the kill usually lands with snapshots
	// already cut mid-load — recovery then exercises snapshot bulk-load
	// plus tail replay, and the atomic-rename publish races the SIGKILL.
	dur, err := durable.Open(dir, durable.Options{
		Sync: wal.SyncFsync, CheckpointEvery: 1000,
		TreeOptions: shardTreeOpts(shards, rangeHi),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash-child:", err)
		return 1
	}
	srv := server.New(server.Config{Store: dur, MaxInFlight: 64})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		fmt.Fprintln(os.Stderr, "crash-child:", err)
		return 1
	}
	if err := os.WriteFile(addrFile, []byte(srv.Addr().String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "crash-child:", err)
		return 1
	}
	select {}
}

// crashWorker is one parent-side load generator's ledger. Keys are drawn
// from a per-worker range no other worker touches, so post-crash
// accounting needs no cross-worker reconciliation.
type crashWorker struct {
	ackedIns []int64 // inserts acknowledged (true, nil) over the wire
	ackedDel []int64 // deletes acknowledged (true, nil) over the wire
	inflight []int64 // keys whose op errored mid-flight: either outcome is legal
	err      error   // a semantic violation observed before the kill
}

// disjointBase is worker w's first key: (w+1)<<32, clear of the seeded
// keys and of every other worker's range.
func disjointBase(w int) int64 { return int64(w+1) << 32 }

// ledgerLoad is the load of every durability round: workers hammer addr
// until stop closes (nil: never) or their connection dies, each recording
// exactly which of its mutations were acknowledged. One connection, one
// attempt, sequential ops: at any instant a worker has at most one op in
// flight, so the "either way" set stays tight. Retries are off because a
// retried insert that already landed would come back (false, nil) — an
// ack that does NOT imply the first attempt's WAL record was fsynced,
// which would poison the audit. Worker w draws fresh keys upward from
// base(w) (ranges must be disjoint) and every 4th op deletes one of its
// acked inserts. Transport errors land the key in the in-flight set; only
// protocol violations set r.err.
func ledgerLoad(addr string, workers int, seed uint64, base func(w int) int64, stop <-chan struct{}) []crashWorker {
	results := make([]crashWorker, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			cl, err := client.Dial(client.Config{
				Addr: addr, Conns: 1, MaxAttempts: 1, Seed: int64(seed)*1000 + int64(w),
			})
			if err != nil {
				r.err = err
				return
			}
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			next := base(w)
			delCursor := 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%4 == 3 && delCursor < len(r.ackedIns) {
					k := r.ackedIns[delCursor]
					ok, err := cl.Delete(ctx, k)
					if err != nil {
						r.inflight = append(r.inflight, k)
						return
					}
					if !ok {
						r.err = fmt.Errorf("Delete(%d) of an acked key = false", k)
						return
					}
					r.ackedDel = append(r.ackedDel, k)
					delCursor++
					continue
				}
				k := next
				next++
				ok, err := cl.Insert(ctx, k)
				if err != nil {
					r.inflight = append(r.inflight, k)
					return
				}
				if !ok {
					r.err = fmt.Errorf("Insert(%d) of a fresh key = false", k)
					return
				}
				r.ackedIns = append(r.ackedIns, k)
			}
		}(w)
	}
	wg.Wait()
	return results
}

// tally counts a load phase's acknowledged and in-flight ops. A worker's
// protocol violation, or a phase that acked nothing (and so proves
// nothing), is an error.
func tally(results []crashWorker, phase string) (acked, inflight int, err error) {
	for w := range results {
		r := &results[w]
		if r.err != nil {
			return 0, 0, fmt.Errorf("%s worker %d: %v", phase, w, r.err)
		}
		acked += len(r.ackedIns) + len(r.ackedDel)
		inflight += len(r.inflight)
	}
	if acked == 0 {
		return 0, 0, fmt.Errorf("%s acked nothing; round is inconclusive", phase)
	}
	return acked, inflight, nil
}

func crashRound(workers, shards int, seed uint64) error {
	dir, err := os.MkdirTemp("", "bst-crash-data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addrDir, err := os.MkdirTemp("", "bst-crash-addr-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(addrDir)
	addrFile := filepath.Join(addrDir, "addr")

	// With shards > 1, route exactly the workers' disjoint key ranges
	// (worker w draws from (w+1)<<32 upward): the range split then spreads
	// the workers across shards, so the kill lands with records in several
	// WAL lanes and recovery actually exercises parallel lane replay.
	rangeHi := (int64(workers) + 2) << 32
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-crash-child", "-crash-data", dir, "-crash-addr-file", addrFile,
		"-crash-shards", fmt.Sprint(shards), "-crash-range-hi", fmt.Sprint(rangeHi))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn child: %w", err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	var addr string
	for waitUntil := time.Now().Add(15 * time.Second); ; {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = string(b)
			break
		}
		if time.Now().After(waitUntil) {
			return fmt.Errorf("child never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Drive load until the kill.
	load := make(chan []crashWorker, 1)
	go func() { load <- ledgerLoad(addr, workers, seed, disjointBase, nil) }()
	time.Sleep(500 * time.Millisecond)
	cmd.Process.Kill() // SIGKILL: no drain, no final fsync, no checkpoint
	cmd.Wait()
	killed = true
	results := <-load
	totalAcked, inflight, err := tally(results, "pre-kill load")
	if err != nil {
		return err
	}

	// Recover in-process and audit against the ledgers.
	start := time.Now()
	dur, err := durable.Open(dir, durable.Options{
		Sync: wal.SyncFsync, TreeOptions: shardTreeOpts(shards, rangeHi),
	})
	if err != nil {
		return fmt.Errorf("recovery after kill -9: %w", err)
	}
	defer dur.Close()
	rs := dur.RecoveryStats()

	mustPresent := map[int64]bool{}
	mayEither := map[int64]bool{}
	for w := range results {
		r := &results[w]
		for _, k := range r.ackedIns {
			mustPresent[k] = true
		}
		for _, k := range r.ackedDel {
			delete(mustPresent, k)
			if dur.Contains(k) {
				return fmt.Errorf("key %d: delete was acked before the kill but the key came back", k)
			}
		}
		for _, k := range r.inflight {
			delete(mustPresent, k)
			mayEither[k] = true
		}
	}
	for k := range mustPresent {
		if !dur.Contains(k) {
			return fmt.Errorf("key %d: insert was acked (fsync policy) before kill -9 but is gone after recovery", k)
		}
	}
	ghosts := 0
	dur.Scan(-1<<62, 1<<62, func(k int64) bool {
		if !mustPresent[k] && !mayEither[k] {
			ghosts++
			if ghosts == 1 {
				err = fmt.Errorf("ghost key %d present after recovery: never acknowledged and not in flight", k)
			}
		}
		return true
	})
	if ghosts > 0 {
		return err
	}

	if got := dur.Shards(); got != max(shards, 1) {
		return fmt.Errorf("recovered store has %d WAL lanes, want %d", got, max(shards, 1))
	}
	fmt.Printf("crash phase A: kill -9 with %d acked ops (%d in flight, %d WAL lanes) — 100%% of acked mutations present, "+
		"0 ghosts; recovered %d snapshot keys + %d WAL ops in %v\n",
		totalAcked, inflight, dur.Shards(), rs.SnapshotKeys, rs.ReplayedOps, time.Since(start).Round(time.Millisecond))
	return recoveryClock(seed, shards)
}

// recoveryClock is phase B: bound the time to come back from a crash with
// a large snapshot and a long WAL tail.
const (
	recoveryBudget = 10 * time.Second
	snapKeys       = 1_000_000
	tailOps        = 100_000
)

func recoveryClock(seed uint64, shards int) error {
	dir, err := os.MkdirTemp("", "bst-crash-clock-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// With shards > 1 the keys spread evenly across lanes (the routed range
	// is exactly the key set), so the timed reopen measures parallel lane
	// replay.
	clockOpts := shardTreeOpts(shards, snapKeys+tailOps)
	if err := seedStore(dir, seed, snapKeys, tailOps, clockOpts...); err != nil {
		return err
	}

	start := time.Now()
	dur2, err := durable.Open(dir, durable.Options{Sync: wal.SyncFsync, TreeOptions: clockOpts})
	if err != nil {
		return fmt.Errorf("timed recovery: %w", err)
	}
	elapsed := time.Since(start)
	defer dur2.Close()

	rs := dur2.RecoveryStats()
	if rs.SnapshotKeys != snapKeys || rs.ReplayedOps != tailOps {
		return fmt.Errorf("recovery shape: %d snapshot keys + %d replayed, want %d + %d",
			rs.SnapshotKeys, rs.ReplayedOps, snapKeys, tailOps)
	}
	if got := dur2.Len(); got != snapKeys+tailOps {
		return fmt.Errorf("recovered Len = %d, want %d", got, snapKeys+tailOps)
	}
	for _, k := range []int64{0, snapKeys - 1, snapKeys, snapKeys + tailOps - 1} {
		if !dur2.Contains(k) {
			return fmt.Errorf("recovered store missing key %d", k)
		}
	}
	fmt.Printf("crash phase B: recovered %d-key snapshot + %d-op WAL tail (%d lanes) in %v (budget %v)\n",
		snapKeys, tailOps, dur2.Shards(), elapsed.Round(time.Millisecond), recoveryBudget)
	if elapsed > recoveryBudget {
		return fmt.Errorf("recovery took %v, over the %v budget", elapsed, recoveryBudget)
	}
	return nil
}

// seedStore builds a durable store in dir that a later open must recover:
// the keys 0..snap+tail-1 inserted shuffled (sequential inserts would
// spine the live tree), a checkpoint once snap of them are in, then the
// tail that only the WAL holds, ended with a dirty close. sync=none keeps
// the build fast; the records still reach the file through the flusher
// before Crash returns. opts are the store's TreeOptions, which every later
// open of dir must repeat.
func seedStore(dir string, seed uint64, snap, tail int, opts ...bst.Option) error {
	dur, err := durable.Open(dir, durable.Options{Sync: wal.SyncNone, TreeOptions: opts})
	if err != nil {
		return err
	}
	keys := make([]int64, snap+tail)
	for i := range keys {
		keys[i] = int64(i)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	acc := dur.NewAccessor()
	insertAll := func(ks []int64) error {
		out := make([]bst.OpResult, 4096)
		for len(ks) > 0 {
			n := min(len(ks), 4096)
			acc.InsertBatch(ks[:n], out[:n])
			for i := 0; i < n; i++ {
				if out[i].Err != nil || !out[i].OK {
					return fmt.Errorf("seed InsertBatch(%d) = %+v", ks[i], out[i])
				}
			}
			ks = ks[n:]
		}
		return nil
	}
	err = insertAll(keys[:snap])
	if err == nil {
		var ck durable.CheckpointStats
		if ck, err = dur.Checkpoint(); err != nil {
			err = fmt.Errorf("seed checkpoint: %w", err)
		} else if ck.Keys != uint64(snap) {
			err = fmt.Errorf("seed checkpoint covered %d keys, want %d", ck.Keys, snap)
		}
	}
	if err == nil {
		err = insertAll(keys[snap:])
	}
	acc.Close()
	if err != nil {
		return err
	}
	if err := dur.Crash(); err != nil {
		return fmt.Errorf("Crash: %w", err)
	}
	return nil
}
