package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	bst "repro"
)

// aggregateRound checks that Exact-mode order-statistics queries are
// linearizable against concurrent inserts AND deletes, on both the single
// tree and the sharded forest (which merges per-shard summaries).
//
// The checker brackets every query: each worker owns a disjoint key block
// and tracks its keys locally, so it knows before issuing whether a
// mutation will succeed; guaranteed-successful mutations bump an issued
// counter before the call and an acked counter after it. A query reads
// acked counters at t0 (before issuing) and issued counters at t1 (after
// returning). Any linearization point t of the query lies in [t0, t1], so
//
//	count(t) ≥ insAcked(t0) − delIssued(t1)   (completed ⇒ linearized;
//	count(t) ≤ insIssued(t1) − delAcked(t0)    linearized ⇒ issued)
//
// — every Exact Rank/CountRange answer must land inside that window, with
// no quiescing. A final quiescent phase then checks exact agreement
// against a fresh Scan (count, rank, and spot-checked Select).
//
// Each layout runs twice. In the free-running phase the workers mutate
// nonstop, so their key logs overflow and most waves walk the whole tree.
// In the paced phase each worker owns an accessor and mutates a small hot
// corner of its block in bursts far shorter than its key log, one burst
// per completed query, over a static population: the waves then probe
// only the drained keys and patch the buckets they fall in, and the phase
// fails unless some did.
func aggregateRound(workers int, seed uint64) error {
	for _, sharded := range []bool{false, true} {
		for _, paced := range []bool{false, true} {
			if err := aggregateConfigRound(workers, seed, sharded, paced); err != nil {
				name := "single"
				if sharded {
					name = "sharded"
				}
				if paced {
					name += " paced"
				}
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return nil
}

func aggregateConfigRound(workers int, seed uint64, sharded, paced bool) error {
	const (
		blockSize = 4096 // keys per worker block
		opsPerW   = 20000
		queries   = 400
		hotKeys   = 256 // paced: the keys at the bottom of its block a worker mutates
		burst     = 16  // paced: mutations per worker between two completed queries
	)
	span := int64(workers) * blockSize
	opts := []bst.Option{
		bst.WithOrderStatistics(), bst.WithReclamation(), bst.WithCapacity(1 << 20),
	}
	if sharded {
		opts = append(opts, bst.WithShards(4), bst.WithShardRange(0, span))
	}
	tr := bst.New(opts...)
	defer tr.Close()

	// The paced phase's static population: the rest of every block,
	// inserted before the workers start and never touched again — in
	// shuffled order, since ascending inserts would build a spine.
	var static int64
	if paced {
		var ks []int64
		for w := int64(0); w < int64(workers); w++ {
			for k := w*blockSize + hotKeys; k < (w+1)*blockSize; k++ {
				ks = append(ks, k)
			}
		}
		rand.New(rand.NewSource(int64(seed))).Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		for _, k := range ks {
			tr.Insert(k)
		}
		static = int64(len(ks))
	}
	// Paced workers wait after each burst until the query loop has
	// completed a check since the burst began, so at most a few bursts land
	// between two waves. Every tick releases every waiting worker, so the
	// query loop's wait for their next mutation below always ends.
	var tickMu sync.Mutex
	tickCond := sync.NewCond(&tickMu)
	tick, stopped := 0, false
	nextTick := func() {
		tickMu.Lock()
		tick++
		tickMu.Unlock()
		tickCond.Broadcast()
	}

	var insIssued, insAcked, delIssued, delAcked atomic.Int64
	var wg sync.WaitGroup
	var workerErr atomic.Value
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(w)))
			lo, keys := int64(w)*blockSize, int64(blockSize)
			insert, del := tr.Insert, tr.Delete
			if paced {
				acc := tr.NewAccessor()
				defer acc.Close()
				keys, insert, del = hotKeys, acc.Insert, acc.Delete
			}
			present := make(map[int64]bool, keys)
			since := 0 // paced: the tick the current burst began at
			for i := 1; paced || i <= opsPerW; i++ {
				k := lo + rng.Int63n(keys)
				if !present[k] {
					insIssued.Add(1)
					if !insert(k) {
						workerErr.Store(fmt.Errorf("insert of absent owned key %d returned false", k))
						return
					}
					insAcked.Add(1)
					present[k] = true
				} else {
					delIssued.Add(1)
					if !del(k) {
						workerErr.Store(fmt.Errorf("delete of present owned key %d returned false", k))
						return
					}
					delAcked.Add(1)
					present[k] = false
				}
				if paced && i%burst == 0 {
					tickMu.Lock()
					for tick == since && !stopped {
						tickCond.Wait()
					}
					since = tick
					stop := stopped
					tickMu.Unlock()
					if stop {
						return
					}
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	// Stop and join the workers before the tree closes, on every path.
	stopWorkers := func() {
		tickMu.Lock()
		stopped = true
		tickMu.Unlock()
		tickCond.Broadcast()
		wg.Wait()
	}
	defer stopWorkers()

	qrng := rand.New(rand.NewSource(int64(seed) * 7919))
	checked := 0
	for checked < queries {
		select {
		case <-done:
		default:
		}
		// Whole-span count via CountRange and via Rank — both must sit in
		// the bracket. Sub-windows can't be bracketed by global counters,
		// so the concurrent check uses the full span; sub-window agreement
		// is the quiescent phase's job.
		aIns, aDel := insAcked.Load(), delAcked.Load()
		n, err := tr.CountRange(0, span, bst.Exact)
		if err != nil {
			return err
		}
		r, err := tr.Rank(span+1, bst.Exact)
		if err != nil {
			return err
		}
		iIns, iDel := insIssued.Load(), delIssued.Load()
		lo, hi := static+aIns-iDel, static+iIns-aDel
		if int64(n) < lo || int64(n) > hi {
			return fmt.Errorf("exact CountRange = %d outside linearizability window [%d, %d]", n, lo, hi)
		}
		if int64(r) < lo || int64(r) > hi {
			return fmt.Errorf("exact Rank = %d outside linearizability window [%d, %d]", r, lo, hi)
		}
		checked++
		if !paced {
			continue
		}
		// Release one more burst and let it start before the next query,
		// so the queries keep finding mutations to refresh.
		issued := insIssued.Load() + delIssued.Load()
		nextTick()
		for insIssued.Load()+delIssued.Load() == issued {
			select {
			case <-done:
				return fmt.Errorf("paced workers stopped: %v", workerErr.Load())
			default:
				runtime.Gosched()
			}
		}
	}
	stopWorkers()
	if e := workerErr.Load(); e != nil {
		return e.(error)
	}
	if paced {
		c := map[string]uint64{}
		tr.ExportOrderStatsMetrics(c, map[string]float64{})
		if waves, full := c["orderstat_waves_total"], c["orderstat_full_waves_total"]; waves == full {
			return fmt.Errorf("all %d refresh waves walked the whole tree: no incremental wave ran", waves)
		}
	}

	// Quiescent: aggregate answers agree exactly with a fresh scan.
	var keys []int64
	tr.Scan(0, span, func(k int64) bool { keys = append(keys, k); return true })
	n, err := tr.CountRange(0, span, bst.Exact)
	if err != nil {
		return err
	}
	if n != len(keys) {
		return fmt.Errorf("quiescent CountRange = %d, scan found %d", n, len(keys))
	}
	if net := static + insAcked.Load() - delAcked.Load(); int64(n) != net {
		return fmt.Errorf("quiescent count %d != acked net %d", n, net)
	}
	for t := 0; t < 32 && len(keys) > 0; t++ {
		i := qrng.Intn(len(keys))
		got, err := tr.Select(i, bst.Exact)
		if err != nil {
			return err
		}
		if got != keys[i] {
			return fmt.Errorf("quiescent Select(%d) = %d, scan says %d", i, got, keys[i])
		}
		mid := keys[i]
		r, err := tr.Rank(mid, bst.Exact)
		if err != nil {
			return err
		}
		if r != i {
			return fmt.Errorf("quiescent Rank(%d) = %d, scan says %d", mid, r, i)
		}
	}
	return nil
}
