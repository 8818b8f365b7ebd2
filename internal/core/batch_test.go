package core

import (
	"errors"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicx"
	"repro/internal/keys"
	"repro/internal/metrics"
)

// batchInsert/batchDelete/batchLookup are small wrappers so the model
// checks below read like the single-op tests.
func batchInsert(h *Handle, ks []uint64) ([]bool, []error) {
	out := make([]bool, len(ks))
	errs := make([]error, len(ks))
	h.InsertBatch(ks, out, errs)
	return out, errs
}

func batchDelete(h *Handle, ks []uint64) []bool {
	out := make([]bool, len(ks))
	h.DeleteBatch(ks, out)
	return out
}

func batchLookup(h *Handle, ks []uint64) []bool {
	out := make([]bool, len(ks))
	h.LookupBatch(ks, out)
	return out
}

func uniq(ks []uint64) map[uint64]struct{} {
	m := make(map[uint64]struct{}, len(ks))
	for _, k := range ks {
		m[k] = struct{}{}
	}
	return m
}

func TestBatchBasic(t *testing.T) {
	tr := newTest(t)
	h := tr.NewHandle()
	ks := []uint64{keys.Map(5), keys.Map(1), keys.Map(9), keys.Map(1), keys.Map(-7)}

	ok, errs := batchInsert(h, ks)
	for i, e := range errs {
		if e != nil {
			t.Fatalf("insert %d: %v", i, e)
		}
	}
	// Results land in caller order: the duplicate key 1 succeeds exactly
	// once, and which of the two positions reports true is unspecified.
	if !ok[0] || !ok[2] || !ok[4] {
		t.Fatalf("fresh inserts failed: %v", ok)
	}
	if ok[1] == ok[3] {
		t.Fatalf("duplicate key in batch: got %v and %v, want exactly one true", ok[1], ok[3])
	}
	if tr.Size() != 4 {
		t.Fatalf("size = %d, want 4", tr.Size())
	}
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}

	got := batchLookup(h, []uint64{keys.Map(1), keys.Map(2), keys.Map(5), keys.Map(9), keys.Map(-7)})
	want := []bool{true, false, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lookup %d = %v, want %v", i, got[i], want[i])
		}
	}

	del := batchDelete(h, []uint64{keys.Map(9), keys.Map(404), keys.Map(1), keys.Map(1)})
	if !del[0] || del[1] {
		t.Fatalf("delete statuses: %v", del)
	}
	if del[2] == del[3] {
		t.Fatalf("duplicate delete in batch: got %v and %v, want exactly one true", del[2], del[3])
	}
	if tr.Size() != 2 {
		t.Fatalf("size after deletes = %d, want 2", tr.Size())
	}
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}

	// Empty batches are no-ops.
	h.InsertBatch(nil, nil, nil)
	h.DeleteBatch(nil, nil)
	h.LookupBatch(nil, nil)
}

// TestBatchModelEquivalence drives batched operations against a map model
// with a small key space, so stale wave records and their root re-seeks
// constantly cross freshly inserted and freshly deleted regions.
func TestBatchModelEquivalence(t *testing.T) {
	tr := newTest(t)
	h := tr.NewHandle()
	rng := rand.New(rand.NewSource(42))
	model := map[uint64]bool{}

	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(64)
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = keys.Map(int64(rng.Intn(500)))
		}
		// Duplicates within a batch share a wave leaf and resolve in apply
		// order (median-first among those keys), not caller order, so
		// compare per-key success counts, not per-position values.
		trues := map[uint64]int{}
		switch round % 3 {
		case 0:
			ok, errs := batchInsert(h, ks)
			for i, k := range ks {
				if errs[i] != nil {
					t.Fatalf("round %d: insert err %v", round, errs[i])
				}
				if ok[i] {
					trues[k]++
				}
			}
			for k := range uniq(ks) {
				want := 0
				if !model[k] {
					want = 1 // exactly one insert of an absent key succeeds
				}
				if trues[k] != want {
					t.Fatalf("round %d: insert(%#x) succeeded %d times, want %d", round, k, trues[k], want)
				}
				model[k] = true
			}
		case 1:
			ok := batchDelete(h, ks)
			for i, k := range ks {
				if ok[i] {
					trues[k]++
				}
			}
			for k := range uniq(ks) {
				want := 0
				if model[k] {
					want = 1 // exactly one delete of a present key succeeds
				}
				if trues[k] != want {
					t.Fatalf("round %d: delete(%#x) succeeded %d times, want %d", round, k, trues[k], want)
				}
				delete(model, k)
			}
		default:
			got := batchLookup(h, ks)
			for i, k := range ks {
				if got[i] != model[k] {
					t.Fatalf("round %d: lookup(%#x) = %v, model %v", round, k, got[i], model[k])
				}
			}
		}
	}
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for range model {
		n++
	}
	if tr.Size() != n {
		t.Fatalf("size = %d, model %d", tr.Size(), n)
	}
}

// Sorted batches over a dense prefilled region must actually share paths:
// the skipped-levels counter is the whole point of the batch seek.
func TestBatchPathSharingSkipsLevels(t *testing.T) {
	tr := newTest(t)
	h := tr.NewHandle()
	for i := int64(0); i < 4096; i++ {
		h.Insert(keys.Map(i))
	}

	ks := make([]uint64, 64)
	for i := range ks {
		ks[i] = keys.Map(int64(1000 + i))
	}
	before := h.Stats
	got := batchLookup(h, ks)
	for i, ok := range got {
		if !ok {
			t.Fatalf("lookup %d missing", i)
		}
	}
	d := h.Stats
	if d.Batches-before.Batches != 1 || d.BatchOps-before.BatchOps != 64 {
		t.Fatalf("batch counters: %+v", d)
	}
	skipped := d.BatchSkippedLevels - before.BatchSkippedLevels
	// 64 adjacent keys in a ~4k-leaf tree share nearly the whole path; even
	// a weak bound (1 level per rider) catches a broken wavefront.
	if skipped < 63 {
		t.Fatalf("adjacent-key batch skipped only %d levels", skipped)
	}

	// Search results and stats must agree with the per-op counters.
	if d.Searches-before.Searches != 64 {
		t.Fatalf("Searches delta = %d, want 64", d.Searches-before.Searches)
	}
}

// Deleting a contiguous run makes each delete detach its neighbours'
// recorded parents, so their stale wave records must fail their CASes and
// re-seek. The results must stay exact.
func TestBatchDeleteSortedRunPopsUp(t *testing.T) {
	tr := newTest(t)
	h := tr.NewHandle()
	for i := int64(0); i < 1024; i++ {
		h.Insert(keys.Map(i))
	}
	ks := make([]uint64, 256)
	for i := range ks {
		ks[i] = keys.Map(int64(256 + i))
	}
	ok := batchDelete(h, ks)
	for i := range ok {
		if !ok[i] {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Size() != 1024-256 {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1024; i++ {
		want := i < 256 || i >= 512
		if got := h.Search(keys.Map(i)); got != want {
			t.Fatalf("search %d = %v, want %v", i, got, want)
		}
	}
}

// A mid-batch capacity failure must not abort the batch: every op reports
// its own status and the tree stays auditable.
func TestBatchInsertCapacityPartialFailure(t *testing.T) {
	tr := New(Config{Capacity: 64})
	h := tr.NewHandle()

	ks := make([]uint64, 64)
	for i := range ks {
		ks[i] = keys.Map(int64(i))
	}
	ok, errs := batchInsert(h, ks)

	var succeeded, failed int
	for i := range ks {
		switch {
		case errs[i] == nil && ok[i]:
			succeeded++
		case errors.Is(errs[i], ErrCapacity):
			if ok[i] {
				t.Fatalf("op %d: ok=true with ErrCapacity", i)
			}
			failed++
		default:
			t.Fatalf("op %d: ok=%v err=%v", i, ok[i], errs[i])
		}
	}
	if succeeded == 0 || failed == 0 {
		t.Fatalf("want a mix of successes and capacity failures, got %d/%d", succeeded, failed)
	}

	// Every op that reported success is present; the tree audits clean and
	// keeps serving.
	for i, k := range ks {
		if got := h.Search(k); got != (errs[i] == nil) {
			t.Fatalf("key %d present=%v, want %v", i, got, errs[i] == nil)
		}
	}
	if err := tr.Audit(); err != nil {
		t.Fatalf("tree invalid after partial batch failure: %v", err)
	}
	if h.Stats.CapacityFailures == 0 {
		t.Fatal("capacity failures not counted")
	}
}

// With reclamation on, the capacity path unpins mid-batch (invalidating the
// wave's records); after deletes free slots, later batches succeed again.
func TestBatchInsertCapacityRecoversWithReclaim(t *testing.T) {
	tr := New(Config{Capacity: 256, Reclaim: true})
	defer tr.Close()
	h := tr.NewHandle()

	// Exhaust the arena with a batch.
	ks := make([]uint64, 256)
	for i := range ks {
		ks[i] = keys.Map(int64(i))
	}
	_, errs := batchInsert(h, ks)
	var inserted []uint64
	for i, k := range ks {
		if errs[i] == nil {
			inserted = append(inserted, k)
		}
	}
	if len(inserted) == len(ks) {
		t.Fatal("arena never exhausted")
	}

	// Free half and let grace periods expire.
	del := batchDelete(h, inserted[:len(inserted)/2])
	for i := range del {
		if !del[i] {
			t.Fatalf("delete %d failed", i)
		}
	}
	if h.slot != nil {
		h.slot.Flush()
	}

	ks2 := make([]uint64, 8)
	for i := range ks2 {
		ks2[i] = keys.Map(int64(10000 + i))
	}
	ok2, errs2 := batchInsert(h, ks2)
	recovered := 0
	for i := range ks2 {
		if errs2[i] == nil && ok2[i] {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no insert recovered after deletes + flush")
	}
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchMetricsCounters(t *testing.T) {
	reg := metrics.NewRegistry(0)
	tr := New(Config{Capacity: 1 << 16, Metrics: reg})
	h := tr.NewHandle()
	for i := int64(0); i < 512; i++ {
		h.Insert(keys.Map(i))
	}
	ks := make([]uint64, 32)
	for i := range ks {
		ks[i] = keys.Map(int64(100 + i))
	}
	batchLookup(h, ks)
	batchInsert(h, ks)
	batchDelete(h, ks)

	s := reg.Snapshot()
	m := s.CounterMap()
	if got := m["batch_ops_total"]; got != 96 {
		t.Fatalf("batch_ops_total = %d, want 96", got)
	}
	if m["batch_seek_skipped_levels_total"] == 0 {
		t.Fatal("batch_seek_skipped_levels_total = 0 for adjacent-key batches")
	}
	// Batched ops count in the per-kind totals too.
	if m["ops_search_total"] < 32 || m["ops_insert_total"] < 32 || m["ops_delete_total"] < 32 {
		t.Fatalf("per-kind totals missing batched ops: %v", m)
	}
}

// TestBatchConcurrentWithSingles races batched writers against single-op
// writers and readers on overlapping key ranges, then audits. Run with
// -race in ci.
func TestBatchConcurrentWithSingles(t *testing.T) {
	tr := New(Config{Capacity: 1 << 20, Reclaim: true})
	defer tr.Close()

	const (
		workers  = 4
		rounds   = 200
		keySpace = 512
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tr.NewHandle()
			defer h.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			ks := make([]uint64, 16)
			out := make([]bool, 16)
			errs := make([]error, 16)
			for r := 0; r < rounds; r++ {
				for i := range ks {
					ks[i] = keys.Map(int64(rng.Intn(keySpace)))
				}
				switch r % 4 {
				case 0:
					h.InsertBatch(ks, out, errs)
					for i := range errs {
						if errs[i] != nil {
							t.Errorf("worker %d: %v", w, errs[i])
							return
						}
					}
				case 1:
					h.DeleteBatch(ks, out)
				case 2:
					h.LookupBatch(ks, out)
				default:
					// Single ops interleaved on the same keys.
					for i := range ks {
						switch i % 3 {
						case 0:
							h.Insert(ks[i])
						case 1:
							h.Delete(ks[i])
						default:
							h.Search(ks[i])
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSlotStatsMatchSingleOps pins one Stats convention for single
// operations and batch slots: a one-key batch moves Inserts, Deletes and
// CapacityFailures exactly as the single-key call does, and an insert that
// returns ErrCapacity counts in CapacityFailures, not in Inserts.
func TestBatchSlotStatsMatchSingleOps(t *testing.T) {
	type counts struct{ inserts, deletes, capacityFailures uint64 }
	k := keys.Map(1 << 20)
	wantCapacity := func(t *testing.T, err error) {
		if !errors.Is(err, ErrCapacity) {
			t.Fatalf("err = %v, want ErrCapacity", err)
		}
	}
	cases := []struct {
		name   string
		cfg    Config
		setup  func(h *Handle)
		single func(t *testing.T, h *Handle)
		batch  func(t *testing.T, h *Handle)
		want   counts
	}{{
		name: "insert-capacity-failure",
		cfg:  Config{Capacity: 64},
		setup: func(h *Handle) {
			for i := int64(0); ; i++ {
				if _, err := h.TryInsert(keys.Map(i)); err != nil {
					return
				}
			}
		},
		single: func(t *testing.T, h *Handle) {
			_, err := h.TryInsert(k)
			wantCapacity(t, err)
		},
		batch: func(t *testing.T, h *Handle) {
			_, errs := batchInsert(h, []uint64{k})
			wantCapacity(t, errs[0])
		},
		want: counts{capacityFailures: 1},
	}, {
		name:  "insert-miss-then-hit",
		setup: func(*Handle) {},
		single: func(t *testing.T, h *Handle) {
			if !h.Insert(k) || h.Insert(k) {
				t.Fatal("want a miss that inserts, then a hit")
			}
		},
		batch: func(t *testing.T, h *Handle) {
			first, _ := batchInsert(h, []uint64{k})
			second, _ := batchInsert(h, []uint64{k})
			if !first[0] || second[0] {
				t.Fatal("want a miss that inserts, then a hit")
			}
		},
		want: counts{inserts: 2},
	}, {
		name:  "delete-hit-then-miss",
		setup: func(h *Handle) { h.Insert(k) },
		single: func(t *testing.T, h *Handle) {
			if !h.Delete(k) || h.Delete(k) {
				t.Fatal("want a hit that deletes, then a miss")
			}
		},
		batch: func(t *testing.T, h *Handle) {
			if !batchDelete(h, []uint64{k})[0] || batchDelete(h, []uint64{k})[0] {
				t.Fatal("want a hit that deletes, then a miss")
			}
		},
		want: counts{deletes: 2},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(op func(*testing.T, *Handle)) counts {
				cfg := c.cfg
				if cfg.Capacity == 0 {
					cfg.Capacity = 1 << 12
				}
				h := New(cfg).NewHandle()
				c.setup(h)
				b := h.Stats
				op(t, h)
				a := h.Stats
				return counts{a.Inserts - b.Inserts, a.Deletes - b.Deletes, a.CapacityFailures - b.CapacityFailures}
			}
			single, batch := run(c.single), run(c.batch)
			if single != c.want || batch != c.want {
				t.Fatalf("Stats deltas: single %+v, one-key batch %+v, want %+v", single, batch, c.want)
			}
		})
	}
}

// TestBatchInsertOwnSplitsAreNotContention: the keys of one InsertBatch
// that share a leaf make each other's wave records stale, and that must
// not read as contention. One goroutine loading 4096 sorted keys into an
// empty tree takes no failed CAS, no insert retry and no seek restart —
// and 8191 seeks: the wave's 4096, then one root seek for every slot
// after the leaf's first split.
func TestBatchInsertOwnSplitsAreNotContention(t *testing.T) {
	const n = 4096
	reg := metrics.NewRegistry(0)
	h := New(Config{Capacity: 1 << 16, Metrics: reg}).NewHandle()
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = keys.Map(int64(i))
	}
	ok, errs := batchInsert(h, ks)
	for i := range ks {
		if !ok[i] || errs[i] != nil {
			t.Fatalf("insert %d: ok=%v err=%v", i, ok[i], errs[i])
		}
	}
	if st := h.Stats; st.CASFailed != 0 || st.Seeks != 2*n-1 {
		t.Fatalf("CASFailed = %d, Seeks = %d; want 0 and %d", st.CASFailed, st.Seeks, 2*n-1)
	}
	m := reg.Snapshot().CounterMap()
	for _, name := range []string{"cas_failures_insert_total", "insert_retries_total", "seek_restarts_total"} {
		if m[name] != 0 {
			t.Errorf("%s = %d, want 0", name, m[name])
		}
	}
}

// maxLeafDepth is the number of edges on the longest root-to-leaf path of
// a quiescent tree, sentinels included.
func maxLeafDepth(tr *Tree, idx uint32) int {
	n := tr.ar.Get(idx)
	l, r := atomicx.Addr(n.left.Load()), atomicx.Addr(n.right.Load())
	if l == 0 && r == 0 {
		return 0
	}
	return 1 + max(maxLeafDepth(tr, l), maxLeafDepth(tr, r))
}

// TestBatchInsertKeepsTreeShallow is the spine regression: the keys of one
// InsertBatch that land on one leaf must split it into a balanced subtree,
// not a chain as long as the batch, whether the batch is one sorted run
// into an empty tree or one of many chunks of shuffled keys.
func TestBatchInsertKeepsTreeShallow(t *testing.T) {
	const chunk = 4096
	load := func(t *testing.T, ks []uint64) {
		tr := newTest(t)
		h := tr.NewHandle()
		out := make([]bool, chunk)
		errs := make([]error, chunk)
		for rest := ks; len(rest) > 0; {
			n := min(chunk, len(rest))
			h.InsertBatch(rest[:n], out[:n], errs[:n])
			for i := range n {
				if !out[i] || errs[i] != nil {
					t.Fatalf("insert %#x: ok=%v err=%v", rest[i], out[i], errs[i])
				}
			}
			rest = rest[n:]
		}
		if tr.Size() != len(ks) {
			t.Fatalf("size = %d, want %d", tr.Size(), len(ks))
		}
		depth, bound := maxLeafDepth(tr, tr.r), 3*bits.Len(uint(len(ks)))
		t.Logf("%d keys: max leaf depth %d (bound %d)", len(ks), depth, bound)
		if depth > bound {
			t.Fatalf("max leaf depth %d for %d keys exceeds %d", depth, len(ks), bound)
		}
	}
	t.Run("sorted-one-batch", func(t *testing.T) {
		ks := make([]uint64, chunk)
		for i := range ks {
			ks[i] = keys.Map(int64(i))
		}
		load(t, ks)
	})
	t.Run("shuffled-chunks", func(t *testing.T) {
		ks := make([]uint64, 1<<16)
		for i := range ks {
			ks[i] = keys.Map(int64(i))
		}
		rand.New(rand.NewSource(1)).Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		load(t, ks)
	})
}

// BenchmarkBulkLoad times a bulk load through InsertBatch and then random
// lookups in the loaded tree, the two costs a batch-length spine inflates:
//
//	go test ./internal/core -run '^$' -bench BulkLoad -benchtime 3x -cpu 1
//
// ns/op is one whole load into a fresh tree; retried-seeks is the seeks
// beyond one per key that the load took; search-ns is the mean of 200K
// Search calls for random stored keys after the last load.
func BenchmarkBulkLoad(b *testing.B) {
	const n = 500_000
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = keys.Map(int64(i))
	}
	cut := func(ks []uint64, size int) (chunks [][]uint64) {
		for len(ks) > 0 {
			m := min(size, len(ks))
			chunks = append(chunks, ks[:m])
			ks = ks[m:]
		}
		return chunks
	}
	// levelOrder cuts sorted keys as durable's recovery does: the BFS
	// level order of the implicit balanced tree, 1024 keys a batch, a new
	// batch at every level.
	levelOrder := func(ks []uint64) (chunks [][]uint64) {
		type span struct{ lo, hi int }
		for level := []span{{0, len(ks)}}; len(level) > 0; {
			var next []span
			var batch []uint64
			for _, s := range level {
				if s.lo < s.hi {
					mid := (s.lo + s.hi) / 2
					batch = append(batch, ks[mid])
					next = append(next, span{s.lo, mid}, span{mid + 1, s.hi})
				}
			}
			chunks = append(chunks, cut(batch, 1024)...)
			level = next
		}
		return chunks
	}
	shuffled := slices.Clone(ks)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cases := []struct {
		name   string
		keys   []uint64
		chunks [][]uint64
	}{
		{"shuffled-500K-in-4096-chunks", ks, cut(shuffled, 4096)},
		{"sorted-16384-one-batch", ks[:16384], cut(ks[:16384], 16384)},
		{"level-ordered-500K-in-1024-chunks", ks, levelOrder(ks)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			out := make([]bool, 16384)
			errs := make([]error, 16384)
			var tr *Tree
			var seeks uint64
			for i := 0; i < b.N; i++ {
				tr = New(Config{Capacity: 2*len(c.keys) + 1<<12})
				h := tr.NewHandle()
				for _, ch := range c.chunks {
					h.InsertBatch(ch, out[:len(ch)], errs[:len(ch)])
				}
				seeks = h.Stats.Seeks
			}
			b.StopTimer()
			b.ReportMetric(float64(seeks-uint64(len(c.keys))), "retried-seeks")
			h := tr.NewHandle()
			rng := rand.New(rand.NewSource(2))
			const lookups = 200_000
			t0 := time.Now()
			for i := 0; i < lookups; i++ {
				h.Search(c.keys[rng.Intn(len(c.keys))])
			}
			b.ReportMetric(float64(time.Since(t0).Nanoseconds())/lookups, "search-ns")
		})
	}
}
