package orderstat

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
)

func newTracked(t *testing.T) (*core.Tree, *Index) {
	t.Helper()
	tree := core.New(core.Config{Capacity: 1 << 20, Reclaim: true, TrackDirty: true})
	ix, err := New(tree)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { ix.Close(); tree.Close() })
	return tree, ix
}

func TestNewRequiresTrackDirty(t *testing.T) {
	tree := core.New(core.Config{Capacity: 1 << 10})
	defer tree.Close()
	if _, err := New(tree); err != ErrNotTracked {
		t.Fatalf("New on untracked tree: err = %v, want ErrNotTracked", err)
	}
}

// TestSummaryAgainstBruteForce cross-checks every query shape against a
// sorted reference slice over random insert/delete churn.
func TestSummaryAgainstBruteForce(t *testing.T) {
	tree, ix := newTracked(t)
	rng := rand.New(rand.NewSource(7))
	ref := map[int64]bool{}
	for step := 0; step < 50; step++ {
		for i := 0; i < 200; i++ {
			k := int64(rng.Intn(5000))
			if rng.Intn(3) == 0 {
				if tree.Delete(keys.Map(k)) != ref[k] {
					t.Fatalf("Delete(%d) disagreed with reference", k)
				}
				delete(ref, k)
			} else {
				if tree.Insert(keys.Map(k)) != !ref[k] {
					t.Fatalf("Insert(%d) disagreed with reference", k)
				}
				ref[k] = true
			}
		}
		sorted := make([]int64, 0, len(ref))
		for k := range ref {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		s := ix.Acquire(true, 0)
		if s.Len() != len(sorted) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(sorted))
		}
		for trial := 0; trial < 20; trial++ {
			k := int64(rng.Intn(5200))
			wantRank := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= k })
			if got := s.Rank(keys.Map(k)); got != wantRank {
				t.Fatalf("step %d: Rank(%d) = %d, want %d", step, k, got, wantRank)
			}

			lo := int64(rng.Intn(5200)) - 100
			hi := lo + int64(rng.Intn(2000))
			wantCount, wantSum := 0, int64(0)
			for _, v := range sorted {
				if v >= lo && v <= hi {
					wantCount++
					wantSum += v
				}
			}
			if got := s.Count(keys.Map(lo), keys.Map(hi)); got != wantCount {
				t.Fatalf("step %d: Count(%d,%d) = %d, want %d", step, lo, hi, got, wantCount)
			}
			if got := s.Sum(keys.Map(lo), keys.Map(hi)); got != wantSum {
				t.Fatalf("step %d: Sum(%d,%d) = %d, want %d", step, lo, hi, got, wantSum)
			}

			if len(sorted) > 0 {
				i := rng.Intn(len(sorted))
				u, ok := s.Select(i)
				if !ok || keys.Unmap(u) != sorted[i] {
					t.Fatalf("step %d: Select(%d) = (%d,%v), want %d", step, i, keys.Unmap(u), ok, sorted[i])
				}
			}
			if _, ok := s.Select(len(sorted)); ok {
				t.Fatalf("step %d: Select(len) reported ok", step)
			}

			got := []int64{}
			s.Visit(keys.Map(lo), keys.Map(hi), func(u uint64) bool {
				got = append(got, keys.Unmap(u))
				return true
			})
			if len(got) != wantCount {
				t.Fatalf("step %d: Visit yielded %d keys, want %d", step, len(got), wantCount)
			}
		}
	}
}

// TestExactReusesCleanSummary pins the caching contract: with no
// mutations between queries, one wave serves all of them; any mutation
// forces exactly one more wave.
func TestExactReusesCleanSummary(t *testing.T) {
	tree, ix := newTracked(t)
	for i := 0; i < 100; i++ {
		tree.Insert(keys.Map(int64(i)))
	}
	s1 := ix.Acquire(true, 0)
	w := ix.Stats().Waves
	for i := 0; i < 10; i++ {
		if got := ix.Acquire(true, 0); got != s1 {
			t.Fatalf("quiescent exact query %d rebuilt the summary", i)
		}
	}
	if ix.Stats().Waves != w {
		t.Fatalf("quiescent exact queries ran %d extra waves", ix.Stats().Waves-w)
	}
	tree.Delete(keys.Map(int64(3)))
	s2 := ix.Acquire(true, 0)
	if s2 == s1 || s2.Len() != 99 {
		t.Fatalf("exact query after delete served the stale summary (len %d)", s2.Len())
	}
}

// TestBoundedStaleBound asserts the advertised error bound: a summary
// served under BoundedStale(m) lags the live tree by at most m completed
// mutations, so any count differs from exact by at most m.
func TestBoundedStaleBound(t *testing.T) {
	tree, ix := newTracked(t)
	const n = 1000
	for i := 0; i < n; i++ {
		tree.Insert(keys.Map(int64(i)))
	}
	exact := ix.Acquire(true, 0)
	if exact.Len() != n {
		t.Fatalf("exact Len = %d, want %d", exact.Len(), n)
	}
	const budget = 64
	// Mutate fewer than budget keys: the stale summary must still be served
	// (no wave), and its counts sit within budget of the live truth.
	w := ix.Stats().Waves
	for i := 0; i < budget-1; i++ {
		tree.Insert(keys.Map(int64(n + i)))
	}
	stale := ix.Acquire(false, budget)
	if ix.Stats().Waves != w {
		t.Fatalf("BoundedStale(%d) refreshed with only %d mutations pending", budget, budget-1)
	}
	liveCount := n + budget - 1
	if diff := liveCount - stale.Len(); diff < 0 || diff > budget {
		t.Fatalf("stale count %d vs live %d: error %d exceeds budget %d", stale.Len(), liveCount, diff, budget)
	}
	// Two more mutations push the lag to budget+1: the next acquire must
	// refresh (lag <= budget is within contract, budget+1 is not).
	tree.Insert(keys.Map(int64(n + budget - 1)))
	tree.Insert(keys.Map(int64(n + budget)))
	fresh := ix.Acquire(false, budget)
	if ix.Stats().Waves == w {
		t.Fatalf("BoundedStale(%d) served a summary %d mutations stale", budget, budget+1)
	}
	if fresh.Len() != n+budget+1 {
		t.Fatalf("refreshed Len = %d, want %d", fresh.Len(), n+budget+1)
	}
}

// TestExactUnderConcurrentChurn runs exact queries against concurrent
// insert-only writers and checks the monotone window property: an exact
// count over the insert region can never fall below the number of inserts
// acked before the query began, nor exceed the number issued by its end.
func TestExactUnderConcurrentChurn(t *testing.T) {
	tree, ix := newTracked(t)
	const total = 20000
	var acked sync.Map
	var wg sync.WaitGroup
	done := make(chan struct{})
	var ackedCount, issued int64
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		h := tree.NewHandle()
		defer h.Close()
		for i := int64(0); i < total; i++ {
			mu.Lock()
			issued++
			mu.Unlock()
			h.Insert(keys.Map(i))
			mu.Lock()
			ackedCount++
			mu.Unlock()
			acked.Store(i, true)
		}
	}()
	for {
		select {
		case <-done:
			wg.Wait()
			s := ix.Acquire(true, 0)
			if got := s.Count(keys.Map(0), keys.Map(total-1)); got != total {
				t.Fatalf("quiescent exact count = %d, want %d", got, total)
			}
			return
		default:
		}
		mu.Lock()
		lowerBound := ackedCount
		mu.Unlock()
		s := ix.Acquire(true, 0)
		got := int64(s.Count(keys.Map(0), keys.Map(total-1)))
		mu.Lock()
		upperBound := issued
		mu.Unlock()
		if got < lowerBound || got > upperBound {
			t.Fatalf("exact count %d outside monotone window [%d, %d]", got, lowerBound, upperBound)
		}
	}
}

// walkAll returns the tree's keys by a fresh full walk (quiescent).
func walkAll(h *core.Handle) []uint64 {
	var ks []uint64
	h.Range(0, keys.Map(keys.MaxUser), func(u uint64) bool {
		ks = append(ks, u)
		return true
	})
	return ks
}

// checkSummary asserts the bucket directory's invariants and that its
// keys are exactly want.
func checkSummary(t *testing.T, s *Summary, want []uint64) {
	t.Helper()
	nb := len(s.buckets)
	if nb == 0 || len(s.lo) != nb || len(s.cumCount) != nb+1 || len(s.cumSum) != nb+1 {
		t.Fatalf("directory shape: %d buckets, %d bounds, %d/%d cumulative entries",
			nb, len(s.lo), len(s.cumCount), len(s.cumSum))
	}
	if s.lo[0] != 0 || s.cumCount[0] != 0 || s.cumSum[0] != 0 {
		t.Fatalf("directory does not start at the bottom of the key space: lo[0]=%d", s.lo[0])
	}
	var got []uint64
	for j, b := range s.buckets {
		if j > 0 && s.lo[j] <= s.lo[j-1] {
			t.Fatalf("bucket %d bound %d not above bucket %d bound %d", j, s.lo[j], j-1, s.lo[j-1])
		}
		if n := len(b.keys); nb > 1 && (n < minBucket || n > maxBucket) {
			t.Fatalf("bucket %d of %d holds %d keys, outside [%d, %d]", j, nb, n, minBucket, maxBucket)
		}
		if want := (len(b.keys) + sumStride - 1) / sumStride; len(b.sums) != want {
			t.Fatalf("bucket %d: %d sums for %d keys, want %d", j, len(b.sums), len(b.keys), want)
		}
		var sum int64
		for i, u := range b.keys {
			if u < s.lo[j] || (j+1 < nb && u >= s.lo[j+1]) {
				t.Fatalf("bucket %d key %d outside its range [%d, %d)", j, u, s.lo[j], s.lo[min(j+1, nb-1)])
			}
			sum += keys.Unmap(u)
			if (i+1)%sumStride == 0 || i+1 == len(b.keys) {
				if got := b.sums[i/sumStride]; got != sum {
					t.Fatalf("bucket %d sums[%d] = %d, want %d", j, i/sumStride, got, sum)
				}
			}
		}
		if s.cumCount[j+1] != s.cumCount[j]+len(b.keys) || s.cumSum[j+1] != s.cumSum[j]+sum {
			t.Fatalf("cumulative arrays disagree with bucket %d", j)
		}
		got = append(got, b.keys...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("summary holds %d keys, full walk %d (first difference at %d)",
			len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestIncrementalWavesMatchFullWalk drives waves through every path —
// incremental rescans, the lapped-ring fallback, a closed handle's log,
// splits and merges — and after every wave compares the summary with a
// fresh full walk and checks the bucket invariants. The index counters
// pin which path each wave took.
func TestIncrementalWavesMatchFullWalk(t *testing.T) {
	tree, ix := newTracked(t)
	h := tree.NewHandle()
	defer h.Close()
	walker := tree.NewHandle()
	defer walker.Close()
	rng := rand.New(rand.NewSource(11))
	const span = 1_000_000
	// Keys on a stride of 50 leave room inside every bucket's range;
	// shuffled, since ascending inserts would build a spine.
	for _, i := range rng.Perm(span / 50) {
		h.Insert(keys.Map(int64(i) * 50))
	}
	wave := func(name string, wantFull bool) Stats {
		t.Helper()
		before := ix.Stats()
		s := ix.Acquire(true, 0)
		after := ix.Stats()
		if after.Waves != before.Waves+1 {
			t.Fatalf("%s: ran %d waves, want 1", name, after.Waves-before.Waves)
		}
		if full := after.FullWaves == before.FullWaves+1; full != wantFull {
			t.Fatalf("%s: full walk = %v, want %v (rescanned %d buckets)",
				name, full, wantFull, after.BucketsRescanned-before.BucketsRescanned)
		}
		if !wantFull && after.BucketsRescanned == before.BucketsRescanned {
			t.Fatalf("%s: incremental wave rescanned no bucket", name)
		}
		checkSummary(t, s, walkAll(walker))
		return after
	}
	wave("first wave", true)

	for round := 0; round < 30; round++ {
		switch round % 5 {
		case 0: // a random burst smaller than the ring
			for i := 0; i < 32; i++ {
				k := keys.Map(int64(rng.Intn(span)))
				if rng.Intn(2) == 0 {
					h.Insert(k)
				} else {
					h.Delete(k)
				}
			}
			wave("small burst", false)
		case 1: // a burst larger than the ring: the overflow fallback
			for i := 0; i < core.DirtyRing+1; i++ {
				h.Insert(keys.Map(int64(rng.Intn(span))))
			}
			wave("lapped ring", true)
		case 2: // a handle that mutates and closes before the wave
			hc := tree.NewHandle()
			for i := 0; i < 20; i++ {
				hc.Insert(keys.Map(int64(rng.Intn(span))))
			}
			hc.Close()
			wave("closed handle", false)
		case 3: // a burst into one bucket's range: split
			s := ix.Acquire(true, 0)
			j := rng.Intn(len(s.buckets) - 1)
			lo, hi := keys.Unmap(s.lo[j]), keys.Unmap(s.lo[j+1])
			n, want, nb := 0, maxBucket+1-len(s.buckets[j].keys), len(s.buckets)
			for k := lo; k < hi && n < want; k++ {
				if h.Insert(keys.Map(k)) {
					n++
				}
			}
			if n < want {
				t.Fatalf("bucket %d's range [%d, %d) took only %d new keys", j, lo, hi, n)
			}
			if st := wave("split", false); st.Buckets <= nb {
				t.Fatalf("split: %d buckets after the wave, %d before", st.Buckets, nb)
			}
		case 4: // deletes that empty one bucket: merge
			s := ix.Acquire(true, 0)
			j := rng.Intn(len(s.buckets))
			for _, u := range s.buckets[j].keys {
				h.Delete(u)
			}
			nb := len(s.buckets)
			if st := wave("merge", false); st.Buckets >= nb {
				t.Fatalf("merge: %d buckets after the wave, %d before", st.Buckets, nb)
			}
		}
	}
}

// TestSmallTreeBuckets covers the single-bucket regime: a summary of one
// bucket may hold fewer than minBucket keys, including none.
func TestSmallTreeBuckets(t *testing.T) {
	tree, ix := newTracked(t)
	walker := tree.NewHandle()
	defer walker.Close()
	checkSummary(t, ix.Acquire(false, 0), nil)
	for i := int64(0); i < 10; i++ {
		tree.Insert(keys.Map(i))
	}
	checkSummary(t, ix.Acquire(true, 0), walkAll(walker))
	for i := int64(0); i < 10; i++ {
		tree.Delete(keys.Map(i))
		checkSummary(t, ix.Acquire(true, 0), walkAll(walker))
	}
	for i := int64(0); i < 3*maxBucket; i++ {
		tree.Insert(keys.Map(i))
		if i%37 == 0 {
			checkSummary(t, ix.Acquire(true, 0), walkAll(walker))
		}
	}
	checkSummary(t, ix.Acquire(true, 0), walkAll(walker))
}

// newPatchTree builds an indexed tree holding every fourth key of
// [0, 4n), inserted shuffled, and runs its first (full) wave. It returns
// the index, a writer handle and a walker handle for walkAll.
func newPatchTree(t *testing.T, n int) (*Index, *core.Handle, *core.Handle) {
	t.Helper()
	tree, ix := newTracked(t)
	h, walker := tree.NewHandle(), tree.NewHandle()
	t.Cleanup(func() { walker.Close(); h.Close() })
	for _, i := range rand.New(rand.NewSource(3)).Perm(n) {
		h.Insert(keys.Map(int64(4 * i)))
	}
	checkSummary(t, ix.Acquire(true, 0), walkAll(walker))
	return ix, h, walker
}

// incrementalWave runs one exact acquire, fails unless it ran exactly one
// incremental wave, and checks the summary against a full walk.
func incrementalWave(t *testing.T, ix *Index, walker *core.Handle) *Summary {
	t.Helper()
	before := ix.Stats()
	s := ix.Acquire(true, 0)
	after := ix.Stats()
	if after.Waves != before.Waves+1 || after.FullWaves != before.FullWaves {
		t.Fatalf("ran %d waves, %d of them full; want one incremental wave",
			after.Waves-before.Waves, after.FullWaves-before.FullWaves)
	}
	checkSummary(t, s, walkAll(walker))
	return s
}

// TestWaveRepeatedKey logs one key three times between two waves (insert,
// delete, insert): the wave probes it once and keeps its final state.
func TestWaveRepeatedKey(t *testing.T) {
	ix, h, walker := newPatchTree(t, 4096)
	u := keys.Map(4*1000 + 1)
	if !h.Insert(u) || !h.Delete(u) || !h.Insert(u) {
		t.Fatal("insert, delete, insert of an absent key did not all succeed")
	}
	before := ix.Stats().KeysWalked
	s := incrementalWave(t, ix, walker)
	if probed := ix.Stats().KeysWalked - before; probed != 1 {
		t.Fatalf("wave probed %d keys for one distinct drained key", probed)
	}
	if s.Count(u, u) != 1 {
		t.Fatal("key inserted last is missing from the summary")
	}
}

// TestWaveInsertThenDelete inserts and deletes one key between two waves:
// the patched bucket keeps exactly its old keys.
func TestWaveInsertThenDelete(t *testing.T) {
	ix, h, walker := newPatchTree(t, 4096)
	prev := ix.Acquire(true, 0)
	u := keys.Map(4*2000 + 2)
	if !h.Insert(u) || !h.Delete(u) {
		t.Fatal("insert then delete of an absent key did not both succeed")
	}
	s := incrementalWave(t, ix, walker)
	j := s.find(u)
	if s.Len() != prev.Len() || !slices.Equal(s.buckets[j].keys, prev.buckets[prev.find(u)].keys) {
		t.Fatalf("no-op churn changed the summary: %d keys, was %d", s.Len(), prev.Len())
	}
}

// TestWaveKeyAtBucketBound mutates the key a bucket's lower bound names:
// it belongs to that bucket, not the one before. Alone, it leaves the
// bucket before shared; with a key of that bucket drained too, the wave
// patches both and still puts the bound key in its own bucket.
func TestWaveKeyAtBucketBound(t *testing.T) {
	ix, h, walker := newPatchTree(t, 4096)
	prev := ix.Acquire(true, 0)
	j := len(prev.buckets) / 2
	u := prev.lo[j]
	if prev.buckets[j].keys[0] != u {
		t.Fatalf("full walk started bucket %d at %d, not at its first key %d", j, u, prev.buckets[j].keys[0])
	}
	below := u - 1 // in bucket j-1's range, off the prefill's stride
	for step, neighbour := range []bool{false, false, true, true} {
		insert := step%2 == 1
		if insert && !h.Insert(u) || !insert && !h.Delete(u) {
			t.Fatalf("step %d: mutation (insert=%v) of the bound key failed", step, insert)
		}
		if neighbour && !(insert && h.Delete(below) || !insert && h.Insert(below)) {
			t.Fatalf("step %d: mutation of the key below the bound failed", step)
		}
		s := incrementalWave(t, ix, walker)
		if s.lo[j] != u || s.find(u) != j {
			t.Fatalf("step %d: bound key %d maps to bucket %d (bound %d), want %d", step, u, s.find(u), s.lo[j], j)
		}
		if shared := &s.buckets[j-1].keys[0] == &prev.buckets[j-1].keys[0]; shared == neighbour {
			t.Fatalf("step %d: bucket before the bound shared = %v, want %v", step, shared, !neighbour)
		}
		if got := s.buckets[j].keys[0] == u; got != insert {
			t.Fatalf("step %d: bucket %d starts with the bound key = %v, want %v", step, j, got, insert)
		}
	}
}

// TestWaveSplitsGrownBucket inserts into one bucket's range until it holds
// more than maxBucket keys: the wave splits it.
func TestWaveSplitsGrownBucket(t *testing.T) {
	ix, h, walker := newPatchTree(t, 4096)
	prev := ix.Acquire(true, 0)
	j := len(prev.buckets) / 3
	want := maxBucket + 1 - len(prev.buckets[j].keys)
	n := 0
	for k := keys.Unmap(prev.lo[j]); k < keys.Unmap(prev.lo[j+1]) && n < want; k++ {
		if h.Insert(keys.Map(k)) {
			n++
		}
	}
	if n < want {
		t.Fatalf("bucket %d took only %d of %d new keys", j, n, want)
	}
	if s := incrementalWave(t, ix, walker); len(s.buckets) <= len(prev.buckets) {
		t.Fatalf("%d buckets after the wave, %d before", len(s.buckets), len(prev.buckets))
	}
}

// TestWaveMergesEmptiedLastBucket deletes every key of the key space's
// last bucket: with no bucket after it to absorb, the empty range joins
// its left neighbour, which then reaches the end of the key space.
func TestWaveMergesEmptiedLastBucket(t *testing.T) {
	ix, h, walker := newPatchTree(t, 4096)
	prev := ix.Acquire(true, 0)
	nb := len(prev.buckets)
	for _, u := range prev.buckets[nb-1].keys {
		h.Delete(u)
	}
	s := incrementalWave(t, ix, walker)
	if len(s.buckets) != nb-1 || s.lo[nb-2] != prev.lo[nb-2] ||
		!slices.Equal(s.buckets[nb-2].keys, prev.buckets[nb-2].keys) {
		t.Fatalf("%d buckets after emptying the last of %d; last bound %d, want %d",
			len(s.buckets), nb, s.lo[len(s.lo)-1], prev.lo[nb-2])
	}
}

// FuzzWavesMatchFullWalk interprets the fuzz input as a program of
// mutations and waves over a tree prefilled with every fourth key of
// [0, 8192), and compares every wave's summary with a fresh full walk.
// Each step is an opcode byte b and two key bytes, k = (hi<<8|lo) % 8192;
// b%8 selects 0–2 insert k, 3–5 delete k, 6 a wave, and 7 a run over
// [k, k+256): inserts when b/8 is even, deletes when odd. Runs split and
// empty buckets and can lap the writer's ring; a final wave closes every
// program. Run `go test -fuzz FuzzWavesMatchFullWalk ./internal/orderstat`
// to explore.
func FuzzWavesMatchFullWalk(f *testing.F) {
	f.Add([]byte{6, 0, 0})
	f.Add([]byte{0, 0, 9, 3, 0, 9, 0, 0, 9, 6, 0, 0})         // insert, delete, insert one key
	f.Add([]byte{3, 0, 0, 3, 31, 252, 6, 0, 0, 0, 0, 0})      // delete the first and last keys
	f.Add([]byte{7, 4, 0, 6, 0, 0, 7 + 8, 4, 0, 7 + 8, 5, 0}) // grow a bucket, then empty it
	f.Add([]byte{7, 0, 0, 7, 1, 0, 7 + 8, 30, 0, 7 + 8, 31, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		const span = 8192
		tree := core.New(core.Config{Capacity: 1 << 18, Reclaim: true, TrackDirty: true})
		defer tree.Close()
		ix, err := New(tree)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		h, walker := tree.NewHandle(), tree.NewHandle()
		defer h.Close()
		defer walker.Close()
		for _, i := range rand.New(rand.NewSource(5)).Perm(span / 4) {
			h.Insert(keys.Map(int64(4 * i)))
		}
		wave := func() { checkSummary(t, ix.Acquire(true, 0), walkAll(walker)) }
		wave()
		for i := 0; i+2 < len(program); i += 3 {
			b, k := program[i], (int64(program[i+1])<<8|int64(program[i+2]))%span
			switch op := b % 8; {
			case op < 3:
				h.Insert(keys.Map(k))
			case op < 6:
				h.Delete(keys.Map(k))
			case op == 6:
				wave()
			default:
				for r := k; r < k+256; r++ {
					if (b/8)%2 == 0 {
						h.Insert(keys.Map(r))
					} else {
						h.Delete(keys.Map(r))
					}
				}
			}
		}
		wave()
	})
}
