package core

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/keys"
)

// TestDirtyCountsCompletedMutations pins the orderstat soundness anchor:
// every successful insert/delete — point or batched, helped or not — is
// counted by the time its call returns, and failed/no-op calls are not.
func TestDirtyCountsCompletedMutations(t *testing.T) {
	tr := New(Config{Capacity: 1 << 16, Reclaim: true, TrackDirty: true})
	defer tr.Close()
	d := tr.Dirty()
	if d == nil {
		t.Fatal("Dirty() = nil on a TrackDirty tree")
	}

	if !tr.Insert(keys.Map(1)) || d.Total() != 1 {
		t.Fatalf("after Insert(1): total = %d, want 1", d.Total())
	}
	if tr.Insert(keys.Map(1)) || d.Total() != 1 {
		t.Fatalf("duplicate insert bumped: total = %d, want 1", d.Total())
	}
	if tr.Delete(keys.Map(2)) || d.Total() != 1 {
		t.Fatalf("absent delete bumped: total = %d, want 1", d.Total())
	}
	if !tr.Delete(keys.Map(1)) || d.Total() != 2 {
		t.Fatalf("after Delete(1): total = %d, want 2", d.Total())
	}

	ks := make([]uint64, 8)
	for i := range ks {
		ks[i] = keys.Map(int64(10 + i))
	}
	out := make([]bool, len(ks))
	errs := make([]error, len(ks))
	tr.InsertBatch(ks, out, errs)
	if d.Total() != 2+8 {
		t.Fatalf("after InsertBatch: total = %d, want 10", d.Total())
	}
	tr.InsertBatch(ks, out, errs) // all duplicates: no bumps
	if d.Total() != 10 {
		t.Fatalf("duplicate batch bumped: total = %d, want 10", d.Total())
	}
	tr.DeleteBatch(ks[:4], out[:4])
	if d.Total() != 14 {
		t.Fatalf("after DeleteBatch: total = %d, want 14", d.Total())
	}
}

// TestDirtySurvivesHandleChurn checks the shard lifecycle: closing a
// handle folds its counts into the base total rather than dropping them.
func TestDirtySurvivesHandleChurn(t *testing.T) {
	tr := New(Config{Capacity: 1 << 20, Reclaim: true, TrackDirty: true})
	defer tr.Close()
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tr.NewHandle()
			defer h.Close() // retire mid-test: counts must fold into base
			for i := 0; i < each; i++ {
				h.Insert(keys.Map(int64(w*each + i)))
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Dirty().Total(); got != workers*each {
		t.Fatalf("total after handle churn = %d, want %d", got, workers*each)
	}
}

// TestDirtyDrainReturnsBumpedKeys pins the key log the incremental
// order-statistics waves rely on: a drain returns exactly the keys of the
// mutations counted since the previous drain — from live and closed
// handles — with the same total Total reports, and a handle that laps its
// ring is reported as overflow rather than as a partial key set.
func TestDirtyDrainReturnsBumpedKeys(t *testing.T) {
	tr := New(Config{Capacity: 1 << 16, Reclaim: true, TrackDirty: true})
	defer tr.Close()
	d := tr.Dirty()
	drain := func() ([]uint64, uint64, bool) {
		ks, total, overflow := d.Drain(nil)
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		return ks, total, overflow
	}

	h1, h2 := tr.NewHandle(), tr.NewHandle()
	var want []uint64
	for i := int64(0); i < 40; i++ {
		h := h1
		if i%2 == 1 {
			h = h2
		}
		if !h.Insert(keys.Map(i)) {
			t.Fatalf("insert %d failed", i)
		}
		want = append(want, keys.Map(i))
	}
	h1.Insert(keys.Map(0)) // duplicate: not a mutation, not logged
	h2.Delete(keys.Map(3))
	want = append(want, keys.Map(3))
	h2.Close() // its log must survive until the next drain
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	got, total, overflow := drain()
	if overflow || total != uint64(len(want)) || total != d.Total() {
		t.Fatalf("drain: total %d overflow %v, want total %d (Total %d) and no overflow",
			total, overflow, len(want), d.Total())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("drained keys\n got %v\nwant %v", got, want)
	}
	if got, total2, overflow := drain(); len(got) != 0 || overflow || total2 != total {
		t.Fatalf("second drain returned %d keys (overflow %v, total %d), want none", len(got), overflow, total2)
	}

	// DirtyRing mutations without a drain lap the ring.
	for i := int64(0); i < DirtyRing; i++ {
		h1.Insert(keys.Map(1000 + i))
	}
	if _, total, overflow := drain(); !overflow || total != d.Total() {
		t.Fatalf("lapped ring: overflow %v total %d, want overflow and total %d", overflow, total, d.Total())
	}
	// The lapped positions are consumed: the next burst drains cleanly.
	h1.Delete(keys.Map(1000))
	if got, _, overflow := drain(); overflow || !slices.Equal(got, []uint64{keys.Map(1000)}) {
		t.Fatalf("after overflow: drained %v overflow %v, want the one delete", got, overflow)
	}
	h1.Close()
}

// TestDirtyDrainRacesWriters drains while writers mutate in bursts shorter
// than the ring: every mutation's key comes back from exactly one drain
// (run it under -race: the ring stores and drain loads must not race).
func TestDirtyDrainRacesWriters(t *testing.T) {
	tr := New(Config{Capacity: 1 << 20, Reclaim: true, TrackDirty: true})
	defer tr.Close()
	d := tr.Dirty()
	const writers, bursts, burst = 2, 50, DirtyRing / 4
	var wg sync.WaitGroup
	drained := make(chan struct{}, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tr.NewHandle()
			defer h.Close()
			for b := 0; b < bursts; b++ {
				for i := 0; i < burst; i++ {
					h.Insert(keys.Map(int64((w*bursts+b)*burst + i)))
				}
				<-drained // pace: at most one burst logged per drain
			}
		}(w)
	}
	seen := map[uint64]int{}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		ks, _, overflow := d.Drain(nil)
		if overflow {
			t.Fatal("paced writers overflowed a ring")
		}
		for _, u := range ks {
			seen[u]++
		}
		for w := 0; w < writers; w++ {
			select {
			case drained <- struct{}{}:
			default:
			}
		}
	}
	if len(seen) != writers*bursts*burst {
		t.Fatalf("drains returned %d distinct keys, want %d", len(seen), writers*bursts*burst)
	}
	for u, n := range seen {
		if n != 1 {
			t.Fatalf("key %d drained %d times", keys.Unmap(u), n)
		}
	}
}
