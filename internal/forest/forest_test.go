package forest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 1} {
		f, err := New(Config{Shards: n})
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		if f.Shards() != 1 {
			t.Fatalf("%d shards should build one shard, got %d", n, f.Shards())
		}
		for _, u := range []uint64{0, 1 << 63, keys.Map(keys.MaxUser)} {
			if s := f.ShardOf(u); s != 0 {
				t.Fatalf("one shard routes %d to shard %d", u, s)
			}
		}
	}
	if _, err := New(Config{Shards: MaxShards + 1}); err == nil {
		t.Fatal("want error above MaxShards")
	}
	f, err := New(Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if f.Shards() != 4 {
		t.Fatalf("3 shards should round to 4, got %d", f.Shards())
	}
}

// TestRoutingPartition checks that ShardOf and Bounds agree: every shard's
// bounds route back to it, bounds tile the key space without gaps, and
// keys outside a narrowed routing range clamp to the edge shards.
func TestRoutingPartition(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64} {
		for _, narrow := range []bool{false, true} {
			cfg := Config{Shards: n}
			if narrow {
				cfg.Lo, cfg.Hi = keys.Map(0), keys.Map(1<<20-1)
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prevHi := uint64(0)
			for i := 0; i < f.Shards(); i++ {
				lo, hi := f.Bounds(i)
				if i == 0 && lo != 0 {
					t.Fatalf("n=%d shard 0 lo = %d, want 0", n, lo)
				}
				if i > 0 && lo != prevHi+1 {
					t.Fatalf("n=%d shard %d lo = %d, want %d (no gap/overlap)", n, i, lo, prevHi+1)
				}
				if i == f.Shards()-1 && hi != keys.Map(keys.MaxUser) {
					t.Fatalf("n=%d last shard hi = %d, want top of user space", n, hi)
				}
				if got := f.ShardOf(lo); got != i {
					t.Fatalf("n=%d ShardOf(lo of shard %d) = %d", n, i, got)
				}
				if got := f.ShardOf(hi); got != i {
					t.Fatalf("n=%d ShardOf(hi of shard %d) = %d", n, i, got)
				}
				prevHi = hi
			}
		}
	}
}

func TestPointOpsAndSize(t *testing.T) {
	f, err := New(Config{Shards: 4, Lo: keys.Map(0), Hi: keys.Map(1 << 16)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	want := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		// Mix of in-range and clamped out-of-range keys.
		u := keys.Map(rng.Int63n(1 << 18))
		if rng.Intn(3) == 0 {
			f.Delete(u)
			delete(want, u)
		} else {
			f.Insert(u)
			want[u] = true
		}
	}
	for u := range want {
		if !f.Search(u) {
			t.Fatalf("key %d missing", u)
		}
	}
	if f.Size() != len(want) {
		t.Fatalf("Size = %d, want %d", f.Size(), len(want))
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestKeysSortedAcrossShards(t *testing.T) {
	f, err := New(Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		f.Insert(keys.Map(rng.Int63()))
	}
	var got []uint64
	f.Keys(func(u uint64) bool { got = append(got, u); return true })
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("Keys stream not globally sorted")
	}
	if len(got) != f.Size() {
		t.Fatalf("Keys yielded %d, Size %d", len(got), f.Size())
	}
}

func TestRangeMerge(t *testing.T) {
	f, err := New(Config{Shards: 4, Lo: keys.Map(0), Hi: keys.Map(4096)})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k <= 4096; k += 3 {
		f.Insert(keys.Map(k))
	}
	var got []int64
	f.Range(keys.Map(100), keys.Map(3000), func(u uint64) bool {
		got = append(got, keys.Unmap(u))
		return true
	})
	var want []int64
	for k := int64(102); k <= 3000; k += 3 {
		want = append(want, k)
	}
	if len(got) != len(want) {
		t.Fatalf("range yielded %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Early stop.
	count := 0
	f.Range(0, keys.Map(keys.MaxUser), func(uint64) bool { count++; return count < 10 })
	if count != 10 {
		t.Fatalf("early stop yielded %d", count)
	}
}

func TestHandleBatchRoundTrip(t *testing.T) {
	f, err := New(Config{Shards: 8, Lo: keys.Map(0), Hi: keys.Map(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	h := f.NewHandle()
	defer h.Close()
	const n = 4096 // large enough to fan out concurrently
	ks := make([]uint64, n)
	for i := range ks {
		// Distinct keys spread across all shards (unsorted input).
		ks[i] = keys.Map(int64(i)*173 + 7)
	}
	rand.New(rand.NewSource(3)).Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	out := make([]bool, n)
	errs := make([]error, n)
	h.InsertBatch(ks, out, errs)
	for i := range ks {
		if errs[i] != nil || !out[i] {
			t.Fatalf("insert %d: ok=%v err=%v", i, out[i], errs[i])
		}
	}
	look := make([]bool, n)
	h.LookupBatch(ks, look)
	for i := range look {
		if !look[i] {
			t.Fatalf("lookup %d missing", i)
		}
	}
	del := make([]bool, n)
	h.DeleteBatch(ks, del)
	for i := range del {
		if !del[i] {
			t.Fatalf("delete %d reported no change", i)
		}
	}
	if f.Size() != 0 {
		t.Fatalf("Size after delete-all = %d", f.Size())
	}
}

// TestCapacityIsolation pins the satellite requirement: a shard exhausting
// its arena fails only its own keys' slots; ops routed to sibling shards
// in the same batch succeed.
func TestCapacityIsolation(t *testing.T) {
	// 4 shards over [0, 4096): tiny total capacity so each shard can hold
	// only a handful of user keys beyond its bootstrap sentinels.
	f, err := New(Config{Shards: 4, Lo: keys.Map(0), Hi: keys.Map(4095),
		Tree: core.Config{Capacity: 128}})
	if err != nil {
		t.Fatal(err)
	}
	_, shard0Hi := f.Bounds(0)
	// Exhaust shard 0 with distinct keys (2 nodes per insert).
	for k := uint64(0); ; k++ {
		if k > shard0Hi {
			t.Fatal("could not exhaust shard 0")
		}
		if _, err := f.TryInsert(k); errors.Is(err, core.ErrCapacity) {
			break
		}
	}
	// A batch spanning all four shards: shard 0's fresh keys must fail
	// with ErrCapacity, the other shards' keys must succeed.
	lo1, _ := f.Bounds(1)
	lo2, _ := f.Bounds(2)
	lo3, _ := f.Bounds(3)
	ks := []uint64{shard0Hi, lo1 + 5, shard0Hi - 1, lo2 + 5, lo3 + 5}
	out := make([]bool, len(ks))
	errs := make([]error, len(ks))
	f.InsertBatch(ks, out, errs)
	for _, i := range []int{0, 2} {
		if !errors.Is(errs[i], core.ErrCapacity) {
			t.Fatalf("slot %d (exhausted shard): err=%v, want ErrCapacity", i, errs[i])
		}
	}
	for _, i := range []int{1, 3, 4} {
		if errs[i] != nil || !out[i] {
			t.Fatalf("slot %d (healthy shard) poisoned: ok=%v err=%v", i, out[i], errs[i])
		}
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	reg := metrics.NewRegistry(0)
	f, err := New(Config{Shards: 4, Lo: keys.Map(0), Hi: keys.Map(1 << 16),
		Tree: core.Config{Reclaim: true, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := f.NewHandle()
			defer h.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			ks := make([]uint64, 64)
			out := make([]bool, 64)
			errs := make([]error, 64)
			for i := 0; i < 200; i++ {
				for j := range ks {
					ks[j] = keys.Map(rng.Int63n(1 << 16))
				}
				switch i % 3 {
				case 0:
					h.InsertBatch(ks, out, errs)
				case 1:
					h.LookupBatch(ks, out)
				default:
					h.DeleteBatch(ks, out)
				}
				h.Insert(keys.Map(rng.Int63n(1 << 16)))
				h.Delete(keys.Map(rng.Int63n(1 << 16)))
				h.Search(keys.Map(rng.Int63n(1 << 16)))
			}
		}(w)
	}
	wg.Wait()
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Gauges["forest_shards"] != 4 {
		t.Fatalf("forest_shards gauge = %v", snap.Gauges["forest_shards"])
	}
	if snap.Gauges["arena_capacity_nodes"] != float64(4*core.DefaultCapacity) {
		t.Fatalf("arena_capacity_nodes should sum across shards: %v", snap.Gauges["arena_capacity_nodes"])
	}
	f.Close()
}

func TestHealthAggregates(t *testing.T) {
	f, err := New(Config{Shards: 2, Tree: core.Config{Capacity: 1 << 10, Reclaim: true}})
	if err != nil {
		t.Fatal(err)
	}
	h := f.Health()
	if h.Capacity != 1<<10 {
		t.Fatalf("Capacity = %d, want total %d", h.Capacity, 1<<10)
	}
	if !h.Reclaim {
		t.Fatal("Reclaim should be on")
	}
	f.Close()
}

func BenchmarkShardOf(b *testing.B) {
	f, err := New(Config{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += f.ShardOf(uint64(i) * 0x9e3779b97f4a7c15)
	}
	_ = sink
}

func Example() {
	f, _ := New(Config{Shards: 4, Lo: keys.Map(0), Hi: keys.Map(999)})
	f.Insert(keys.Map(1))
	f.Insert(keys.Map(500))
	fmt.Println(f.Size())
	// Output: 2
}
