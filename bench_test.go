// Benchmarks regenerating every table and figure of "Fast Concurrent
// Lock-Free Binary Search Trees" (Natarajan & Mittal, PPoPP 2014), plus
// the ablations called out in DESIGN.md.
//
//	BenchmarkFig4Grid     — Figure 4's 4×3 grid (key range × workload) at a
//	                        fixed goroutine count; full thread sweeps are
//	                        cmd/bstbench's job.
//	BenchmarkFig4Scaling  — Figure 4's x-axis: thread scaling on the
//	                        highest-contention cell (1K keys, write-heavy).
//	BenchmarkTable1       — Table 1's per-operation costs: allocs/op is
//	                        reported directly by the Go benchmark runner.
//	BenchmarkAblation*    — packed-vs-boxed encoding, reclamation on/off,
//	                        uniform-vs-Zipf keys.
//	BenchmarkSearchOnly   — §5's external-vs-internal path-length effect.
//
// Throughput comparisons should read ns/op inverted: lower ns/op = higher
// ops/s. Each parallel benchmark pins its goroutine count via
// b.SetParallelism (GOMAXPROCS is 1 on the reproduction host).
package bst_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	bst "repro"
	"repro/internal/harness"
	"repro/internal/keys"
	"repro/internal/workload"
)

// benchCell runs a harness cell under the Go benchmark runner: the set is
// built and prefilled outside the timer, then b.N operations are spread
// over `goroutines` workers.
func benchCell(b *testing.B, target harness.Target, keyRange int64, mix workload.Mix, goroutines int, cfgMut func(*harness.Config)) {
	b.Helper()
	cfg := harness.Config{
		Threads:       goroutines,
		KeyRange:      keyRange,
		Mix:           mix,
		Seed:          42,
		Prefill:       true,
		ArenaCapacity: 1 << 26,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	inst := target.New(cfg)
	harness.Prefill(inst, cfg)

	gomax := runtime.GOMAXPROCS(0)
	par := goroutines / gomax
	if par < 1 {
		par = 1
	}
	b.SetParallelism(par)

	var workerID atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := workerID.Add(1)
		acc := inst.NewAccessor()
		gen := workload.NewGenerator(mix, keyRange, cfg.Seed+id*0x9e3779b9)
		for pb.Next() {
			op, k := gen.Next()
			u := keys.Map(k)
			switch op {
			case workload.OpSearch:
				acc.Search(u)
			case workload.OpInsert:
				acc.Insert(u)
			default:
				acc.Delete(u)
			}
		}
	})
}

// BenchmarkFig4Grid is Figure 4 at a fixed mid-range goroutine count: one
// sub-benchmark per graph per algorithm. Who wins each cell — and how the
// winner changes as the tree grows and reads dominate — is the figure's
// main result.
func BenchmarkFig4Grid(b *testing.B) {
	const goroutines = 8
	for _, keyRange := range []int64{1_000, 10_000, 100_000, 1_000_000} {
		for _, mix := range workload.Mixes {
			for _, target := range harness.PaperTargets() {
				name := fmt.Sprintf("range=%d/%s/%s", keyRange, mix.Name, target.Name)
				b.Run(name, func(b *testing.B) {
					benchCell(b, target, keyRange, mix, goroutines, nil)
				})
			}
		}
	}
}

// BenchmarkFig4Scaling is the x-axis of Figure 4's highest-contention
// graph (1K keys, write-dominated): throughput as goroutines increase.
func BenchmarkFig4Scaling(b *testing.B) {
	for _, goroutines := range []int{1, 4, 16, 64} {
		for _, target := range harness.PaperTargets() {
			name := fmt.Sprintf("threads=%d/%s", goroutines, target.Name)
			b.Run(name, func(b *testing.B) {
				benchCell(b, target, 1_000, workload.WriteDominated, goroutines, nil)
			})
		}
	}
}

// BenchmarkTable1 measures uncontended single-operation cost per
// algorithm. allocs/op corresponds to Table 1's "objects allocated"
// column (plus Go-specific boxing, discussed in EXPERIMENTS.md); ns/op
// tracks the atomic-instruction gap.
func BenchmarkTable1(b *testing.B) {
	cfg := harness.Config{ArenaCapacity: 1 << 27}
	for _, name := range []string{harness.TargetEFRB, harness.TargetHJ, harness.TargetNM} {
		target, _ := harness.TargetByName(name)
		b.Run("insert/"+name, func(b *testing.B) {
			acc := target.New(cfg).NewAccessor()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Insert(keys.Map(scrambled(i)))
			}
		})
		b.Run("delete/"+name, func(b *testing.B) {
			acc := target.New(cfg).NewAccessor()
			for i := 0; i < b.N; i++ {
				acc.Insert(keys.Map(scrambled(i)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Delete(keys.Map(scrambled(i)))
			}
		})
	}
}

// scrambled spreads sequential ids uniformly (bijective), avoiding the
// degenerate sorted-input case of unbalanced BSTs.
func scrambled(i int) int64 {
	k := int64(uint64(i) * 0x9E3779B97F4A7C15)
	if k > bst.MaxKey {
		k -= 4
	}
	return k
}

// BenchmarkAblationEncoding: the packed-arena child word (paper-faithful
// CAS+BTS) versus the GC-friendly boxed edge records, same algorithm.
func BenchmarkAblationEncoding(b *testing.B) {
	for _, name := range []string{harness.TargetNM, harness.TargetNMBoxed} {
		target, _ := harness.TargetByName(name)
		b.Run(name, func(b *testing.B) {
			benchCell(b, target, 10_000, workload.WriteDominated, 8, nil)
		})
	}
}

// BenchmarkAblationReclaim: epoch-based node recycling on vs off (the
// paper benchmarks with reclamation disabled).
func BenchmarkAblationReclaim(b *testing.B) {
	target, _ := harness.TargetByName(harness.TargetNM)
	for _, reclaim := range []bool{false, true} {
		b.Run(fmt.Sprintf("reclaim=%v", reclaim), func(b *testing.B) {
			benchCell(b, target, 10_000, workload.WriteDominated, 8, func(c *harness.Config) {
				c.Reclaim = reclaim
			})
		})
	}
}

// BenchmarkAblationCASOnly: true BTS (atomic Or) versus the paper's
// CAS-only fallback for tagging sibling edges.
func BenchmarkAblationCASOnly(b *testing.B) {
	target, _ := harness.TargetByName(harness.TargetNM)
	for _, casOnly := range []bool{false, true} {
		name := "bts"
		if casOnly {
			name = "cas-loop"
		}
		b.Run(name, func(b *testing.B) {
			benchCell(b, target, 10_000, workload.WriteDominated, 8, func(c *harness.Config) {
				c.CASOnly = casOnly
			})
		})
	}
}

// BenchmarkAblationZipf: uniform versus skewed key popularity — skew
// concentrates contention on a few hot paths.
func BenchmarkAblationZipf(b *testing.B) {
	target, _ := harness.TargetByName(harness.TargetNM)
	for _, s := range []float64{0, 1.2, 2.0} {
		name := "uniform"
		if s > 0 {
			name = fmt.Sprintf("zipf=%.1f", s)
		}
		b.Run(name, func(b *testing.B) {
			cfg := harness.Config{
				Threads: 8, KeyRange: 100_000, Mix: workload.WriteDominated,
				Seed: 42, Prefill: true, ArenaCapacity: 1 << 26, ZipfS: s,
			}
			inst := target.New(cfg)
			harness.Prefill(inst, cfg)
			var workerID atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := workerID.Add(1)
				acc := inst.NewAccessor()
				var gen *workload.Generator
				if s > 1 {
					gen = workload.NewZipfGenerator(cfg.Mix, cfg.KeyRange, cfg.Seed+id, s)
				} else {
					gen = workload.NewGenerator(cfg.Mix, cfg.KeyRange, cfg.Seed+id)
				}
				for pb.Next() {
					op, k := gen.Next()
					u := keys.Map(k)
					switch op {
					case workload.OpSearch:
						acc.Search(u)
					case workload.OpInsert:
						acc.Insert(u)
					default:
						acc.Delete(u)
					}
				}
			})
		})
	}
}

// BenchmarkExtensionKAry compares the future-work k-ary tree against the
// binary NM tree: higher fan-out shortens search paths (fewer pointer
// hops, better locality) at the price of copying multi-key leaves on
// every update.
func BenchmarkExtensionKAry(b *testing.B) {
	for _, mix := range []workload.Mix{workload.ReadDominated, workload.WriteDominated} {
		for _, name := range []string{harness.TargetNM, harness.TargetKST4, harness.TargetKST16} {
			target, _ := harness.TargetByName(name)
			b.Run(mix.Name+"/"+name, func(b *testing.B) {
				benchCell(b, target, 100_000, mix, 4, nil)
			})
		}
	}
}

// BenchmarkExtensionMap measures the dictionary-with-values extension:
// fresh inserts, hits, and single-CAS value replacements.
func BenchmarkExtensionMap(b *testing.B) {
	b.Run("put-fresh", func(b *testing.B) {
		m := bst.NewMap[int]()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Put(scrambled(i), i)
		}
	})
	b.Run("get-hit", func(b *testing.B) {
		m := bst.NewMap[int]()
		const n = 1 << 16
		for i := 0; i < n; i++ {
			m.Put(scrambled(i), i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Get(scrambled(i % n))
		}
	})
	b.Run("put-replace", func(b *testing.B) {
		m := bst.NewMap[int]()
		const n = 1 << 16
		for i := 0; i < n; i++ {
			m.Put(scrambled(i), i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Put(scrambled(i%n), i)
		}
	})
}

// BenchmarkSearchOnly isolates §5's representation trade-off: the
// external NM tree always walks to a leaf, the internal HJ tree can stop
// early, and the balanced BCCO tree has the shortest worst-case paths.
func BenchmarkSearchOnly(b *testing.B) {
	searchMix := workload.Mix{Name: "search-only", Search: 100}
	for _, name := range []string{harness.TargetNM, harness.TargetHJ, harness.TargetBCCO, harness.TargetEFRB} {
		target, _ := harness.TargetByName(name)
		b.Run(name, func(b *testing.B) {
			benchCell(b, target, 100_000, searchMix, 4, nil)
		})
	}
}

// BenchmarkBatchAmortization — DESIGN §9: the accessor's batched entry
// points against the equivalent single-op loop, per batch size. Each
// round churns `size` inserts, `size` deletes of the oldest live keys and
// `size` lookups against a ~500K-key working set, so ns/op compares
// directly across columns and allocs/op exposes any per-batch allocation
// (the steady-state batch path must not allocate).
//
// Expect the batch columns to trail batch=1 here: in a tight
// steady-state loop the CPU already overlaps the cache misses of
// consecutive *independent single* ops across iterations, so batching
// buys no extra memory-level parallelism and its sort/grouping
// bookkeeping shows up as pure overhead. The win appears when ops
// arrive with work between them — frame decoding, workload generation —
// which is what `bstbench -batch` measures (DESIGN §9).
func BenchmarkBatchAmortization(b *testing.B) {
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			tr := bst.New(bst.WithCapacity(1 << 23))
			acc := tr.NewAccessor()
			const prefill = 500_000
			for i := 0; i < prefill; i++ {
				acc.Insert(scrambled(i))
			}
			ins := make([]int64, size)
			del := make([]int64, size)
			look := make([]int64, size)
			out := make([]bst.OpResult, size)
			next, oldest := prefill, 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += 3 * size {
				for j := 0; j < size; j++ {
					ins[j] = scrambled(next)
					del[j] = scrambled(oldest)
					look[j] = scrambled(oldest + (j*7919)%prefill)
					next, oldest = next+1, oldest+1
				}
				if size == 1 {
					acc.Insert(ins[0])
					acc.Delete(del[0])
					acc.Contains(look[0])
				} else {
					acc.InsertBatch(ins, out)
					acc.DeleteBatch(del, out)
					acc.ContainsBatch(look, out)
				}
			}
		})
	}
}
