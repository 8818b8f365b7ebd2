package orderstat

import (
	"math/rand"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
)

// BenchmarkRefreshWave measures the wave-cost cell: one incremental
// refresh wave on 500K keys shuffled into a 1M-key range, after 32 random
// mutations (half inserts, half deletes) from one writer. Only the Refresh
// calls count, timed and measured by hand around each call: b.StopTimer
// and b.StartTimer read the memory statistics on every call, which would
// distort a wave this short. Reports ns/wave and B/wave; regenerate with
//
//	go test ./internal/orderstat -run '^$' -bench RefreshWave -count 5
func BenchmarkRefreshWave(b *testing.B) {
	const span, mutations = 1_000_000, 32
	tree := core.New(core.Config{Reclaim: true, TrackDirty: true})
	defer tree.Close()
	ix, err := New(tree)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	h := tree.NewHandle()
	defer h.Close()
	rng := rand.New(rand.NewSource(1))
	for _, k := range rng.Perm(span)[:span/2] {
		h.Insert(keys.Map(int64(k)))
	}
	ix.Refresh()
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	var elapsed time.Duration
	var bytes uint64
	b.ResetTimer()
	for range b.N {
		for range mutations {
			k := keys.Map(int64(rng.Intn(span)))
			if rng.Intn(2) == 0 {
				h.Insert(k)
			} else {
				h.Delete(k)
			}
		}
		a0, t0 := allocated(), time.Now()
		ix.Refresh()
		elapsed += time.Since(t0)
		bytes += allocated() - a0
	}
	b.StopTimer()
	if st := ix.Stats(); st.FullWaves != 1 {
		b.Fatalf("%d full waves, want only the first", st.FullWaves)
	}
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/wave")
	b.ReportMetric(float64(bytes)/float64(b.N), "B/wave")
}
