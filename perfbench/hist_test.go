package main

import (
	"math"
	"sort"
	"testing"
)

func TestBucketsAtMostTwoPercentWide(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if hi <= lo {
			t.Fatalf("bucket %d: empty range [%d, %d)", i, lo, hi)
		}
		if bucketOf(lo) != i || bucketOf(hi-1) != i {
			t.Fatalf("bucket %d = [%d, %d) but bucketOf maps its ends to %d and %d", i, lo, hi, bucketOf(lo), bucketOf(hi-1))
		}
		if lo >= 2*subCount && float64(hi-lo)/float64(lo) > 0.02 {
			t.Fatalf("bucket %d = [%d, %d) is %.2f%% wide", i, lo, hi, 100*float64(hi-lo)/float64(lo))
		}
		if i > 0 {
			if _, prevHi := bucketBounds(i - 1); prevHi != lo {
				t.Fatalf("bucket %d starts at %d, previous ends at %d", i, lo, prevHi)
			}
		}
	}
}

// exactQuantile is the observation of rank ceil(q*n) of sorted xs.
func exactQuantile(xs []uint64, q float64) float64 {
	r := int(math.Ceil(q * float64(len(xs))))
	return float64(xs[max(r, 1)-1])
}

func TestQuantilesWithinBucketWidth(t *testing.T) {
	r := newRNG(42, 0)
	for _, dist := range []struct {
		name string
		draw func() uint64
	}{
		{"uniform", func() uint64 { return 50 + r.intn(200_000) }},
		{"exponential", func() uint64 { return uint64(-20_000 * math.Log(1-float64(r.intn(1<<53))/(1<<53))) }},
		{"bimodal", func() uint64 {
			if r.intn(64) == 0 {
				return 50_000_000 + r.intn(10_000_000) // a refresh wave among cached queries
			}
			return 900 + r.intn(400)
		}},
	} {
		var h Hist
		xs := make([]uint64, 100_000)
		for i := range xs {
			xs[i] = dist.draw()
			h.Record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
			got, want := h.Quantile(q), exactQuantile(xs, q)
			if math.Abs(got-want) > 0.02*want+1 {
				t.Errorf("%s p%g = %.1f, exact %.1f (off by %.2f%%)", dist.name, 100*q, got, want, 100*math.Abs(got-want)/want)
			}
		}
		var sum uint64
		for _, x := range xs {
			sum += x
		}
		if got, want := h.Mean(), float64(sum)/float64(len(xs)); got != want {
			t.Errorf("%s mean = %f, want %f", dist.name, got, want)
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile is not 0")
	}
	h.Record(7)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("single observation 7: p%g = %f", 100*q, got)
		}
	}
	h.Record(1 << 62) // beyond the range: clamps into the last bucket
	if got := h.Quantile(1); got < 1<<40 {
		t.Errorf("clamped observation reads %f", got)
	}
}

func TestMergeEqualsRecordingAll(t *testing.T) {
	var a, b, all Hist
	r := newRNG(7, 0)
	for i := 0; i < 10_000; i++ {
		v := r.intn(1 << 30)
		all.Record(v)
		if i%3 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from one that recorded every value")
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	h := new(Hist)
	v := uint64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v = v*3 + 1 }); n != 0 {
		t.Fatalf("Record allocates %.1f times per call", n)
	}
}
