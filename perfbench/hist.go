package main

import "math/bits"

// Hist is a log-linear latency histogram over nanoseconds. Values below
// 128 ns get one bucket each; above that every power of two is split into
// 64 equal sub-buckets, so a bucket is at most 1/64 (1.6%) of its lower
// bound wide and a quantile, read from inside the bucket that holds it, is
// off by less than that. Record is a few instructions and never
// allocates; a Hist is owned by one goroutine and merged after the
// goroutine stops.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	subBits     = 6
	subCount    = 1 << subBits
	maxShift    = 34 // values up to 2^41 ns (~37 min); larger ones clamp
	histBuckets = (maxShift + 2) * subCount
)

// bucketOf maps v to its bucket: v itself below 2*subCount, otherwise
// s*subCount + (v >> s) where s is chosen so v >> s lies in
// [subCount, 2*subCount).
func bucketOf(v uint64) int {
	if v < 2*subCount {
		return int(v)
	}
	s := bits.Len64(v) - (subBits + 1)
	if s > maxShift {
		return histBuckets - 1
	}
	return s*subCount + int(v>>uint(s))
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < 2*subCount {
		return uint64(i), uint64(i) + 1
	}
	s := uint(i/subCount - 1)
	m := uint64(i - int(s)*subCount)
	return m << s, (m + 1) << s
}

// Record adds one observation of v nanoseconds.
func (h *Hist) Record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

// Count is the number of observations.
func (h *Hist) Count() uint64 { return h.n }

// Mean is the exact mean in nanoseconds (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile estimates the observation of rank ceil(q*n) in nanoseconds (0
// when empty): it finds the bucket holding that rank and interpolates
// linearly across the bucket by the rank's position among its
// observations.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) || rank == 0 {
		rank++
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, hi := bucketBounds(i)
			if hi-lo == 1 {
				return float64(lo) // exact bucket
			}
			return float64(lo) + float64(hi-lo)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return float64(lo)
}

// Merge adds o's observations to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Reset empties h for reuse.
func (h *Hist) Reset() { *h = Hist{} }
