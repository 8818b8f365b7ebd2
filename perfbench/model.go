package main

import (
	"fmt"
	"math/bits"
)

// rng is a splitmix64 stream: fast, seedable, and the same seed always
// gives the same inputs.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed) ^ (stream * 0xD1B54A32D192ED03)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// opKind is one point operation of the 70/20/10 mix.
type opKind uint8

const (
	opLookup opKind = iota
	opInsert
	opDelete
)

var opNames = [...]string{"lookup", "insert", "delete"}

// mixedOp draws an operation kind: 70% lookups, 20% inserts, 10% deletes.
func (r *rng) mixedOp() opKind {
	switch x := r.intn(10); {
	case x < 7:
		return opLookup
	case x < 9:
		return opInsert
	default:
		return opDelete
	}
}

// shuffled returns a seeded permutation of [0, n).
func shuffled(r *rng, n int) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// keySet is the benchmark's model of which keys the program holds: one
// bit per key of [0, n). Every result the program returns is checked
// against it, and it is updated only from the model's own prediction.
type keySet struct {
	words []uint64
	n     int
}

func newKeySet(n int) *keySet { return &keySet{words: make([]uint64, (n+63)/64)} }

func (s *keySet) has(k int64) bool { return s.words[k>>6]&(1<<(uint64(k)&63)) != 0 }

// apply predicts op's outcome on k (present for a lookup, set changed for
// an insert or delete) and updates the model to match.
func (s *keySet) apply(op opKind, k int64) bool {
	w, bit := &s.words[k>>6], uint64(1)<<(uint64(k)&63)
	present := *w&bit != 0
	switch op {
	case opInsert:
		if present {
			return false
		}
		*w |= bit
		s.n++
		return true
	case opDelete:
		if !present {
			return false
		}
		*w &^= bit
		s.n--
		return true
	}
	return present
}

// count returns how many keys of [lo, hi] the model holds.
func (s *keySet) count(lo, hi int64) int {
	if lo > hi {
		return 0
	}
	lw, hw := lo>>6, hi>>6
	loMask := ^uint64(0) << (uint64(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint64(hi)&63)
	if lw == hw {
		return bits.OnesCount64(s.words[lw] & loMask & hiMask)
	}
	c := bits.OnesCount64(s.words[lw]&loMask) + bits.OnesCount64(s.words[hw]&hiMask)
	for _, w := range s.words[lw+1 : hw] {
		c += bits.OnesCount64(w)
	}
	return c
}

// residue is the slice of the key range one load goroutine owns: the keys
// congruent to r modulo m. Goroutines own disjoint residues, so each
// keeps a private model (indexed by key / m) that no other goroutine's
// operations can invalidate, and the model predicts every result even
// though the goroutines run concurrently.
type residue struct {
	r, m  int64
	size  int64 // keys the residue owns
	model *keySet
}

// key maps an index of the residue's model to its key.
func (res *residue) key(i int64) int64 { return i*res.m + res.r }

// draw returns a uniform key of the residue.
func (res *residue) draw(r *rng) int64 { return res.key(int64(r.intn(uint64(res.size)))) }

// index maps a key owned by the residue to its model index.
func (res *residue) index(k int64) int64 { return k / res.m }

// splitResidues partitions the model of [0, n) into m residue models.
func splitResidues(full *keySet, n, m int64) []*residue {
	out := make([]*residue, m)
	for r := int64(0); r < m; r++ {
		size := (n - r + m - 1) / m
		res := &residue{r: r, m: m, size: size, model: newKeySet(int(size))}
		for i := int64(0); i < size; i++ {
			if full.has(res.key(i)) {
				res.model.apply(opInsert, i)
			}
		}
		out[r] = res
	}
	return out
}

// frameOps draws a batch frame of size ops from res's keys with no key
// twice, so the model can predict every slot independently of the order
// the server executes the frame's runs in.
func (res *residue) frameOps(r *rng, kinds []opKind, keys []int64) {
	for i := range keys {
	draw:
		for {
			k := res.draw(r)
			for _, prev := range keys[:i] {
				if prev == k {
					continue draw
				}
			}
			keys[i] = k
			break
		}
		kinds[i] = r.mixedOp()
	}
}

// checkOutcome reports a mismatch between a program result and the
// model's prediction.
func checkOutcome(op opKind, k int64, got, want bool) error {
	if got != want {
		return fmt.Errorf("%s(%d) = %v, model says %v", opNames[op], k, got, want)
	}
	return nil
}
