package main

import (
	"sync"
	"testing"

	bst "repro"
)

func TestKeySetCount(t *testing.T) {
	const n = 1000
	s := newKeySet(n)
	r := newRNG(1, 0)
	for i := 0; i < 400; i++ {
		s.apply(opInsert, int64(r.intn(n)))
	}
	for i := 0; i < 2000; i++ {
		lo, hi := int64(r.intn(n)), int64(r.intn(n))
		want := 0
		for k := lo; k <= hi; k++ {
			if s.has(k) {
				want++
			}
		}
		if got := s.count(lo, hi); got != want {
			t.Fatalf("count(%d, %d) = %d, want %d", lo, hi, got, want)
		}
	}
	if got := s.count(0, n-1); got != s.n {
		t.Fatalf("count of the whole range %d, key count %d", got, s.n)
	}
}

func TestResiduesPartitionTheModel(t *testing.T) {
	const n, m = 1001, 2
	full := newKeySet(n)
	r := newRNG(3, 0)
	for i := 0; i < 500; i++ {
		full.apply(opInsert, int64(r.intn(n)))
	}
	res := splitResidues(full, n, m)
	total := 0
	for _, rs := range res {
		total += rs.model.n
		for i := int64(0); i < rs.size; i++ {
			k := rs.key(i)
			if k >= n || k%m != rs.r || rs.index(k) != i {
				t.Fatalf("residue %d: index %d maps to key %d", rs.r, i, k)
			}
			if rs.model.has(i) != full.has(k) {
				t.Fatalf("residue %d disagrees with the full model on key %d", rs.r, k)
			}
		}
		for i := 0; i < 1000; i++ {
			if k := rs.draw(r); k%m != rs.r || k < 0 || k >= n {
				t.Fatalf("residue %d drew key %d", rs.r, k)
			}
		}
	}
	if total != full.n {
		t.Fatalf("residues hold %d keys, full model %d", total, full.n)
	}
}

func TestFramesHaveDistinctKeys(t *testing.T) {
	res := splitResidues(newKeySet(200), 200, 2)[1] // 100 keys: collisions are frequent
	r := newRNG(5, 0)
	kinds, keys := make([]opKind, 64), make([]int64, 64)
	for f := 0; f < 200; f++ {
		res.frameOps(r, kinds, keys)
		seen := map[int64]bool{}
		for _, k := range keys {
			if seen[k] || k%2 != 1 {
				t.Fatalf("frame %d: key %d repeated or not owned", f, k)
			}
			seen[k] = true
		}
	}
}

// TestResidueModelsPredictConcurrentWriters runs two goroutines on one
// tree, each mutating only its own residue, and checks that each private
// model predicts every result although the goroutines interleave freely.
func TestResidueModelsPredictConcurrentWriters(t *testing.T) {
	const n = 4096
	tree := bst.New(bst.WithReclamation())
	defer tree.Close()
	full := newKeySet(n)
	for k := int64(0); k < n; k += 3 {
		tree.Insert(k)
		full.apply(opInsert, k)
	}
	var wg sync.WaitGroup
	for i, res := range splitResidues(full, n, 2) {
		wg.Add(1)
		go func(seed int64, res *residue) {
			defer wg.Done()
			acc := tree.NewAccessor()
			defer acc.Close()
			r := newRNG(seed, 0)
			for j := 0; j < 50_000; j++ {
				op, k := r.mixedOp(), res.draw(r)
				var got bool
				switch op {
				case opInsert:
					got = acc.Insert(k)
				case opDelete:
					got = acc.Delete(k)
				default:
					got = acc.Contains(k)
				}
				if err := checkOutcome(op, k, got, res.model.apply(op, res.index(k))); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(i), res)
	}
	wg.Wait()
}
