package bst_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	bst "repro"
)

// eachShape runs f on a one-shard and a four-shard tree, the one
// construction choice that changes which code a public call runs.
func eachShape(t *testing.T, f func(t *testing.T, tree *bst.Tree)) {
	t.Helper()
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f(t, bst.New(bst.WithShards(shards), bst.WithCapacity(1<<21)))
		})
	}
}

func TestPublicAPIBasics(t *testing.T) {
	eachShape(t, func(t *testing.T, s *bst.Tree) {
		if s.Contains(1) {
			t.Fatal("empty tree contains 1")
		}
		if !s.Insert(1) || s.Insert(1) {
			t.Fatal("insert semantics wrong")
		}
		if !s.Contains(1) {
			t.Fatal("inserted key missing")
		}
		if s.Len() != 1 {
			t.Fatalf("Len = %d", s.Len())
		}
		if !s.Delete(1) || s.Delete(1) {
			t.Fatal("delete semantics wrong")
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPublicAPINegativeKeys(t *testing.T) {
	eachShape(t, func(t *testing.T, s *bst.Tree) {
		ks := []int64{-5, 0, 5, -1 << 60, 1 << 60}
		for _, k := range ks {
			if !s.Insert(k) {
				t.Fatalf("insert %d failed", k)
			}
		}
		for _, k := range ks {
			if !s.Contains(k) {
				t.Fatalf("key %d missing", k)
			}
		}
		min, ok := s.Min()
		if !ok || min != -1<<60 {
			t.Fatalf("Min = %d, %v", min, ok)
		}
		max, ok := s.Max()
		if !ok || max != 1<<60 {
			t.Fatalf("Max = %d, %v", max, ok)
		}
	})
}

func TestAscendOrder(t *testing.T) {
	eachShape(t, func(t *testing.T, s *bst.Tree) {
		rng := rand.New(rand.NewSource(1))
		want := map[int64]bool{}
		for i := 0; i < 500; i++ {
			k := int64(rng.Intn(10000) - 5000)
			s.Insert(k)
			want[k] = true
		}
		prev := int64(-1 << 62)
		n := 0
		s.Ascend(func(k int64) bool {
			if k <= prev {
				t.Fatalf("Ascend out of order: %d after %d", k, prev)
			}
			if !want[k] {
				t.Fatalf("Ascend yielded unexpected key %d", k)
			}
			prev = k
			n++
			return true
		})
		if n != len(want) {
			t.Fatalf("Ascend yielded %d keys, want %d", n, len(want))
		}
	})
}

func TestAscendRange(t *testing.T) {
	s := bst.New()
	for i := int64(0); i < 100; i++ {
		s.Insert(i)
	}
	var got []int64
	s.AscendRange(10, 19, func(k int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("AscendRange wrong: %v", got)
	}
}

func TestAccessorConcurrent(t *testing.T) {
	eachShape(t, func(t *testing.T, s *bst.Tree) {
		const workers = 4
		const each = 2000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				a := s.NewAccessor()
				for i := 0; i < each; i++ {
					a.Insert(int64(w*each + i))
				}
			}(w)
		}
		wg.Wait()
		if s.Len() != workers*each {
			t.Fatalf("Len = %d, want %d", s.Len(), workers*each)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestKeyRangePanics(t *testing.T) {
	s := bst.New()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range key did not panic")
		}
	}()
	s.Insert(bst.MaxKey + 1)
}

func TestMaxKeyStorable(t *testing.T) {
	s := bst.New()
	if !s.Insert(bst.MaxKey) || !s.Contains(bst.MaxKey) {
		t.Fatal("MaxKey not storable")
	}
}

func TestReclamationOption(t *testing.T) {
	s := bst.New(bst.WithReclamation(), bst.WithCapacity(1<<16))
	// Churn far more inserts than the capacity could hold without
	// recycling: 2 nodes per insert × 200k inserts ≫ 65k slots.
	a := s.NewAccessor()
	for i := 0; i < 200000; i++ {
		k := int64(i % 50)
		a.Insert(k)
		a.Delete(k)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestEmptyTreeMinMax(t *testing.T) {
	s := bst.New()
	if _, ok := s.Min(); ok {
		t.Fatal("Min on empty returned ok")
	}
	if _, ok := s.Max(); ok {
		t.Fatal("Max on empty returned ok")
	}
}
