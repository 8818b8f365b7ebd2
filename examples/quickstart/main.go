// Quickstart: a tour of the public API — constructing trees, the basic
// set operations, per-goroutine accessors for hot paths, ordered
// iteration, and the ordered map. The paper's baselines are compared
// against this tree by `go run ./cmd/bstbench -targets nm,efrb,hj,bcco`.
package main

import (
	"fmt"
	"sync"

	bst "repro"
)

func main() {
	// Default: the paper's lock-free Natarajan–Mittal tree.
	s := bst.New()

	// Basic operations. Every method is safe for concurrent use.
	fmt.Println("insert 42:", s.Insert(42)) // true — the set changed
	fmt.Println("insert 42:", s.Insert(42)) // false — duplicate
	fmt.Println("contains 42:", s.Contains(42))
	fmt.Println("delete 42:", s.Delete(42))
	fmt.Println("contains 42:", s.Contains(42))

	// Hot loops: give each goroutine its own Accessor. It carries the
	// per-thread seek record and node allocator the paper describes, so
	// operations don't touch shared setup state.
	//
	// Note the scrambled keys: an *unbalanced* BST (this algorithm, like
	// the paper's) degrades to O(n) paths on sorted input. scramble is a
	// bijection, so 40k distinct ids stay 40k distinct keys, now spread
	// uniformly. Inherently sorted keys (timestamps, sequence numbers)
	// need the same treatment, or interleaved arrival like the orderindex
	// example's partitioned replay.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := s.NewAccessor()
			for i := 0; i < 10_000; i++ {
				a.Insert(scramble(int64(w*10_000 + i)))
			}
		}(w)
	}
	wg.Wait()
	fmt.Println("len after concurrent load:", s.Len())

	// Ordered iteration (quiescent).
	sum := 0
	s.Ascend(func(k int64) bool { sum++; return sum < 5 })
	min, _ := s.Min()
	max, _ := s.Max()
	fmt.Printf("min=%d max=%d\n", min, max)

	// Range queries over a small sequential set.
	ranged := bst.New()
	for i := int64(0); i < 1000; i++ {
		ranged.Insert(i)
	}
	count := 0
	ranged.AscendRange(100, 199, func(int64) bool { count++; return true })
	fmt.Println("keys in [100,199]:", count)

	// An ordered map: the same algorithm with boxed edges and values on
	// the leaves, reclaimed by the GC, so there is no arena to size.
	m := bst.NewMap[string]()
	m.Put(7, "seven")
	v, _ := m.Get(7)
	fmt.Println("map get 7:", v)

	// Long-lived sets under churn: enable epoch-based reclamation so
	// deleted nodes are recycled (the paper defers this to future work).
	lived := bst.New(bst.WithReclamation(), bst.WithCapacity(1<<20))
	a := lived.NewAccessor()
	for i := 0; i < 1_000_000; i++ {
		k := int64(i % 1000)
		a.Insert(k)
		a.Delete(k)
	}
	fmt.Println("churned 1M ops through a 2^20-node arena: len =", lived.Len())
}

// scramble maps ids to well-spread keys. Multiplying by an odd constant is
// a bijection on 64-bit integers, so distinct ids stay distinct.
func scramble(id int64) int64 {
	k := int64(uint64(id) * 0x9E3779B97F4A7C15)
	if k > bst.MaxKey { // the three reserved sentinel values
		k -= 4
	}
	return k
}
