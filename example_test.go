package bst_test

import (
	"fmt"

	bst "repro"
)

func ExampleNew() {
	s := bst.New() // the paper's lock-free Natarajan–Mittal tree
	fmt.Println(s.Insert(10))
	fmt.Println(s.Insert(10)) // duplicate
	fmt.Println(s.Contains(10))
	fmt.Println(s.Delete(10))
	fmt.Println(s.Contains(10))
	// Output:
	// true
	// false
	// true
	// true
	// false
}

func ExampleTree_Ascend() {
	s := bst.New()
	for _, k := range []int64{30, 10, 20} {
		s.Insert(k)
	}
	s.Ascend(func(k int64) bool {
		fmt.Println(k)
		return true
	})
	// Output:
	// 10
	// 20
	// 30
}

func ExampleTree_AscendRange() {
	s := bst.New()
	for i := int64(0); i < 10; i++ {
		s.Insert(i * 10)
	}
	s.AscendRange(25, 55, func(k int64) bool {
		fmt.Println(k)
		return true
	})
	// Output:
	// 30
	// 40
	// 50
}

func ExampleTree_NewAccessor() {
	s := bst.New()
	// One accessor per goroutine: private seek record and node allocator.
	a := s.NewAccessor()
	for i := int64(0); i < 100; i++ {
		a.Insert(i * 7 % 100)
	}
	fmt.Println(s.Len())
	// Output:
	// 100
}

func ExampleWithReclamation() {
	// A long-lived set under churn: deleted nodes are recycled after a
	// grace period, so a small arena sustains unbounded operations.
	s := bst.New(bst.WithReclamation(), bst.WithCapacity(1<<16))
	a := s.NewAccessor()
	for i := 0; i < 100_000; i++ {
		a.Insert(int64(i % 10))
		a.Delete(int64(i % 10))
	}
	fmt.Println(s.Len())
	// Output:
	// 0
}

func ExampleNewMap() {
	m := bst.NewMap[string]()
	fmt.Println(m.Put(1, "one")) // insert
	fmt.Println(m.Put(1, "uno")) // replace (single-CAS leaf swap)
	v, ok := m.Get(1)
	fmt.Println(v, ok)
	fmt.Println(m.PutIfAbsent(1, "ein"))
	fmt.Println(m.Delete(1))
	// Output:
	// false
	// true
	// uno true
	// false
	// true
}

func ExampleMap_Ascend() {
	m := bst.NewMap[int]()
	for i := int64(3); i >= 1; i-- {
		m.Put(i, int(i)*100)
	}
	m.Ascend(func(k int64, v int) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 1 100
	// 2 200
	// 3 300
}

func ExampleTree_Min() {
	s := bst.New()
	s.Insert(42)
	s.Insert(-7)
	min, _ := s.Min()
	max, _ := s.Max()
	fmt.Println(min, max)
	// Output:
	// -7 42
}
