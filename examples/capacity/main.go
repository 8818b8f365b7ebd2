// Command capacity demonstrates graceful degradation at the arena bound:
// TryInsert surfaces ErrCapacity instead of panicking, the full tree keeps
// serving reads and deletes, Health reports the pressure, and reclamation
// recovers the capacity after frees.
package main

import (
	"errors"
	"fmt"
	"log"

	bst "repro"
)

func main() {
	s := bst.New(bst.WithCapacity(256), bst.WithReclamation())

	// Fill until the arena pushes back.
	var live []int64
	for k := int64(0); ; k++ {
		ok, err := s.TryInsert(k)
		if errors.Is(err, bst.ErrCapacity) {
			fmt.Printf("arena full after %d keys: %v\n", len(live), err)
			break
		}
		if err != nil || !ok {
			log.Fatalf("TryInsert(%d) = (%v, %v)", k, ok, err)
		}
		live = append(live, k)
	}

	// A full tree is not a broken tree.
	fmt.Printf("still serving: Contains(%d)=%v, Len=%d\n", live[0], s.Contains(live[0]), s.Len())
	h := s.Health()
	fmt.Printf("health: allocated=%d recycled=%d backlog=%d stalled=%d\n",
		h.NodesAllocated, h.NodesRecycled, h.RetiredBacklog, h.StalledSlots)

	// Free a quarter; reclamation hands the slots back and inserts resume.
	for _, k := range live[:len(live)/4] {
		s.Delete(k)
	}
	ok, err := s.TryInsert(1 << 40)
	fmt.Printf("after frees: TryInsert = (%v, %v), recycled=%d\n", ok, err, s.Health().NodesRecycled)
	if err := s.Validate(); err != nil {
		log.Fatal(err)
	}

	// Out-of-range keys error on the Try path instead of panicking.
	if _, err := s.TryInsert(bst.MaxKey + 1); err != nil {
		fmt.Println("out of range:", err)
	}
}
