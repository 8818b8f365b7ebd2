package bst_test

import (
	"errors"
	"testing"

	bst "repro"
)

func TestTryInsertBasics(t *testing.T) {
	s := bst.New()
	ok, err := s.TryInsert(42)
	if err != nil || !ok {
		t.Fatalf("TryInsert(42) = (%v, %v), want (true, nil)", ok, err)
	}
	ok, err = s.TryInsert(42)
	if err != nil || ok {
		t.Fatalf("duplicate TryInsert(42) = (%v, %v), want (false, nil)", ok, err)
	}
	if !s.Contains(42) {
		t.Fatal("key missing after TryInsert")
	}
}

func TestTryInsertKeyOutOfRange(t *testing.T) {
	s := bst.New()
	if _, err := s.TryInsert(bst.MaxKey + 1); !errors.Is(err, bst.ErrKeyOutOfRange) {
		t.Fatalf("TryInsert(MaxKey+1) err = %v, want ErrKeyOutOfRange", err)
	}
	// The panicking path is unchanged.
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(MaxKey+1) did not panic")
		}
	}()
	s.Insert(bst.MaxKey + 1)
}

func TestTryInsertCapacityExhaustion(t *testing.T) {
	s := bst.New(bst.WithCapacity(64))
	var kept []int64
	var capErr error
	for k := int64(0); k < 1000; k++ {
		ok, err := s.TryInsert(k)
		if err != nil {
			capErr = err
			break
		}
		if !ok {
			t.Fatalf("TryInsert(%d) = false on a fresh key", k)
		}
		kept = append(kept, k)
	}
	if !errors.Is(capErr, bst.ErrCapacity) {
		t.Fatalf("bounded tree never returned ErrCapacity (err=%v)", capErr)
	}

	// Exhaustion degrades gracefully: reads, deletes and validation all
	// keep working on the full tree.
	for _, k := range kept {
		if !s.Contains(k) {
			t.Fatalf("key %d lost after exhaustion", k)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("tree invalid after exhaustion: %v", err)
	}
	if !s.Delete(kept[0]) {
		t.Fatal("Delete failed on an exhausted tree")
	}

	h := s.Health()
	if h.Capacity != 64 || h.NodesAllocated == 0 {
		t.Fatalf("implausible health after exhaustion: %+v", h)
	}
}

func TestCapacityRecoveryAfterReclamation(t *testing.T) {
	s := bst.New(bst.WithCapacity(128), bst.WithReclamation())
	a := s.NewAccessor()
	var kept []int64
	for k := int64(0); ; k++ {
		ok, err := a.TryInsert(k)
		if err != nil {
			if !errors.Is(err, bst.ErrCapacity) {
				t.Fatalf("TryInsert err = %v", err)
			}
			break
		}
		if !ok {
			t.Fatalf("TryInsert(%d) = false on a fresh key", k)
		}
		kept = append(kept, k)
		if k > 1000 {
			t.Fatal("tree never exhausted")
		}
	}

	// Delete half, then insert again: the retry path flushes epochs until
	// the freed nodes recycle.
	for _, k := range kept[:len(kept)/2] {
		if !a.Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	ok, err := a.TryInsert(1 << 40)
	if err != nil || !ok {
		t.Fatalf("TryInsert after frees = (%v, %v), want (true, nil)", ok, err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if !h.ReclaimEnabled || h.NodesRecycled == 0 {
		t.Fatalf("recovery left no reclamation trace: %+v", h)
	}
}
