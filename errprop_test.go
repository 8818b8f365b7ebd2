package bst_test

import (
	"errors"
	"sync"
	"testing"

	bst "repro"
)

// These tests pin down error propagation through every public wrapper
// layer: the sentinel errors produced deep in the arena/key layers must
// survive — identity intact for errors.Is — through Accessor.TryInsert,
// the pooled-handle Tree.TryInsert path, and Map.TryPut.

func TestTreeTryInsertCapacityThroughPooledPath(t *testing.T) {
	// Tree-level TryInsert runs on sync.Pool-managed handles; the
	// capacity sentinel must surface through that wrapper identically to
	// the accessor path, including under concurrency.
	tr := bst.New(bst.WithCapacity(128), bst.WithReclamation())
	var kept []int64
	for k := int64(0); ; k++ {
		ok, err := tr.TryInsert(k)
		if err != nil {
			if !errors.Is(err, bst.ErrCapacity) {
				t.Fatalf("pooled TryInsert err = %v, want ErrCapacity", err)
			}
			break
		}
		if !ok {
			t.Fatalf("TryInsert(%d) = false on a fresh key", k)
		}
		kept = append(kept, k)
		if k > 1<<20 {
			t.Fatal("bounded arena accepted 1M keys")
		}
	}

	// Concurrent pooled-path writers at the bound: every error is the
	// capacity sentinel, never a panic, never a different error.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				if _, err := tr.TryInsert(int64(1<<30) + int64(w)*1000 + i); err != nil && !errors.Is(err, bst.ErrCapacity) {
					t.Errorf("concurrent pooled TryInsert err = %v, want ErrCapacity", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Recovery after frees, still through the pooled path.
	for _, k := range kept[:len(kept)/2] {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%d) = false", k)
		}
	}
	recovered := false
	for i := 0; i < 64 && !recovered; i++ {
		ok, err := tr.TryInsert(1 << 40)
		if err == nil {
			recovered = ok
		} else if !errors.Is(err, bst.ErrCapacity) {
			t.Fatalf("recovery TryInsert err = %v", err)
		}
	}
	if !recovered {
		t.Fatal("pooled TryInsert never recovered after half the keys were freed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorTryInsertErrorIdentity(t *testing.T) {
	tr := bst.New(bst.WithCapacity(128), bst.WithReclamation())
	acc := tr.NewAccessor()
	defer acc.Close()

	// Key-range violations are detected before touching the tree and
	// carry the exact sentinel.
	if _, err := acc.TryInsert(bst.MaxKey + 1); !errors.Is(err, bst.ErrKeyOutOfRange) {
		t.Fatalf("TryInsert(MaxKey+1) err = %v, want ErrKeyOutOfRange", err)
	}
	// The two sentinels are distinct: a range error is never a capacity
	// error and vice versa.
	if _, err := acc.TryInsert(bst.MaxKey + 1); errors.Is(err, bst.ErrCapacity) {
		t.Fatalf("range error satisfied errors.Is(ErrCapacity): %v", err)
	}

	var capErr error
	for k := int64(0); ; k++ {
		if _, err := acc.TryInsert(k); err != nil {
			capErr = err
			break
		}
		if k > 1<<20 {
			t.Fatal("bounded arena accepted 1M keys")
		}
	}
	if !errors.Is(capErr, bst.ErrCapacity) {
		t.Fatalf("accessor TryInsert err = %v, want ErrCapacity", capErr)
	}
	if errors.Is(capErr, bst.ErrKeyOutOfRange) {
		t.Fatalf("capacity error satisfied errors.Is(ErrKeyOutOfRange): %v", capErr)
	}
	// MaxKey itself is storable through the fail-soft path (after room is
	// made): boundary, not error.
	acc.Delete(0)
	acc.Delete(1)
	ok, err := acc.TryInsert(bst.MaxKey)
	for i := 0; i < 64 && errors.Is(err, bst.ErrCapacity); i++ {
		ok, err = acc.TryInsert(bst.MaxKey)
	}
	if err != nil || !ok {
		t.Fatalf("TryInsert(MaxKey) after frees = (%v, %v), want (true, nil)", ok, err)
	}
}

func TestMapTryPut(t *testing.T) {
	m := bst.NewMap[string]()

	replaced, err := m.TryPut(7, "a")
	if err != nil || replaced {
		t.Fatalf("TryPut fresh = (%v, %v), want (false, nil)", replaced, err)
	}
	replaced, err = m.TryPut(7, "b")
	if err != nil || !replaced {
		t.Fatalf("TryPut existing = (%v, %v), want (true, nil)", replaced, err)
	}
	if v, ok := m.Get(7); !ok || v != "b" {
		t.Fatalf("Get(7) = (%q, %v) after TryPut", v, ok)
	}

	// Out-of-range keys error instead of panicking (Put would panic).
	if _, err := m.TryPut(bst.MaxKey+1, "x"); !errors.Is(err, bst.ErrKeyOutOfRange) {
		t.Fatalf("TryPut(MaxKey+1) err = %v, want ErrKeyOutOfRange", err)
	}
	if m.Len() != 1 {
		t.Fatalf("failed TryPut changed the map: Len = %d, want 1", m.Len())
	}
	// Negative keys and MaxKey are in range.
	if _, err := m.TryPut(-42, "neg"); err != nil {
		t.Fatalf("TryPut(-42) err = %v", err)
	}
	if _, err := m.TryPut(bst.MaxKey, "max"); err != nil {
		t.Fatalf("TryPut(MaxKey) err = %v", err)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
}

func TestAccessorCloseIdempotent(t *testing.T) {
	tr := bst.New(bst.WithCapacity(1<<12), bst.WithReclamation())
	acc := tr.NewAccessor()
	if !acc.Insert(1) {
		t.Fatal("Insert(1) = false")
	}
	if err := acc.Close(); err != nil {
		t.Fatal(err)
	}
	// The tree remains fully usable through other paths after one
	// accessor closes.
	if !tr.Contains(1) {
		t.Fatal("key lost after accessor Close")
	}
	acc2 := tr.NewAccessor()
	if !acc2.Insert(2) {
		t.Fatal("new accessor Insert failed")
	}
	if err := acc2.Close(); err != nil {
		t.Fatal(err)
	}

	// Tree.Close after all accessors: epoch slots fully retired, repeat
	// Close harmless.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if h := tr.Health(); h.EpochSlots != 0 {
		t.Fatalf("EpochSlots = %d after Tree.Close, want 0", h.EpochSlots)
	}
}

func TestScanConcurrentWithWriters(t *testing.T) {
	// Scan must be safe (and sane) with reclamation recycling nodes under
	// it: stable keys always appear, in order, exactly once. A churn worker
	// descheduled while pinned freezes reclamation (the EBR trade-off
	// Health's StalledSlots reports), and the others can drain the small
	// arena in that time slice, so churn inserts are fail-soft: a round
	// that meets ErrCapacity is skipped.
	tr := bst.New(bst.WithCapacity(1<<14), bst.WithReclamation())
	for k := int64(0); k < 512; k += 2 {
		tr.Insert(k) // stable evens
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := tr.NewAccessor()
			defer acc.Close()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(1) + 2*((int64(w)*1000+i)%512) // odd churn keys
				if _, err := acc.TryInsert(k); err != nil {
					if !errors.Is(err, bst.ErrCapacity) {
						t.Errorf("churn TryInsert(%d) err = %v", k, err)
						return
					}
					continue
				}
				acc.Delete(k)
			}
		}(w)
	}
	for iter := 0; iter < 50; iter++ {
		var got []int64
		tr.Scan(0, 511, func(k int64) bool {
			got = append(got, k)
			return true
		})
		seen := make(map[int64]bool, len(got))
		prev := int64(-1)
		evens := 0
		for _, k := range got {
			if k <= prev {
				t.Fatalf("Scan out of order: %d after %d", k, prev)
			}
			if seen[k] {
				t.Fatalf("Scan visited %d twice", k)
			}
			seen[k] = true
			prev = k
			if k%2 == 0 {
				evens++
			}
		}
		if evens != 256 {
			t.Fatalf("Scan saw %d stable even keys, want 256", evens)
		}
	}
	close(stop)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScanBoundsClamped(t *testing.T) {
	tr := bst.New()
	for _, k := range []int64{-3, 0, 5, bst.MaxKey} {
		tr.Insert(k)
	}
	var got []int64
	// A hi above MaxKey clamps rather than panics; an inverted range is
	// empty.
	tr.Scan(-10, bst.MaxKey+1, func(k int64) bool { got = append(got, k); return true })
	if len(got) != 4 || got[0] != -3 || got[3] != bst.MaxKey {
		t.Fatalf("clamped Scan = %v", got)
	}
	n := 0
	tr.Scan(10, -10, func(int64) bool { n++; return true })
	if n != 0 {
		t.Fatalf("inverted Scan visited %d keys", n)
	}
	// Early stop.
	got = got[:0]
	tr.Scan(-10, bst.MaxKey, func(k int64) bool { got = append(got, k); return len(got) < 2 })
	if len(got) != 2 {
		t.Fatalf("early-stop Scan = %v", got)
	}
}
