package bcco

import (
	"testing"
	"time"

	"repro/internal/keys"
)

// TestWaitUntilNotChanging exercises the reader-side spin directly: a node
// marked "changing" must block readers until the bit clears. The channel
// closes before the bit clears, so a correct return always finds it
// closed, and an early one (while the bit is still set) does not.
func TestWaitUntilNotChanging(t *testing.T) {
	n := &node{}
	n.version.Store(vChanging)
	clearing := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(clearing)
		n.version.Store(vCountInc) // rotation finished: bump count, clear bit
	}()
	waitUntilNotChanging(n)
	select {
	case <-clearing:
	default:
		t.Fatal("waitUntilNotChanging returned while the changing bit was set")
	}
	if v := n.version.Load(); v&vChanging != 0 {
		t.Fatalf("version still changing: %#x", v)
	}
}

// TestFixHeightLocked checks the direct height repair helper.
func TestFixHeightLocked(t *testing.T) {
	tr := New()
	h := tr.NewHandle()
	for _, k := range []int64{50, 25, 75} {
		h.Insert(keys.Map(k))
	}
	root := tr.holder.right.Load()
	root.height.Store(99) // corrupt the hint
	root.mu.Lock()
	h.fixHeightLocked(root)
	root.mu.Unlock()
	if got := root.height.Load(); got != 2 {
		t.Fatalf("repaired height = %d, want 2", got)
	}
}

// TestReaderRetriesAcrossVersionBump forces the optimistic validation
// failure path: bump a node's version between a reader's observation and
// its descent, via the changing protocol used by rotations.
func TestReaderRetriesAcrossVersionBump(t *testing.T) {
	tr := New()
	h := tr.NewHandle()
	for i := int64(0); i < 64; i++ {
		h.Insert(keys.Map(i))
	}
	root := tr.holder.right.Load()

	// Simulate a rotation's version lifecycle on the live root while
	// searches run: they must keep answering correctly (waiting through
	// the changing window, retrying across the bump).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			v := root.version.Load()
			root.version.Store(v | vChanging)
			root.version.Store((v + vCountInc) &^ vChanging)
		}
	}()
	h2 := tr.NewHandle()
	for i := 0; i < 5000; i++ {
		k := int64(i % 64)
		if !h2.Search(keys.Map(k)) {
			t.Fatalf("key %d invisible during version churn", k)
		}
	}
	<-done
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}
}
