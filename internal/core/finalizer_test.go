package core

import (
	"runtime"
	"testing"

	"repro/internal/keys"
)

// TestDroppedHandlesReleaseSlots: handles abandoned without Close (as the
// convenience-method pool does under GC pressure) must deregister their
// epoch slots via finalizer, or the domain's slot list — scanned on every
// epoch advance — would grow without bound.
func TestDroppedHandlesReleaseSlots(t *testing.T) {
	tr := New(Config{Capacity: 1 << 16, Reclaim: true})
	const n = 300
	for i := 0; i < n; i++ {
		h := tr.newHandle(1, true, false) // block size 1, exactly like pooled handles
		h.Insert(keys.Map(int64(i)))
		// dropped without Close
	}
	if got := tr.epoch.Slots(); got < n {
		t.Fatalf("expected ≥%d registered slots before GC, got %d", n, got)
	}
	for i := 0; i < 10 && tr.epoch.Slots() > n/10; i++ {
		runtime.GC() // finalizers run asynchronously; a few cycles settle them
	}
	if got := tr.epoch.Slots(); got > n/10 {
		t.Fatalf("%d slots still registered after GC; handle finalizers not releasing", got)
	}

	// The tree must remain fully functional afterwards.
	h := tr.NewHandle()
	defer h.Close()
	if !h.Insert(keys.Map(99999)) || !h.Search(keys.Map(99999)) {
		t.Fatal("tree broken after slot reclamation")
	}
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}
}
