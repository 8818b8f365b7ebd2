package core

import (
	"fmt"

	"repro/internal/atomicx"
	"repro/internal/keys"
)

// The functions in this file inspect a quiescent tree: they require that no
// operations run concurrently. They are intended for tests, audits and
// examples — not for the concurrent hot path.

// Size returns the number of user keys stored (quiescent only).
func (t *Tree) Size() int {
	n := 0
	t.Keys(func(uint64) bool { n++; return true })
	return n
}

// Keys visits the stored user keys in ascending order until yield returns
// false (quiescent only). Sentinel keys are not visited.
func (t *Tree) Keys(yield func(key uint64) bool) {
	t.visit(t.r, yield)
}

func (t *Tree) visit(idx uint32, yield func(uint64) bool) bool {
	n := t.ar.Get(idx)
	l, r := atomicx.Addr(n.left.Load()), atomicx.Addr(n.right.Load())
	if l == 0 && r == 0 { // leaf
		if keys.IsSentinel(n.key) {
			return true
		}
		return yield(n.key)
	}
	if l != 0 && !t.visit(l, yield) {
		return false
	}
	if r != 0 && !t.visit(r, yield) {
		return false
	}
	return true
}

// Audit validates every structural invariant of the external BST (quiescent
// only):
//
//   - the sentinel skeleton of Figure 3 is intact,
//   - every internal node has exactly two children, every leaf none,
//   - routing is correct: keys in a node's left subtree are < its key, keys
//     in its right subtree are ≥ its key,
//   - no reachable edge carries a flag or tag (in a quiescent tree a marked
//     edge would mean a delete committed but was never physically applied),
//   - node keys never exceed their sentinel bounds.
//
// It returns nil if the tree is valid.
func (t *Tree) Audit() error {
	rn := t.ar.Get(t.r)
	if rn.key != keys.Inf2 {
		return fmt.Errorf("root key = %#x, want ∞₂", rn.key)
	}
	rl := rn.left.Load()
	if atomicx.Marked(rl) {
		return fmt.Errorf("edge (ℝ, 𝕊) is marked: %#x", rl)
	}
	if atomicx.Addr(rl) != t.s {
		return fmt.Errorf("root's left child is not 𝕊")
	}
	sn := t.ar.Get(t.s)
	if sn.key != keys.Inf1 {
		return fmt.Errorf("𝕊 key = %#x, want ∞₁", sn.key)
	}
	_, err := t.audit(t.r, 0, ^uint64(0))
	return err
}

// audit recursively checks the subtree at idx; keys must lie in [lo, hi).
// hi is inclusive-capped at ∞₂ via ^uint64(0). Returns the number of leaves.
func (t *Tree) audit(idx uint32, lo, hi uint64) (int, error) {
	n := t.ar.Get(idx)
	if n.key < lo || n.key > hi {
		return 0, fmt.Errorf("node %d key %#x outside [%#x, %#x]", idx, n.key, lo, hi)
	}
	lw, rw := n.left.Load(), n.right.Load()
	if atomicx.Marked(lw) || atomicx.Marked(rw) {
		return 0, fmt.Errorf("node %d (key %#x) has marked edge(s) in quiescent tree: left=%#x right=%#x", idx, n.key, lw, rw)
	}
	l, r := atomicx.Addr(lw), atomicx.Addr(rw)
	switch {
	case l == 0 && r == 0:
		return 1, nil // leaf
	case l == 0 || r == 0:
		return 0, fmt.Errorf("node %d (key %#x) has exactly one child: not a legal external BST", idx, n.key)
	}
	// Left subtree: keys strictly below n.key; right: keys ≥ n.key.
	if n.key == 0 {
		return 0, fmt.Errorf("internal node %d has key 0 with a non-empty left subtree", idx)
	}
	nl, err := t.audit(l, lo, n.key-1)
	if err != nil {
		return 0, err
	}
	nr, err := t.audit(r, n.key, hi)
	if err != nil {
		return 0, err
	}
	return nl + nr, nil
}

// SpaceStats reports storage accounting (quiescent). Without reclamation,
// ReservedSlots grows with every insert ever performed (the paper's
// no-reclamation protocol); with Config.Reclaim, spliced-out nodes are
// recycled and ReservedSlots plateaus near the live working set.
type SpaceStats struct {
	LiveKeys       int
	ReachableNodes int    // nodes reachable from the root, incl. sentinels
	ReservedSlots  uint64 // arena indices ever reserved (monotonic)
}

// Space computes SpaceStats by walking the tree (quiescent only).
func (t *Tree) Space() SpaceStats {
	var s SpaceStats
	s.LiveKeys = t.Size()
	s.ReservedSlots = t.ar.Allocated()
	var walk func(idx uint32)
	walk = func(idx uint32) {
		if idx == 0 {
			return
		}
		s.ReachableNodes++
		n := t.ar.Get(idx)
		walk(atomicx.Addr(n.left.Load()))
		walk(atomicx.Addr(n.right.Load()))
	}
	walk(t.r)
	return s
}
