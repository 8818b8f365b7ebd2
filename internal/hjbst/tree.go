// Package hjbst implements the lock-free *internal* binary search tree of
// Howley and Jones ("A Non-Blocking Internal Binary Search Tree",
// SPAA 2012) — the HJ-BST baseline of the paper's evaluation.
//
// Keys are stored in every node (internal representation), so searches
// terminate as soon as the key is met — on average earlier than in an
// external tree. The price is paid by deletes: removing a node with two
// children *relocates* the key of its in-subtree successor into it, an
// operation coordinated by a RelocateOp record and up to 9 atomic
// instructions (Table 1 of the NM paper), versus 3 for NM-BST.
//
// Coordination uses per-node operation records: each node's op field holds
// an immutable reference {kind, record} where kind is NONE, CHILDCAS,
// RELOCATE or MARK. Installing a record "locks" the node lock-freely;
// any operation that encounters a non-NONE op helps it complete first.
//
// Adaptation notes (C original → Go): the original packs the operation
// state into pointer low bits; here an opRef record carries the kind, and
// all helpers CAS toward pre-created shared refs so record identity
// replaces packed-word equality. The node key must be mutable (relocation
// overwrites it), so it is atomic. Key values at a node only ever increase
// (a relocation installs the in-order successor), which rules out ABA on
// the key CAS.
package hjbst

import (
	"fmt"
	"sync/atomic"

	"repro/internal/keys"
)

type opKind uint8

const (
	kindNone     opKind = iota // no operation in progress
	kindChildCAS               // a child pointer is being swung
	kindRelocate               // the node's key is being replaced
	kindMark                   // the node is logically deleted (permanent)
)

// opRef is the immutable {kind, record} value stored in a node's op field.
type opRef struct {
	kind opKind
	cc   *childCASOp
	ro   *relocateOp
}

// noneRef is the shared initial op of every node.
var noneRef = &opRef{kind: kindNone}

type node struct {
	key   atomic.Uint64 // mutable: relocation replaces it (monotonically up)
	op    atomic.Pointer[opRef]
	left  atomic.Pointer[node]
	right atomic.Pointer[node]
}

func newNode(key uint64) *node {
	n := &node{}
	n.key.Store(key)
	n.op.Store(noneRef)
	return n
}

// isEmpty reports whether a child pointer holds no node: nil (a child that
// was never filled) or an empty marker (see childCASOp.empty), the only
// nodes whose op is nil.
func isEmpty(n *node) bool { return n == nil || n.op.Load() == nil }

// childCASOp records an in-progress child-pointer swing on a flagged node.
type childCASOp struct {
	isLeft           bool
	expected, update *node
	flagged, done    *opRef // shared CAS targets for all helpers
	// empty is the marker a swing that empties the child installs instead
	// of nil. Helpers apply CAS(child, expected, update) whenever they saw
	// the op flagged, so one arriving after the op finished must never find
	// expected again: nodes are never reused, and with a fresh marker per
	// emptying swing a child never returns to an earlier "empty" value
	// either (with nil it could, and a stale insert helper would then
	// resurrect a deleted node and make a later insert's swing fail).
	empty node
}

// Relocation states.
const (
	stOngoing int32 = iota
	stSuccessful
	stFailed
)

// relocateOp coordinates replacing dest's key with the successor's key and
// deleting the successor node.
type relocateOp struct {
	state                 atomic.Int32
	dest                  *node
	destOp                *opRef
	removeKey, replaceKey uint64
	relocRef, doneRef     *opRef // shared CAS targets
	markRef               *opRef
}

// Stats counts work performed through a Handle (single-goroutine).
type Stats struct {
	Searches, Inserts, Deletes uint64
	CASSucceeded, CASFailed    uint64
	NodesAlloc, OpAlloc        uint64
	RefsAlloc                  uint64 // opRef wrappers (Go boxing of C's flag bits)
	Helps, FindRestarts        uint64
	Relocations                uint64
}

// Atomics returns total CAS attempts (Table 1's atomic instruction count).
func (s *Stats) Atomics() uint64 { return s.CASSucceeded + s.CASFailed }

// Tree is the HJ lock-free internal BST.
type Tree struct {
	root *node // sentinel: key ∞₂; the user tree hangs off root.right
}

// New creates an empty tree.
func New() *Tree {
	return &Tree{root: newNode(keys.Inf2)}
}

// Handle is a per-goroutine accessor carrying statistics.
type Handle struct {
	t     *Tree
	Stats Stats
}

// NewHandle returns a per-goroutine accessor.
func (t *Tree) NewHandle() *Handle { return &Handle{t: t} }

// Convenience methods on Tree.

// Search reports whether key is present.
func (t *Tree) Search(key uint64) bool { h := Handle{t: t}; return h.Search(key) }

// Insert adds key if absent.
func (t *Tree) Insert(key uint64) bool { h := Handle{t: t}; return h.Insert(key) }

// Delete removes key if present.
func (t *Tree) Delete(key uint64) bool { h := Handle{t: t}; return h.Delete(key) }

// findResult classifies where a traversal for a key ended.
type findResult uint8

const (
	found     findResult = iota
	notFoundL            // key absent; would be pred's/curr's left child
	notFoundR            // key absent; would be curr's right child
	abort                // subtree root was busy (non-root aux traversals only)
)

func (h *Handle) cas(won bool) bool {
	if won {
		h.Stats.CASSucceeded++
	} else {
		h.Stats.CASFailed++
	}
	return won
}

// find traverses for key starting at auxRoot, returning the final node and
// its pred along with the op values read. It helps any operation it
// bumps into and restarts, and validates the last right-turn node so a
// concurrent relocation cannot hide the key.
func (h *Handle) find(key uint64, auxRoot *node, isRoot bool) (res findResult, pred *node, predOp *opRef, curr *node, currOp *opRef) {
retry:
	res = notFoundR
	pred, predOp = nil, nil
	curr = auxRoot
	currOp = curr.op.Load()
	if currOp.kind != kindNone {
		if isRoot {
			// The root only ever carries child-CAS operations.
			h.Stats.Helps++
			h.helpChildCAS(currOp.cc, curr)
			goto retry
		}
		return abort, nil, nil, nil, nil
	}
	next := curr.right.Load()
	lastRight, lastRightOp := curr, currOp
	for next != nil {
		nextOp := next.op.Load()
		if nextOp == nil {
			break // an empty marker: no child here
		}
		pred, predOp = curr, currOp
		curr, currOp = next, nextOp
		if currOp.kind != kindNone {
			h.Stats.Helps++
			h.help(pred, predOp, curr, currOp)
			h.Stats.FindRestarts++
			goto retry
		}
		ck := curr.key.Load()
		switch {
		case key < ck:
			res = notFoundL
			next = curr.left.Load()
		case key > ck:
			res = notFoundR
			next = curr.right.Load()
			lastRight, lastRightOp = curr, currOp
		default:
			res = found
			next = nil
		}
	}
	if res != found && lastRightOp != lastRight.op.Load() {
		h.Stats.FindRestarts++
		goto retry
	}
	if curr.op.Load() != currOp {
		h.Stats.FindRestarts++
		goto retry
	}
	return res, pred, predOp, curr, currOp
}

// Search reports whether key is present.
func (h *Handle) Search(key uint64) bool {
	res, _, _, _, _ := h.find(key, h.t.root, true)
	h.Stats.Searches++
	return res == found
}

// Insert adds key if absent: install a ChildCASOp on the would-be parent,
// then swing the child pointer and release — 3 CAS when uncontended.
func (h *Handle) Insert(key uint64) bool {
	t := h.t
	for {
		res, _, _, curr, currOp := h.find(key, t.root, true)
		if res == found {
			h.Stats.Inserts++
			return false
		}
		nn := newNode(key)
		h.Stats.NodesAlloc++
		isLeft := res == notFoundL
		var old *node
		if isLeft {
			old = curr.left.Load()
		} else {
			old = curr.right.Load()
		}
		op := &childCASOp{isLeft: isLeft, expected: old, update: nn}
		op.flagged = &opRef{kind: kindChildCAS, cc: op}
		op.done = &opRef{kind: kindNone, cc: op}
		h.Stats.OpAlloc++
		h.Stats.RefsAlloc += 2
		if h.cas(curr.op.CompareAndSwap(currOp, op.flagged)) {
			h.helpChildCAS(op, curr)
			h.Stats.Inserts++
			return true
		}
	}
}

// Delete removes key if present. A node with at most one child is marked
// and spliced; a node with two children has its successor's key relocated
// into it and the successor removed.
func (h *Handle) Delete(key uint64) bool {
	t := h.t
	for {
		res, pred, predOp, curr, currOp := h.find(key, t.root, true)
		if res != found {
			h.Stats.Deletes++
			return false
		}
		if isEmpty(curr.right.Load()) || isEmpty(curr.left.Load()) {
			// At most one child: mark (permanent), then splice out.
			markRef := &opRef{kind: kindMark}
			h.Stats.RefsAlloc++
			if h.cas(curr.op.CompareAndSwap(currOp, markRef)) {
				h.helpMarked(pred, predOp, curr)
				h.Stats.Deletes++
				return true
			}
		} else {
			// Two children: relocate the successor's key into curr.
			res2, spred, spredOp, replace, replaceOp := h.find(key, curr, false)
			if res2 == abort || curr.op.Load() != currOp {
				continue
			}
			ro := &relocateOp{dest: curr, destOp: currOp, removeKey: key, replaceKey: replace.key.Load()}
			ro.relocRef = &opRef{kind: kindRelocate, ro: ro}
			ro.doneRef = &opRef{kind: kindNone, ro: ro}
			ro.markRef = &opRef{kind: kindMark, ro: ro}
			h.Stats.OpAlloc++
			h.Stats.RefsAlloc += 3
			if h.cas(replace.op.CompareAndSwap(replaceOp, ro.relocRef)) {
				h.Stats.Relocations++
				if h.helpRelocate(ro, spred, spredOp, replace) {
					h.Stats.Deletes++
					return true
				}
			}
		}
	}
}

// help dispatches on the operation found installed on curr.
func (h *Handle) help(pred *node, predOp *opRef, curr *node, currOp *opRef) {
	switch currOp.kind {
	case kindChildCAS:
		h.helpChildCAS(currOp.cc, curr)
	case kindRelocate:
		h.helpRelocate(currOp.ro, pred, predOp, curr)
	case kindMark:
		h.helpMarked(pred, predOp, curr)
	}
}

// helpChildCAS completes an installed child swing: apply it, then release
// the node back to NONE.
func (h *Handle) helpChildCAS(op *childCASOp, dest *node) {
	var f *atomic.Pointer[node]
	if op.isLeft {
		f = &dest.left
	} else {
		f = &dest.right
	}
	h.cas(f.CompareAndSwap(op.expected, op.update))
	h.cas(dest.op.CompareAndSwap(op.flagged, op.done))
}

// helpMarked splices a marked node out: its single child (or a fresh empty
// marker) replaces it in its parent via a fresh ChildCASOp on the parent.
func (h *Handle) helpMarked(pred *node, predOp *opRef, curr *node) {
	newRef := curr.left.Load()
	if isEmpty(newRef) {
		newRef = curr.right.Load()
	}
	op := &childCASOp{isLeft: curr == pred.left.Load(), expected: curr, update: newRef}
	if isEmpty(newRef) {
		op.update = &op.empty
	}
	op.flagged = &opRef{kind: kindChildCAS, cc: op}
	op.done = &opRef{kind: kindNone, cc: op}
	h.Stats.OpAlloc++
	h.Stats.RefsAlloc += 2
	if h.cas(pred.op.CompareAndSwap(predOp, op.flagged)) {
		h.helpChildCAS(op, pred)
	}
}

// helpRelocate drives a relocation to its decision point and applies the
// consequences: on success dest's key becomes replaceKey and the successor
// node (curr) is marked and spliced; on failure the successor is released.
func (h *Handle) helpRelocate(op *relocateOp, pred *node, predOp *opRef, curr *node) bool {
	seenState := op.state.Load()
	if seenState == stOngoing {
		// Try to install the relocation on the destination.
		var seenOp *opRef
		if h.cas(op.dest.op.CompareAndSwap(op.destOp, op.relocRef)) {
			seenOp = op.destOp
		} else {
			seenOp = op.dest.op.Load()
		}
		if seenOp == op.destOp || seenOp == op.relocRef {
			op.state.CompareAndSwap(stOngoing, stSuccessful)
			seenState = stSuccessful
		} else {
			op.state.CompareAndSwap(stOngoing, stFailed)
			seenState = op.state.Load()
		}
	}
	if seenState == stSuccessful {
		h.cas(op.dest.key.CompareAndSwap(op.removeKey, op.replaceKey))
		h.cas(op.dest.op.CompareAndSwap(op.relocRef, op.doneRef))
	}
	result := seenState == stSuccessful
	if op.dest == curr {
		return result
	}
	var release *opRef
	if result {
		release = op.markRef
	} else {
		release = op.doneRef
	}
	h.cas(curr.op.CompareAndSwap(op.relocRef, release))
	if result {
		h.helpMarked(pred, predOp, curr)
	}
	return result
}

// ---- quiescent inspection ----

// Size counts stored user keys (quiescent only).
func (t *Tree) Size() int {
	n := 0
	t.Keys(func(uint64) bool { n++; return true })
	return n
}

// SpaceStats reports reachable-node accounting (quiescent): marked zombie
// nodes can linger until a later traversal splices them.
type SpaceStats struct {
	LiveKeys    int
	ZombieNodes int
	TotalNodes  int
}

// Space computes SpaceStats by walking the tree (quiescent only).
func (t *Tree) Space() SpaceStats {
	var s SpaceStats
	var walk func(n *node)
	walk = func(n *node) {
		if isEmpty(n) {
			return
		}
		s.TotalNodes++
		if t.root != n {
			if n.op.Load().kind == kindMark {
				s.ZombieNodes++
			} else {
				s.LiveKeys++
			}
		}
		walk(n.left.Load())
		walk(n.right.Load())
	}
	walk(t.root.right.Load())
	s.TotalNodes++ // the sentinel root
	return s
}

// Keys visits user keys in ascending order (quiescent only).
func (t *Tree) Keys(yield func(uint64) bool) {
	if r := t.root.right.Load(); !isEmpty(r) {
		t.visit(r, yield)
	}
}

// visit walks in order. Marked nodes are physically present but logically
// deleted (a relocation or an unlucky splice can leave them behind; any
// later traversal that bumps into one helps remove it), so their keys are
// skipped while their children — at most one — are still descended.
func (t *Tree) visit(n *node, yield func(uint64) bool) bool {
	marked := n.op.Load().kind == kindMark
	if l := n.left.Load(); !isEmpty(l) && !t.visit(l, yield) {
		return false
	}
	if k := n.key.Load(); !marked && !keys.IsSentinel(k) && !yield(k) {
		return false
	}
	if r := n.right.Load(); !isEmpty(r) && !t.visit(r, yield) {
		return false
	}
	return true
}

// Audit validates internal-BST invariants (quiescent only): strict key
// ordering of live nodes within bounds, at most one child per marked
// (zombie) node, and no transient operation records left on reachable
// nodes. Marked leftovers are legal: deletes return once the logical
// removal is durable; the physical splice may be finished by later
// operations.
func (t *Tree) Audit() error {
	if k := t.root.key.Load(); k != keys.Inf2 {
		return fmt.Errorf("root key corrupted: %#x", k)
	}
	if l := t.root.left.Load(); !isEmpty(l) {
		return fmt.Errorf("root grew a left child")
	}
	r := t.root.right.Load()
	if isEmpty(r) {
		return nil
	}
	return t.audit(r, 0, keys.Inf2-1)
}

func (t *Tree) audit(n *node, lo, hi uint64) error {
	k := n.key.Load()
	op := n.op.Load()
	switch op.kind {
	case kindNone:
		if k < lo || k > hi {
			return fmt.Errorf("key %#x outside [%#x, %#x]", k, lo, hi)
		}
	case kindMark:
		// A zombie's key is a duplicate of a relocated live key; it no
		// longer participates in ordering but must still route its (single)
		// child consistently.
		l, r := n.left.Load(), n.right.Load()
		if !isEmpty(l) && !isEmpty(r) {
			return fmt.Errorf("marked node %#x has two children", k)
		}
	default:
		return fmt.Errorf("reachable node %#x has transient op kind %d in quiescent tree", k, op.kind)
	}
	if l := n.left.Load(); !isEmpty(l) {
		hiL := hi
		if k != 0 && k-1 < hiL {
			hiL = k - 1
		}
		if err := t.audit(l, lo, hiL); err != nil {
			return err
		}
	}
	if r := n.right.Load(); !isEmpty(r) {
		loR := lo
		if k+1 > loR {
			loR = k + 1
		}
		if err := t.audit(r, loR, hi); err != nil {
			return err
		}
	}
	return nil
}
