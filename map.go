package bst

import (
	"repro/internal/keys"
	"repro/internal/nmboxed"
)

// Map is a concurrent ordered map from int64 keys to values of type V,
// built on the lock-free Natarajan–Mittal tree (boxed variant: values
// ride on leaves and the garbage collector reclaims removed nodes).
//
// Semantics extend the paper's dictionary minimally and safely: a value
// is immutable for the lifetime of its leaf, and Put replaces the whole
// leaf with a single CAS — which preserves every invariant the paper's
// linearizability proof relies on (node keys never change, marked edges
// are never modified). All methods are safe for concurrent use.
type Map[V any] struct {
	t *nmboxed.Tree
}

// NewMap creates an empty concurrent ordered map.
func NewMap[V any]() *Map[V] {
	return &Map[V]{t: nmboxed.New()}
}

// Get returns the value stored at key.
func (m *Map[V]) Get(key int64) (val V, ok bool) {
	v, ok := m.t.GetKV(mapKey(key))
	if !ok {
		var zero V
		return zero, false
	}
	return v.(V), true
}

// Put sets key's value, returning true if a previous value was replaced
// and false if the key was newly inserted. Linearizes at a single CAS.
func (m *Map[V]) Put(key int64, val V) (replaced bool) {
	return m.t.Upsert(mapKey(key), val)
}

// TryPut is the non-panicking variant of Put: keys above MaxKey return
// ErrKeyOutOfRange instead of panicking. The boxed tree backing Map has no
// allocation bound, so TryPut never returns ErrCapacity; the signature
// still reserves the error path so callers can treat Tree and Map
// uniformly (errors.Is against ErrCapacity simply never fires).
func (m *Map[V]) TryPut(key int64, val V) (replaced bool, err error) {
	u, err := tryMapKey(key)
	if err != nil {
		return false, err
	}
	return m.t.Upsert(u, val), nil
}

// PutIfAbsent stores val only if key is not present; it reports whether
// the map changed.
func (m *Map[V]) PutIfAbsent(key int64, val V) bool {
	return m.t.InsertKV(mapKey(key), val)
}

// Delete removes key; it reports whether the map changed.
func (m *Map[V]) Delete(key int64) bool { return m.t.Delete(mapKey(key)) }

// Contains reports whether key is present.
func (m *Map[V]) Contains(key int64) bool { return m.t.Search(mapKey(key)) }

// Len returns the number of entries (quiescent only).
func (m *Map[V]) Len() int { return m.t.Size() }

// Ascend visits entries in ascending key order until yield returns false
// (quiescent only).
func (m *Map[V]) Ascend(yield func(key int64, val V) bool) {
	m.t.Items(func(u uint64, v any) bool {
		return yield(keys.Unmap(u), v.(V))
	})
}

// ContainsBatch reports, in out[i], whether keys[i] is present, with the
// batch contract of Tree.ContainsBatch: per-op linearizability, no
// snapshot semantics, out-of-range keys report ErrKeyOutOfRange instead
// of panicking. The boxed tree backing Map has no shared-descent batch
// path, so this is a convenience loop, not a performance feature.
func (m *Map[V]) ContainsBatch(keys []int64, out []OpResult) {
	eachKey(keys, out, func(_ int, u uint64) bool { return m.t.Search(u) })
}

// DeleteBatch removes every key; out[i].OK reports whether the map
// changed. See ContainsBatch for the batch contract.
func (m *Map[V]) DeleteBatch(keys []int64, out []OpResult) {
	eachKey(keys, out, func(_ int, u uint64) bool { return m.t.Delete(u) })
}

// PutBatch sets keys[i]'s value to vals[i] for every i; out[i].OK reports
// whether a previous value was replaced (Put semantics, one CAS per
// entry). len(vals) and len(out) must equal len(keys). Out-of-range keys
// report ErrKeyOutOfRange in their slot without aborting the batch.
func (m *Map[V]) PutBatch(ks []int64, vals []V, out []OpResult) {
	if len(vals) != len(ks) {
		panic("bst: PutBatch length mismatch")
	}
	eachKey(ks, out, func(i int, u uint64) bool { return m.t.Upsert(u, vals[i]) })
}

// eachKey is Map's batch loop: op(i, mapped key) fills out[i], and a key
// above MaxKey fails only its own slot.
func eachKey(ks []int64, out []OpResult, op func(i int, u uint64) bool) {
	if len(out) != len(ks) {
		panic("bst: batch result length mismatch")
	}
	for i, k := range ks {
		u, err := tryMapKey(k)
		if err != nil {
			out[i] = OpResult{Err: err}
			continue
		}
		out[i] = OpResult{OK: op(i, u)}
	}
}

// Validate checks the backing tree's structural invariants (quiescent).
func (m *Map[V]) Validate() error { return m.t.Audit() }
