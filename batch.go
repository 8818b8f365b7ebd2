package bst

// OpResult is the outcome of one operation inside a batched call. OK
// reports what the operation's single-key form would have returned
// (set changed for Insert/Delete, key present for Contains); Err is nil,
// ErrKeyOutOfRange, or — for inserts on a capacity-bounded tree —
// ErrCapacity. A non-nil Err implies OK == false.
type OpResult struct {
	OK  bool
	Err error
}

// Batched operations amortize per-operation overheads — epoch entry and
// the root-to-leaf descent — across many keys:
// the core sorts the batch and walks all keys down the tree together, so
// shared path prefixes are traversed once and the independent tails
// overlap their cache misses. Each operation in a batch is individually
// linearizable, in an order consistent with real time within the batch's
// invocation window; a batch is NOT atomic and is not a snapshot. A
// failed operation (capacity, out-of-range key) affects only its own
// slot — the rest of the batch still executes.
//
// Unlike the single-key methods, batched methods never panic on keys
// above MaxKey: the offending slot reports ErrKeyOutOfRange and the
// remaining keys proceed. (A batch usually carries remote callers'
// keys — the server executes whole frames through this path — so a bad
// key must be a per-op status, not a crash.)

// batchKind selects the operation a batch applies to every key.
type batchKind uint8

const (
	lookupKind batchKind = iota
	insertKind
	deleteKind
)

// batcher is the forest's batched surface: *forest.Forest runs a batch on
// pooled handles (the Tree methods), *forest.Handle on its own (Accessor).
type batcher interface {
	LookupBatch(ks []uint64, out []bool)
	InsertBatch(ks []uint64, out []bool, errs []error)
	DeleteBatch(ks []uint64, out []bool)
}

// batchScratch holds the reusable buffers a batched call needs to bridge
// the public int64 API to the core's uint64 key space: the mapped keys,
// their original positions (identity unless some keys were out of range),
// and the core's result slices. Accessors keep one per instance so their
// steady-state batch path does not allocate; the Tree convenience methods
// build one per call.
type batchScratch struct {
	uks  []uint64
	pos  []int32
	oks  []bool
	errs []error
}

func (sc *batchScratch) grow(n int) {
	if cap(sc.oks) < n {
		sc.oks = make([]bool, n)
		sc.errs = make([]error, n)
	}
}

// run executes one batch against the forest.
func (sc *batchScratch) run(b batcher, kind batchKind, in []int64, out []OpResult) {
	if len(out) != len(in) {
		panic("bst: batch result length mismatch")
	}
	uks := sc.uks[:0]
	pos := sc.pos[:0]
	for i, k := range in {
		u, err := tryMapKey(k)
		if err != nil {
			out[i] = OpResult{Err: err}
			continue
		}
		uks = append(uks, u)
		pos = append(pos, int32(i))
	}
	sc.uks, sc.pos = uks, pos
	m := len(uks)
	if m == 0 {
		return
	}
	sc.grow(m)
	oks := sc.oks[:m]
	switch kind {
	case lookupKind:
		b.LookupBatch(uks, oks)
		for j, p := range pos {
			out[p] = OpResult{OK: oks[j]}
		}
	case insertKind:
		errs := sc.errs[:m]
		b.InsertBatch(uks, oks, errs)
		for j, p := range pos {
			out[p] = OpResult{OK: oks[j], Err: errs[j]}
		}
	case deleteKind:
		b.DeleteBatch(uks, oks)
		for j, p := range pos {
			out[p] = OpResult{OK: oks[j]}
		}
	}
}

// ContainsBatch reports, in out[i], whether keys[i] is present. See the
// batching contract above: per-op linearizability, no snapshot semantics,
// out-of-range keys report ErrKeyOutOfRange. len(out) must equal
// len(keys). Hot paths should prefer Accessor.ContainsBatch, which reuses
// its buffers across calls.
func (t *Tree) ContainsBatch(keys []int64, out []OpResult) {
	var sc batchScratch
	sc.run(t.f, lookupKind, keys, out)
}

// InsertBatch inserts every key with TryInsert semantics: out[i].OK
// reports whether the set changed, out[i].Err is nil, ErrKeyOutOfRange,
// or ErrCapacity. A failed slot does not abort the batch. len(out) must
// equal len(keys).
func (t *Tree) InsertBatch(keys []int64, out []OpResult) {
	var sc batchScratch
	sc.run(t.f, insertKind, keys, out)
}

// DeleteBatch deletes every key; out[i].OK reports whether the set
// changed. len(out) must equal len(keys).
func (t *Tree) DeleteBatch(keys []int64, out []OpResult) {
	var sc batchScratch
	sc.run(t.f, deleteKind, keys, out)
}

func (a *accessor) ContainsBatch(keys []int64, out []OpResult) {
	a.sc.run(a.h, lookupKind, keys, out)
}

func (a *accessor) InsertBatch(keys []int64, out []OpResult) {
	a.sc.run(a.h, insertKind, keys, out)
}

func (a *accessor) DeleteBatch(keys []int64, out []OpResult) {
	a.sc.run(a.h, deleteKind, keys, out)
}
