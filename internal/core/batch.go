package core

import (
	"math/bits"
	"slices"

	"repro/internal/atomicx"
	"repro/internal/metrics"
)

// Batched operations: amortize the fixed per-operation costs — the epoch
// pin/unpin pair and, above all, the root-to-leaf seek — across a whole
// batch of keys, which are sorted first.
//
// Wavefront seeks (seekWave, and the lookup loop): all keys descend the
// tree at once, one level per wave. The wave performs exactly the reads N
// independent seeks would perform, just interleaved in time, so each key
// ends with a seek record carrying the standard guarantees. Sorted keys
// currently at the same node form one contiguous run (same-depth nodes
// cover disjoint, ordered key intervals): the run reads the node once and
// every member routes off that read, so shared path prefixes cost one
// traversal per run instead of one per key — these "riders" are what
// BatchSeekSkippedLevels counts. Keys in distinct runs touch unrelated
// nodes, so their cache misses overlap in the memory system instead of
// serializing the way one-key-at-a-time seeks do; on uniformly random
// keys, where runs thin out after the first few levels, that overlap is
// most of the win.
//
// Applying a write batch runs every key through the single-key insert or
// delete loop (ops.go), with its wave record standing in for the first
// attempt's seek until an insert of its leaf-run succeeds; a retry, and
// every later insert of that run, seeks from the root, as the paper's
// operations do.
// The keys whose records end at one leaf are applied median-first — in
// the bit-reversal order of their sorted positions — so they split that
// leaf into a balanced subtree instead of the chain an ascending run
// builds in an external BST, and each of their retries stays logarithmic.
// Runs at distinct leaves keep sorted order, so the nodes a bulk load
// allocates stay in key order in the arena.
//
// Staleness never costs correctness, only retries: inserts and deletes
// validate with their CASes, whose expected values (an unmarked edge to
// the recorded leaf) can only hold if the recorded parent is attached and
// the leaf is still the key's routing terminal — the same discipline the
// paper's helping protocol relies on. Each operation in a batch is
// individually linearizable within the batch's invocation window; no
// atomicity is claimed across a batch.
//
// The epoch pin is taken once per batch. While pinned, arena indices held
// in seek records cannot be recycled (no ABA). The one place a batch drops
// its pin mid-flight — the capacity-recovery path of an insert, which must
// let the epoch advance to recycle slots — bumps unpinGen, which
// invalidates every precomputed record for the rest of the batch.

// batchEnt pairs a key with its position in the caller's slices, so
// results land in caller order whatever order the keys are processed in.
type batchEnt struct {
	key uint64
	pos int32
}

// waveEnt is one key's in-flight state during a wavefront seek: the seek
// record under construction plus the packed word of the edge into the
// node the key currently occupies.
type waveEnt struct {
	sr seekRecord
	pw uint64
}

// sortBatch loads the caller's keys into the handle's reusable scratch
// pairs and sorts them ascending. Stable order among duplicates is not
// needed: equal keys are independent operations on the same key and any
// interleaving is a valid linearization.
func (h *Handle) sortBatch(ks []uint64) []batchEnt {
	b := h.batch[:0]
	for i, k := range ks {
		b = append(b, batchEnt{key: k, pos: int32(i)})
	}
	slices.SortFunc(b, func(a, c batchEnt) int {
		switch {
		case a.key < c.key:
			return -1
		case a.key > c.key:
			return 1
		default:
			return 0
		}
	})
	h.batch = b
	return b
}

// seekWave runs the wavefront seek for every key in ord, filling h.recs
// with one complete seek record per entry (index-aligned with ord), and
// returns the number of levels skipped by run riders.
//
// The per-key descent follows the exact transition rule of seek
// (Algorithm 1) expressed over explicit state: at node L with entering
// edge word PW, read L's child word w for the key; if it leads to a node,
// an untagged PW promotes (parent, L) to (ancestor, successor) before the
// key advances. The initial state uses the root edge r→s, which is never
// marked (sentinels are not deletable), so the first transition lands on
// the same state seek starts from.
func (h *Handle) seekWave(ord []batchEnt) uint64 {
	t := h.t
	ar := t.ar
	recs := h.recs[:0]
	cur := h.wave[:0]
	for range ord {
		recs = append(recs, waveEnt{
			sr: seekRecord{ancestor: t.r, successor: t.s, parent: t.r},
			pw: atomicx.Pack(t.s, false, false),
		})
		cur = append(cur, t.s)
	}
	h.recs, h.wave = recs, cur
	h.Stats.Seeks += uint64(len(ord))
	h.hook(FPSeek)

	var skipped uint64
	active := len(ord)
	for active > 0 {
		active = 0
		i := 0
		for i < len(ord) {
			c := cur[i]
			if c == 0 { // this key's record is complete
				i++
				continue
			}
			nd := ar.Get(c)
			j := i
			for j < len(ord) && cur[j] == c {
				e := &recs[j]
				k := ord[j].key
				var w uint64
				if k < nd.key {
					w = nd.left.Load()
				} else {
					w = nd.right.Load()
				}
				nxt := atomicx.Addr(w)
				if nxt == 0 {
					e.sr.leaf = c
					cur[j] = 0
				} else {
					if !atomicx.Tag(e.pw) {
						e.sr.ancestor = e.sr.parent
						e.sr.successor = c
					}
					e.sr.parent = c
					e.pw = w
					cur[j] = nxt
					active++
				}
				j++
			}
			skipped += uint64(j - i - 1)
			i = j
		}
	}
	return skipped
}

// finishBatch folds the batch's telemetry into the handle's stats and
// metrics shard and releases the per-batch pin.
func (h *Handle) finishBatch(ops uint64, op metrics.Counter, skipped uint64) {
	h.unpin()
	h.Stats.Batches++
	h.Stats.BatchOps += ops
	h.Stats.BatchSkippedLevels += skipped
	if h.m != nil {
		h.m.Add(op, ops)
		h.m.Add(metrics.BatchOps, ops)
		h.m.Add(metrics.BatchSeekSkippedLevels, skipped)
	}
}

// LookupBatch reports, in out[i], whether ks[i] is present. Each lookup is
// individually linearizable (the batch is not a snapshot). len(out) must
// equal len(ks).
//
// Lookups need no seek record and perform no writes, so they run a leaner
// wavefront than seekWave: per-key state is just the current node, and a
// key's answer is read directly at its terminal node.
func (h *Handle) LookupBatch(ks []uint64, out []bool) {
	if len(out) != len(ks) {
		panic("core: LookupBatch result length mismatch")
	}
	if len(ks) == 0 {
		return
	}
	t := h.t
	ar := t.ar
	ord := h.sortBatch(ks)
	cur := h.wave[:0]
	for range ord {
		cur = append(cur, t.s)
	}
	h.wave = cur

	var skipped uint64
	h.pin()
	// Phase 1: grouped lockstep descent. Keys sharing their current node
	// read it once; the phase ends as soon as every surviving group is a
	// singleton — two keys at distinct nodes have disjoint subtrees, so
	// groups never re-merge and further grouping is pure scan overhead.
	shared := true
	for shared {
		shared = false
		i := 0
		for i < len(ord) {
			c := cur[i]
			if c == 0 { // this key already reached its leaf
				i++
				continue
			}
			nd := ar.Get(c)
			j := i
			for j < len(ord) && cur[j] == c {
				k := ord[j].key
				var w uint64
				if k < nd.key {
					w = nd.left.Load()
				} else {
					w = nd.right.Load()
				}
				nxt := atomicx.Addr(w)
				if nxt == 0 {
					out[ord[j].pos] = nd.key == k
					cur[j] = 0
				} else {
					cur[j] = nxt
				}
				j++
			}
			if j-i > 1 {
				shared = true
				skipped += uint64(j - i - 1)
			}
			i = j
		}
	}
	// Phase 2: the fragmented tail. Finish the keys in small fixed windows
	// of independent descents — wide enough that their cache misses still
	// overlap (memory-level parallelism saturates around the load-buffer
	// depth anyway), with none of the grouping bookkeeping.
	const window = 8
	for i := 0; i < len(ord); i += window {
		e := min(i+window, len(ord))
		active := 0
		for j := i; j < e; j++ {
			if cur[j] != 0 {
				active++
			}
		}
		for active > 0 {
			for j := i; j < e; j++ {
				c := cur[j]
				if c == 0 {
					continue
				}
				nd := ar.Get(c)
				k := ord[j].key
				var w uint64
				if k < nd.key {
					w = nd.left.Load()
				} else {
					w = nd.right.Load()
				}
				nxt := atomicx.Addr(w)
				if nxt == 0 {
					out[ord[j].pos] = nd.key == k
					cur[j] = 0
					active--
				} else {
					cur[j] = nxt
				}
			}
		}
	}
	h.Stats.Seeks += uint64(len(ks))
	h.Stats.Searches += uint64(len(ks))
	h.finishBatch(uint64(len(ks)), metrics.OpsSearch, skipped)
}

// InsertBatch inserts every key in ks with TryInsert semantics: out[i]
// reports whether the set changed and errs[i] is nil or ErrCapacity. A
// capacity failure mid-batch does not abort the batch — later operations
// still execute and report their own status. len(out) and len(errs) must
// equal len(ks).
func (h *Handle) InsertBatch(ks []uint64, out []bool, errs []error) {
	if len(out) != len(ks) || len(errs) != len(ks) {
		panic("core: InsertBatch result length mismatch")
	}
	h.writeBatch(ks, out, errs, metrics.OpsInsert)
}

// DeleteBatch deletes every key in ks; out[i] reports whether the set
// changed. Each delete is individually linearizable. len(out) must equal
// len(ks).
func (h *Handle) DeleteBatch(ks []uint64, out []bool) {
	if len(out) != len(ks) {
		panic("core: DeleteBatch result length mismatch")
	}
	h.writeBatch(ks, out, nil, metrics.OpsDelete)
}

// writeBatch pins once, seeks every key with one wavefront, and applies
// the keys through insertLoop (errs non-nil) or deleteLoop: in sorted
// order across leaves, median-first among the keys whose wave records end
// at one leaf.
func (h *Handle) writeBatch(ks []uint64, out []bool, errs []error, op metrics.Counter) {
	if len(ks) == 0 {
		return
	}
	ord := h.sortBatch(ks)
	h.pin()
	skipped := h.seekWave(ord)
	gen := h.unpinGen
	for lo := 0; lo < len(ord); {
		// The run [lo, hi) shares a wave leaf; only its indices are
		// compared, so a stale record after an unpin is harmless here.
		hi := lo + 1
		for hi < len(ord) && h.recs[hi].sr.leaf == h.recs[lo].sr.leaf {
			hi++
		}
		// Once an insert of the run splits the leaf, every other record of
		// the run names the edge that insert replaced, so the rest of the
		// run seeks from the root rather than spend a failed CAS on
		// staleness of its own making. A delete run keeps its records
		// after a hit: the removed leaf still proves a miss at the wave
		// read.
		split := false
		// Bit-reversal order over w bits visits lo, lo+m/2, lo+m/4,
		// lo+3m/4, ... for m = 1<<w ≥ hi-lo, skipping positions past hi.
		w := bits.Len(uint(hi - lo - 1))
		for r := uint64(0); r < 1<<w; r++ {
			i := lo + int(bits.Reverse64(r)>>(64-w))
			if i >= hi {
				continue
			}
			e := ord[i]
			// A wave record is only safe while the batch pin has been held
			// continuously since the wave (arena indices must not have
			// been recycled).
			var rec *seekRecord
			if h.unpinGen == gen && !split {
				rec = &h.recs[i].sr
			}
			if errs != nil {
				out[e.pos], errs[e.pos] = h.insertLoop(e.key, rec)
				split = split || out[e.pos]
			} else {
				out[e.pos] = h.deleteLoop(e.key, rec)
			}
		}
		lo = hi
	}
	h.finishBatch(uint64(len(ks)), op, skipped)
}
