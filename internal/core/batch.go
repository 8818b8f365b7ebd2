package core

import (
	"runtime"
	"slices"

	"repro/internal/atomicx"
	"repro/internal/metrics"
)

// Batched operations: amortize the fixed per-operation costs — the epoch
// pin/unpin pair and, above all, the root-to-leaf seek — across a whole
// batch of keys. Two mechanisms cooperate, both operating on keys in
// sorted order:
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
// Deepest-ancestor resumes (seekBatch): when a write's precomputed seek
// record has gone stale — usually because an earlier operation of the same
// batch restructured the neighbourhood — its retry does not restart at the
// root. It resumes from the deepest node recorded on the previous
// (path-recording) seek whose child word is re-read unmarked, popping one
// level up per marked word and degrading to the root in the worst case.
// Resuming is sound on two tree invariants: an internal node is physically
// removed only after *both* its child edges are marked (so one unmarked
// child word proves the node was still attached at that read), and a
// node's routing interval only ever widens (splices lift surviving
// subtrees toward the root), so a key once inside a recorded node's
// interval is inside it at resume time.
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
// in seek records and recorded paths cannot be recycled (no ABA). The one
// place a batch drops its pin mid-flight — the capacity-recovery path of a
// batched insert, which must let the epoch advance to recycle slots —
// bumps unpinGen, which invalidates every precomputed record and the
// recorded path for the rest of the batch.

// batchEnt pairs a key with its position in the caller's slices, so
// results land in caller order after the keys are processed in sorted
// order.
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

// batchPath is the access path recorded by the most recent path-recording
// seek: the visited nodes, their (immutable) routing keys, and the packed
// child word read for each descent edge. nodes[0] is always the sentinel
// 𝕊; the last entry is the leaf the seek ended at. words[i] is the edge
// nodes[i] → nodes[i+1] as read during that seek. key is the key the path
// was recorded for (≤ every later key of the batch).
type batchPath struct {
	nodes []uint32
	keys  []uint64
	words []uint64
	key   uint64
	valid bool
}

func (p *batchPath) reset() {
	p.nodes = p.nodes[:0]
	p.keys = p.keys[:0]
	p.words = p.words[:0]
	p.valid = false
}

// push records one visited node; its descent edge word is appended when
// the next hop is read.
func (p *batchPath) push(node uint32, key uint64) {
	p.nodes = append(p.nodes, node)
	p.keys = append(p.keys, key)
}

// truncate keeps the first n nodes (and their n-1 edge words).
func (p *batchPath) truncate(n int) {
	p.nodes = p.nodes[:n]
	p.keys = p.keys[:n]
	p.words = p.words[:n-1]
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

// seekBatch is the resuming seek used by write retries: position the seek
// record for key, resuming from the deepest still-valid node of the
// recorded path, and re-record the path for the next resume. It returns
// the number of levels skipped relative to a full root seek.
func (h *Handle) seekBatch(key uint64) int {
	p := &h.path
	if !p.valid || len(p.nodes) < 3 || p.key > key {
		h.seekFromRoot(key)
		return 0
	}

	// Deepest recorded node that still routes key: edges match until the
	// first node where the recorded key went left but key would go right
	// (node keys are immutable). The final recorded node is the previous
	// leaf — not a resume candidate.
	m := len(p.nodes)
	j := m - 2
	for i := 1; i < m-1; i++ {
		if p.key < p.keys[i] && key >= p.keys[i] {
			j = i
			break
		}
	}

	ar := h.t.ar
	// Pop toward the root until the resume node proves it is still in the
	// tree: an unmarked child word is impossible on a detached node.
	var w uint64
	for ; j >= 1; j-- {
		nd := ar.Get(p.nodes[j])
		if key < p.keys[j] {
			w = nd.left.Load()
		} else {
			w = nd.right.Load()
		}
		if w&(atomicx.FlagBit|atomicx.TagBit) == 0 {
			break
		}
	}
	if j < 2 {
		// Nothing worth resuming (nodes[0] is 𝕊; resuming there is a full
		// seek with extra bookkeeping).
		h.seekFromRoot(key)
		return 0
	}

	sr := &h.sr
	h.Stats.Seeks++
	h.hook(FPSeek)

	// Reconstruct ancestor/successor — the last untagged edge strictly
	// above the resume edge — from the recorded words. words[0] (𝕊 → user
	// subtree) can never be marked, so the scan always terminates. A word
	// tagged since it was recorded only makes a later splice CAS fail and
	// retry, the same staleness the base algorithm tolerates.
	sr.ancestor = h.t.r
	sr.successor = h.t.s
	for i := j - 1; i >= 0; i-- {
		if !atomicx.Tag(p.words[i]) {
			sr.ancestor = p.nodes[i]
			sr.successor = p.nodes[i+1]
			break
		}
	}

	p.truncate(j + 1)
	sr.parent = p.nodes[j]
	sr.leaf = atomicx.Addr(w)
	h.descendRecord(key, w)
	return j
}

// seekFromRoot is the recording variant of seek: identical traversal, but
// it also captures the access path for later resumes.
func (h *Handle) seekFromRoot(key uint64) {
	t := h.t
	sr := &h.sr
	h.Stats.Seeks++
	h.hook(FPSeek)

	sr.ancestor = t.r
	sr.successor = t.s
	sr.parent = t.s

	p := &h.path
	p.reset()
	sn := t.ar.Get(t.s)
	p.push(t.s, sn.key)
	parentField := sn.left.Load()
	sr.leaf = atomicx.Addr(parentField)
	h.descendRecord(key, parentField)
}

// descendRecord runs the seek descent loop from the current sr.parent /
// sr.leaf position (leafField is the child word that led to sr.leaf),
// recording every hop. On return h.sr is a complete seek record for key
// and h.path holds the full access path ending at the leaf.
func (h *Handle) descendRecord(key uint64, leafField uint64) {
	ar := h.t.ar
	sr := &h.sr
	p := &h.path

	parentField := leafField
	ln := ar.Get(sr.leaf)
	p.words = append(p.words, parentField)
	p.push(sr.leaf, ln.key)

	var currentField uint64
	if key < ln.key {
		currentField = ln.left.Load()
	} else {
		currentField = ln.right.Load()
	}
	current := atomicx.Addr(currentField)

	for current != 0 {
		if !atomicx.Tag(parentField) {
			sr.ancestor = sr.parent
			sr.successor = sr.leaf
		}
		sr.parent = sr.leaf
		sr.leaf = current
		parentField = currentField

		cn := ar.Get(current)
		p.words = append(p.words, parentField)
		p.push(current, cn.key)
		if key < cn.key {
			currentField = cn.left.Load()
		} else {
			currentField = cn.right.Load()
		}
		current = atomicx.Addr(currentField)
	}
	p.key = key
	p.valid = true
}

// finishBatch folds the batch's telemetry into the handle's stats and
// metrics shard and releases the per-batch pin.
func (h *Handle) finishBatch(ops uint64, op metrics.Counter, skipped uint64) {
	h.unpin()
	h.path.valid = false
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
	if len(ks) == 0 {
		return
	}
	ord := h.sortBatch(ks)
	h.pin()
	h.path.valid = false
	skipped := h.seekWave(ord)
	gen := h.unpinGen
	for i, e := range ord {
		// Precomputed records are only safe while the batch pin has been
		// held continuously since the wave (arena indices must not have
		// been recycled).
		ok, s, err := h.batchInsertOne(e.key, h.recs[i].sr, h.unpinGen == gen)
		out[e.pos], errs[e.pos] = ok, err
		skipped += uint64(s)
	}
	h.Stats.Inserts += uint64(len(ks))
	h.finishBatch(uint64(len(ks)), metrics.OpsInsert, skipped)
}

// batchInsertOne is tryInsert's loop body adapted for a pinned batch: the
// first attempt positions with the wave-precomputed seek record (when rec
// is still valid), retries re-seek with the deepest-ancestor resume, and
// the capacity-recovery path drops the batch pin — bumping unpinGen, since
// unpinned slots may be recycled under us — before flushing the epoch.
func (h *Handle) batchInsertOne(key uint64, rec seekRecord, useRec bool) (bool, int, error) {
	t := h.t
	ar := t.ar
	retries := 0
	skipped := 0
	for {
		if useRec {
			h.sr = rec
			useRec = false
		} else {
			skipped += h.seekBatch(key)
		}
		leaf := h.sr.leaf
		leafKey := ar.Get(leaf).key
		if leafKey == key {
			return false, skipped, nil // key already present
		}

		parent := h.sr.parent
		pn := ar.Get(parent)
		childAddr := &pn.left
		if key >= pn.key {
			childAddr = &pn.right
		}

		ni, nl, ok := h.trySpares()
		if !ok {
			if h.slot == nil || retries >= maxCapacityRetries {
				h.Stats.CapacityFailures++
				if h.m != nil {
					h.m.Inc(metrics.CapacityFailures)
				}
				return false, skipped, ErrCapacity
			}
			retries++
			h.Stats.CapacityRetries++
			if h.m != nil {
				h.m.Inc(metrics.CapacityRetries)
				h.m.Inc(metrics.SeekRestarts)
			}
			// Drop the batch pin so the epoch can advance; anything the
			// wave or the path recorded may be recycled while unpinned.
			h.unpin()
			h.unpinGen++
			h.path.valid = false
			h.slot.Flush()
			for i := 0; i < retries; i++ {
				runtime.Gosched()
			}
			h.pin()
			continue
		}
		niN, nlN := ar.Get(ni), ar.Get(nl)
		nlN.key = key
		nlN.left.Store(0)
		nlN.right.Store(0)
		if key < leafKey {
			niN.key = leafKey
			niN.left.Store(atomicx.Pack(nl, false, false))
			niN.right.Store(atomicx.Pack(leaf, false, false))
		} else {
			niN.key = key
			niN.left.Store(atomicx.Pack(leaf, false, false))
			niN.right.Store(atomicx.Pack(nl, false, false))
		}

		h.hook(FPInsertCAS)
		if childAddr.CompareAndSwap(atomicx.Pack(leaf, false, false), atomicx.Pack(ni, false, false)) {
			h.Stats.CASSucceeded++
			h.spareInternal, h.spareLeaf = 0, 0
			h.bumpDirty(key)
			return true, skipped, nil
		}
		h.Stats.CASFailed++
		if h.m != nil {
			h.m.Inc(metrics.InsertCASFailures)
			h.m.Inc(metrics.InsertRetries)
			h.m.Inc(metrics.SeekRestarts)
		}
		w := childAddr.Load()
		if atomicx.Addr(w) == leaf && atomicx.Marked(w) {
			h.Stats.HelpAttempts++
			if h.m != nil {
				h.m.Inc(metrics.HelpOther)
			}
			h.cleanup(key, &h.sr)
		}
	}
}

// DeleteBatch deletes every key in ks; out[i] reports whether the set
// changed. Each delete is individually linearizable. len(out) must equal
// len(ks).
func (h *Handle) DeleteBatch(ks []uint64, out []bool) {
	if len(out) != len(ks) {
		panic("core: DeleteBatch result length mismatch")
	}
	if len(ks) == 0 {
		return
	}
	ord := h.sortBatch(ks)
	h.pin()
	h.path.valid = false
	skipped := h.seekWave(ord)
	for i, e := range ord {
		ok, s := h.batchDeleteOne(e.key, h.recs[i].sr)
		out[e.pos] = ok
		skipped += uint64(s)
	}
	h.Stats.Deletes += uint64(len(ks))
	h.finishBatch(uint64(len(ks)), metrics.OpsDelete, skipped)
}

// batchDeleteOne is delete's loop body adapted for a pinned batch; see
// batchInsertOne. Deletes never drop the batch pin, so the precomputed
// record is always safe to try first. After a successful splice the
// removed nodes' recorded entries fail the resume's unmarked-word check,
// so a retrying neighbour resumes from the surviving ancestor instead of
// the root.
func (h *Handle) batchDeleteOne(key uint64, rec seekRecord) (bool, int) {
	ar := h.t.ar
	mode := injection
	skipped := 0
	useRec := true
	var leaf uint32

	for {
		if useRec {
			h.sr = rec
			useRec = false
		} else {
			skipped += h.seekBatch(key)
		}
		sr := &h.sr
		pn := ar.Get(sr.parent)
		childAddr := &pn.left
		if key >= pn.key {
			childAddr = &pn.right
		}

		if mode == injection {
			leaf = sr.leaf
			if ar.Get(leaf).key != key {
				return false, skipped // key not present
			}
			h.hook(FPFlagCAS)
			if childAddr.CompareAndSwap(atomicx.Pack(leaf, false, false), atomicx.Pack(leaf, true, false)) {
				h.Stats.CASSucceeded++
				mode = cleanupMode
				if h.cleanup(key, sr) {
					h.bumpDirty(key)
					return true, skipped
				}
			} else {
				h.Stats.CASFailed++
				if h.m != nil {
					h.m.Inc(metrics.DeleteFlagCASFailures)
				}
				w := childAddr.Load()
				if atomicx.Addr(w) == leaf && atomicx.Marked(w) {
					h.Stats.HelpAttempts++
					if h.m != nil {
						h.m.Inc(metrics.HelpOther)
					}
					h.cleanup(key, sr)
				}
			}
		} else {
			if sr.leaf != leaf {
				h.bumpDirty(key)
				return true, skipped // a helper finished our delete
			}
			if h.cleanup(key, sr) {
				h.bumpDirty(key)
				return true, skipped
			}
		}
		if h.m != nil {
			h.m.Inc(metrics.SeekRestarts)
		}
	}
}
