package bst_test

import (
	"errors"
	"math/rand"
	"testing"

	bst "repro"
)

// insertBatch runs an InsertBatch and returns out for brevity.
func insertBatch(s interface {
	InsertBatch([]int64, []bst.OpResult)
}, ks []int64) []bst.OpResult {
	out := make([]bst.OpResult, len(ks))
	s.InsertBatch(ks, out)
	return out
}

// TestBatchPublicContract: the Tree and Accessor batch methods report
// per-slot results in caller order, a duplicate key inserts once, and the
// tree agrees with the results afterwards.
func TestBatchPublicContract(t *testing.T) {
	eachShape(t, func(t *testing.T, s *bst.Tree) {
		defer s.Close()

		ks := []int64{5, 1, 9, 5, -3, 1000, 7}
		out := insertBatch(s, ks)
		// 5 appears twice: exactly one of the two slots inserted it.
		fives := 0
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("insert %d: %v", ks[i], r.Err)
			}
			if ks[i] == 5 && r.OK {
				fives++
			}
		}
		if fives != 1 {
			t.Fatalf("duplicate key inserted %d times, want 1", fives)
		}

		got := make([]bst.OpResult, len(ks))
		s.ContainsBatch(ks, got)
		for i, r := range got {
			if !r.OK || r.Err != nil {
				t.Fatalf("contains %d = (%v, %v), want (true, nil)", ks[i], r.OK, r.Err)
			}
		}
		if s.Contains(2) {
			t.Fatal("contains(2) on tree without 2")
		}

		del := []int64{5, 2, -3}
		dout := make([]bst.OpResult, len(del))
		s.DeleteBatch(del, dout)
		if !dout[0].OK || dout[1].OK || !dout[2].OK {
			t.Fatalf("delete results = %+v", dout)
		}
		if s.Contains(5) || s.Contains(-3) || !s.Contains(9) {
			t.Fatal("tree contents wrong after DeleteBatch")
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}

		// Same contract through an Accessor.
		a := s.NewAccessor()
		defer a.Close()
		aout := make([]bst.OpResult, 2)
		a.InsertBatch([]int64{5, 42}, aout)
		if !aout[0].OK || !aout[1].OK {
			t.Fatalf("accessor InsertBatch = %+v", aout)
		}
		a.ContainsBatch([]int64{5, 42}, aout)
		if !aout[0].OK || !aout[1].OK {
			t.Fatalf("accessor ContainsBatch = %+v", aout)
		}
		a.DeleteBatch([]int64{42, 41}, aout)
		if !aout[0].OK || aout[1].OK {
			t.Fatalf("accessor DeleteBatch = %+v", aout)
		}
	})
}

// TestBatchOutOfRangePerOp: a key above MaxKey must fail only its own
// slot — with the ErrKeyOutOfRange sentinel — while the rest of the batch
// executes. Single-key methods panic on the same input; batches must not.
func TestBatchOutOfRangePerOp(t *testing.T) {
	eachShape(t, func(t *testing.T, s *bst.Tree) {
		defer s.Close()
		ks := []int64{1, bst.MaxKey + 1, 3}
		out := insertBatch(s, ks)
		if !out[0].OK || !out[2].OK {
			t.Fatalf("valid slots failed: %+v", out)
		}
		if out[1].OK || !errors.Is(out[1].Err, bst.ErrKeyOutOfRange) {
			t.Fatalf("out-of-range slot = %+v, want ErrKeyOutOfRange", out[1])
		}
		s.ContainsBatch(ks, out)
		if !out[0].OK || !errors.Is(out[1].Err, bst.ErrKeyOutOfRange) || !out[2].OK {
			t.Fatalf("ContainsBatch = %+v", out)
		}
		s.DeleteBatch(ks, out)
		if !out[0].OK || !errors.Is(out[1].Err, bst.ErrKeyOutOfRange) || !out[2].OK {
			t.Fatalf("DeleteBatch = %+v", out)
		}
	})
}

// TestBatchCapacityPerOp: on a capacity-bounded tree, ErrCapacity lands in
// the failing slots (sentinel identity intact) and the tree stays valid.
func TestBatchCapacityPerOp(t *testing.T) {
	s := bst.New(bst.WithCapacity(64))
	defer s.Close()
	ks := make([]int64, 64)
	for i := range ks {
		ks[i] = int64(i)
	}
	out := insertBatch(s, ks)
	okN, capN := 0, 0
	for i, r := range out {
		switch {
		case r.Err == nil && r.OK:
			okN++
		case errors.Is(r.Err, bst.ErrCapacity):
			if r.OK {
				t.Fatalf("slot %d: OK with ErrCapacity", i)
			}
			capN++
		default:
			t.Fatalf("slot %d: unexpected result %+v", i, r)
		}
	}
	if okN == 0 || capN == 0 {
		t.Fatalf("want a mix of successes and capacity failures, got ok=%d cap=%d", okN, capN)
	}
	// Per-op results must agree with the tree.
	chk := make([]bst.OpResult, len(ks))
	s.ContainsBatch(ks, chk)
	for i, r := range chk {
		if r.OK != out[i].OK {
			t.Fatalf("key %d: contains=%v but insert reported %+v", ks[i], r.OK, out[i])
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate after capacity exhaustion: %v", err)
	}
}

// TestBatchModelPublic cross-checks the public batch API against a map
// model through the accessor path.
func TestBatchModelPublic(t *testing.T) {
	s := bst.New(bst.WithReclamation())
	defer s.Close()
	a := s.NewAccessor()
	defer a.Close()
	rng := rand.New(rand.NewSource(7))
	model := map[int64]bool{}
	out := make([]bst.OpResult, 32)
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(32)
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = int64(rng.Intn(300))
		}
		switch round % 3 {
		case 0:
			a.InsertBatch(ks, out[:n])
			for _, k := range ks {
				model[k] = true
			}
		case 1:
			a.DeleteBatch(ks, out[:n])
			for _, k := range ks {
				delete(model, k)
			}
		case 2:
			a.ContainsBatch(ks, out[:n])
			for i, k := range ks {
				if out[i].OK != model[k] {
					t.Fatalf("round %d: contains(%d) = %v, model %v", round, k, out[i].OK, model[k])
				}
			}
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(model))
	}
}

func TestMapBatch(t *testing.T) {
	m := bst.NewMap[string]()
	ks := []int64{1, 2, 3}
	out := make([]bst.OpResult, 3)
	m.PutBatch(ks, []string{"a", "b", "c"}, out)
	for i, r := range out {
		if r.OK || r.Err != nil {
			t.Fatalf("fresh PutBatch slot %d = %+v", i, r)
		}
	}
	m.PutBatch([]int64{2, bst.MaxKey + 1}, []string{"B", "x"}, out[:2])
	if !out[0].OK || !errors.Is(out[1].Err, bst.ErrKeyOutOfRange) {
		t.Fatalf("PutBatch replace/out-of-range = %+v", out[:2])
	}
	if v, _ := m.Get(2); v != "B" {
		t.Fatalf("Get(2) = %q, want B", v)
	}
	m.ContainsBatch([]int64{1, 9}, out[:2])
	if !out[0].OK || out[1].OK {
		t.Fatalf("ContainsBatch = %+v", out[:2])
	}
	m.DeleteBatch([]int64{1, 9}, out[:2])
	if !out[0].OK || out[1].OK {
		t.Fatalf("DeleteBatch = %+v", out[:2])
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

// TestAccessorBatchAllocs: an accessor's steady-state batch triple — a
// 64-key InsertBatch, ContainsBatch and DeleteBatch — does not allocate,
// on the default tree and on a forest whose batch lands in one shard
// (the shard scratch and the sub-batch dispatch are the handle's own;
// only a fan-out across shards may allocate).
func TestAccessorBatchAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []bst.Option
	}{
		{"default", nil},
		{"shards=4/one-shard-batch", []bst.Option{bst.WithShards(4), bst.WithShardRange(0, 1<<20-1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := bst.New(tc.opts...)
			defer tree.Close()
			acc := tree.NewAccessor()
			defer acc.Close()
			ks := make([]int64, 64)
			for i := range ks {
				ks[i] = int64(i * 7)
			}
			out := make([]bst.OpResult, len(ks))
			triple := func() {
				acc.InsertBatch(ks, out)
				acc.ContainsBatch(ks, out)
				acc.DeleteBatch(ks, out)
			}
			triple() // size the accessor's scratch
			if got := testing.AllocsPerRun(200, triple); got != 0 {
				t.Errorf("batch triple allocates %.1f per run, want 0", got)
			}
			for i, r := range out {
				if r.Err != nil || !r.OK {
					t.Fatalf("delete %d = %+v", ks[i], r)
				}
			}
		})
	}
}
