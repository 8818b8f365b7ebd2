package core

import (
	"testing"

	"repro/internal/keys"
)

// FuzzModelEquivalence interprets the fuzz input as an operation program
// and differentially checks the tree against a map model, auditing the
// structure at the end. An opcode byte b selects b%6: 0–2 are a single
// insert, delete or search of the next key byte; 3–5 are one InsertBatch,
// DeleteBatch or LookupBatch over the next 1+(b/6)%16 key bytes,
// duplicates allowed, where each distinct key must succeed exactly as
// often as the model allows (once or never). Run with
// `go test -fuzz FuzzModelEquivalence ./internal/core` to explore; the
// seed corpus executes under plain `go test`.
func FuzzModelEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1})             // insert, delete, search key 1
	f.Add([]byte{0, 5, 0, 3, 1, 5, 2, 3, 1, 3}) // interleaved
	f.Add([]byte{0, 0, 0, 255, 1, 0, 1, 255})   // boundary keys
	// Batches with duplicate keys; 16-key batches, the delete in descending order.
	f.Add([]byte{3 + 6*4, 7, 1, 7, 9, 4, 5 + 6*2, 7, 8, 9, 4 + 6*3, 9, 9, 1, 2, 5 + 6, 1, 9})
	f.Add([]byte{0, 4, 3 + 6*15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 4 + 6*15, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 2, 4})
	f.Add([]byte{0, 48, 0, 9, 4 + 6, 48, 32, 3 + 6, 32, 9}) // mixed outcomes in descending caller order
	f.Fuzz(func(t *testing.T, program []byte) {
		tr := New(Config{Capacity: 1 << 18})
		h := tr.NewHandle()
		model := map[int64]bool{}
		for i := 0; i+1 < len(program); {
			op := program[i] % 6
			if op >= 3 {
				end := min(i+2+int(program[i]/6)%16, len(program))
				checkBatch(t, h, model, op, program[i+1:end])
				i = end
				continue
			}
			k := int64(program[i+1])
			u := keys.Map(k)
			i += 2
			switch op {
			case 0:
				if got, want := h.Insert(u), !model[k]; got != want {
					t.Fatalf("insert(%d) = %v, want %v", k, got, want)
				}
				model[k] = true
			case 1:
				if got, want := h.Delete(u), model[k]; got != want {
					t.Fatalf("delete(%d) = %v, want %v", k, got, want)
				}
				delete(model, k)
			default:
				if got, want := h.Search(u), model[k]; got != want {
					t.Fatalf("search(%d) = %v, want %v", k, got, want)
				}
			}
		}
		if err := tr.Audit(); err != nil {
			t.Fatalf("audit after program: %v", err)
		}
		if tr.Size() != len(model) {
			t.Fatalf("size %d, model %d", tr.Size(), len(model))
		}
	})
}

// checkBatch runs one batch opcode (3 insert, 4 delete, 5 lookup) over kb
// and checks it against the model, then applies it to the model.
func checkBatch(t *testing.T, h *Handle, model map[int64]bool, op byte, kb []byte) {
	ks := make([]uint64, len(kb))
	for i, b := range kb {
		ks[i] = keys.Map(int64(b))
	}
	if op == 5 {
		for i, got := range batchLookup(h, ks) {
			if want := model[int64(kb[i])]; got != want {
				t.Fatalf("LookupBatch(%v)[%d] = %v, want %v", kb, i, got, want)
			}
		}
		return
	}
	var ok []bool
	if op == 3 {
		var errs []error
		ok, errs = batchInsert(h, ks)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("InsertBatch(%v)[%d]: %v", kb, i, err)
			}
		}
	} else {
		ok = batchDelete(h, ks)
	}
	wins := map[int64]int{}
	for i, b := range kb {
		if ok[i] {
			wins[int64(b)]++
		}
	}
	for _, b := range kb {
		k := int64(b)
		want := 0
		if model[k] != (op == 3) { // an absent key for inserts, a present one for deletes
			want = 1
		}
		if wins[k] != want {
			t.Fatalf("batch op %d over %v: key %d succeeded %d times, want %d", op, kb, k, wins[k], want)
		}
	}
	for _, b := range kb {
		if op == 3 {
			model[int64(b)] = true
		} else {
			delete(model, int64(b))
		}
	}
}

// FuzzReclaimEquivalence runs the same program shape against the
// reclaiming configuration, whose recycling paths are the riskiest code.
func FuzzReclaimEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1})
	f.Add([]byte{0, 9, 0, 8, 1, 9, 0, 9, 1, 8, 1, 9})
	f.Fuzz(func(t *testing.T, program []byte) {
		tr := New(Config{Capacity: 1 << 18, Reclaim: true})
		h := tr.NewHandle()
		defer h.Close()
		model := map[int64]bool{}
		for i := 0; i+1 < len(program); i += 2 {
			op, kb := program[i]%2, program[i+1]%16 // tiny key space: heavy recycling
			k := int64(kb)
			u := keys.Map(k)
			if op == 0 {
				if got, want := h.Insert(u), !model[k]; got != want {
					t.Fatalf("insert(%d) = %v, want %v", k, got, want)
				}
				model[k] = true
			} else {
				if got, want := h.Delete(u), model[k]; got != want {
					t.Fatalf("delete(%d) = %v, want %v", k, got, want)
				}
				delete(model, k)
			}
		}
		if err := tr.Audit(); err != nil {
			t.Fatal(err)
		}
	})
}
