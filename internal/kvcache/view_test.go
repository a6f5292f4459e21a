package kvcache

import (
	"math/rand"
	"testing"

	"esti/internal/quant"
	"esti/internal/tensor"
)

// formats are the two storage formats every view test runs under.
var formats = []struct {
	name     string
	int8Mode bool
	newCache func(layers, seqs, maxLen, kvWidth int) *Cache
	newStore func(layers, width, budgetBytes int) *PrefixStore
}{
	{"float32", false, New, NewPrefixStore},
	{"int8", true, NewInt8, NewPrefixStoreInt8},
}

// rowAt reads row r of a slot's two segments as float32: the stored value,
// or int8 · scale.
func rowAt(pre, priv Rows, r int) []float32 {
	seg := pre
	if r >= pre.N {
		seg, r = priv, r-pre.N
	}
	out := make([]float32, seg.Cols)
	for j := range out {
		if seg.I8 != nil {
			out[j] = float32(seg.I8[r*seg.Cols+j]) * seg.Scales[r]
		} else {
			out[j] = seg.F32[r*seg.Cols+j]
		}
	}
	return out
}

// storedAs is what a float32 row reads back as once stored: itself, or its
// per-row int8 quantization multiplied back.
func storedAs(row []float32, int8Mode bool) []float32 {
	if !int8Mode {
		return row
	}
	q := make([]int8, len(row))
	scale := quant.QuantizeRowInto(q, row)
	out := make([]float32, len(row))
	for j, v := range q {
		out[j] = float32(v) * scale
	}
	return out
}

// Segments are the zero-copy views the fused attention kernel walks. They
// and the materializing RowsK/RowsV must both read back, row for row, what
// was inserted and appended across no-prefix, prefix-only, and
// prefix+suffix ranges, and the views must alias live storage rather than
// copy it — in either storage format.
func TestViewsMatchRowsAcrossPrefixStates(t *testing.T) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			const layers, width, maxLen = 2, 4, 8
			store := f.newStore(layers, width, 0)
			c := f.newCache(layers, 2, maxLen, width)

			// Build a 3-token shared prefix.
			pk := make([]*tensor.Mat, layers)
			pv := make([]*tensor.Mat, layers)
			for l := 0; l < layers; l++ {
				pk[l] = tensor.New(3, width)
				pv[l] = tensor.New(3, width)
				for i := range pk[l].Data {
					pk[l].Data[i] = float32(100*l + i)
					pv[l].Data[i] = -float32(100*l + i)
				}
			}
			p, err := store.Insert([]int{1, 2, 3}, pk, pv)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AttachPrefix(1, p.Block(0)); err != nil {
				t.Fatal(err)
			}

			// Private suffix on both slots.
			rnd := rand.New(rand.NewSource(5))
			sk := make([]*tensor.Mat, layers)
			sv := make([]*tensor.Mat, layers)
			for l := 0; l < layers; l++ {
				sk[l] = tensor.New(2, width).FillRand(rnd, 1)
				sv[l] = tensor.New(2, width).FillRand(rnd, 1)
				c.AppendSeq(l, 0, sk[l], sv[l], 2)
				c.AppendSeq(l, 1, sk[l], sv[l], 2)
			}
			c.AdvanceSeq(0, 2)
			c.AdvanceSeq(1, 2)
			// source returns what went into position r of a slot's layer l.
			source := func(l, slot, r int) (k, v []float32) {
				if slot == 1 && r < 3 {
					return pk[l].Row(r), pv[l].Row(r)
				}
				if slot == 1 {
					r -= 3
				}
				return sk[l].Row(r), sv[l].Row(r)
			}

			check := func(slot, total int) {
				t.Helper()
				for l := 0; l < layers; l++ {
					preK, privK, preV, privV := c.Segments(l, slot, total)
					rowsK := c.RowsK(l, slot, total)
					rowsV := c.RowsV(l, slot, total)
					if rowsK.Rows != total || rowsV.Rows != total {
						t.Fatalf("slot %d total %d: RowsK/RowsV return %d/%d rows", slot, total, rowsK.Rows, rowsV.Rows)
					}
					if preK.N+privK.N != total || preV.N != preK.N || privV.N != privK.N {
						t.Fatalf("slot %d total %d: segments cover K %d+%d, V %d+%d rows",
							slot, total, preK.N, privK.N, preV.N, privV.N)
					}
					for _, seg := range []Rows{preK, privK, preV, privV} {
						if err := seg.check(seg.N, width, f.int8Mode); err != nil {
							t.Fatalf("slot %d total %d: segment %v", slot, total, err)
						}
					}
					for r := 0; r < total; r++ {
						gotK, gotV := rowAt(preK, privK, r), rowAt(preV, privV, r)
						srcK, srcV := source(l, slot, r)
						wantK, wantV := storedAs(srcK, f.int8Mode), storedAs(srcV, f.int8Mode)
						for j := 0; j < width; j++ {
							if gotK[j] != wantK[j] || gotV[j] != wantV[j] {
								t.Fatalf("slot %d layer %d row %d col %d: view (%g,%g), stored (%g,%g)",
									slot, l, r, j, gotK[j], gotV[j], wantK[j], wantV[j])
							}
							if rowsK.At(r, j) != wantK[j] || rowsV.At(r, j) != wantV[j] {
								t.Fatalf("slot %d layer %d row %d col %d: rows (%g,%g), stored (%g,%g)",
									slot, l, r, j, rowsK.At(r, j), rowsV.At(r, j), wantK[j], wantV[j])
							}
						}
					}
				}
			}
			check(0, 2) // no prefix
			check(1, 2) // inside the prefix only
			check(1, 5) // prefix + suffix
			check(1, 3) // exactly the prefix boundary
			check(0, 0) // empty range
			check(1, 0) // empty range with prefix attached
			if got := c.SeqLen(1); got != 5 {
				t.Fatalf("slot 1 len %d", got)
			}

			// Zero-copy: zeroing through the private view must hit the cache.
			_, priv, _, _ := c.Segments(0, 0, 2)
			if c.RowsK(0, 0, 2).At(0, 0) == 0 {
				t.Fatal("test needs a nonzero first value")
			}
			priv.zero()
			if got := c.RowsK(0, 0, 2).At(0, 0); got != 0 {
				t.Errorf("private view did not alias storage (got %g)", got)
			}
			// The prefix segment aliases the store's single copy (read-only by
			// convention, but the aliasing is the point).
			pre, _, _, _ := c.Segments(0, 1, 3)
			if f.int8Mode && &pre.I8[0] != &p.Block(0).K[0].I8[0] || !f.int8Mode && &pre.F32[0] != &p.Block(0).K[0].F32[0] {
				t.Error("prefix view does not alias the store block")
			}

			// Insert returns an unreferenced entry (references come from Acquire),
			// so detaching is all the cleanup this test owes.
			c.ResetSeq(1)
			if c.prefixLen(1) != 0 {
				t.Fatal("ResetSeq left the prefix attached")
			}
		})
	}
}

// Neither the views nor a decode step's append may allocate: the engine's
// hot path takes one set of views and appends one row per layer per slot.
func TestViewsDoNotAllocate(t *testing.T) {
	for _, f := range formats {
		c := f.newCache(1, 1, 200, 4)
		k := tensor.New(2, 4)
		c.AppendSeq(0, 0, k, k, 2)
		c.AdvanceSeq(0, 2)
		if avg := testing.AllocsPerRun(100, func() {
			preK, privK, preV, privV := c.Segments(0, 0, 2)
			_ = preK.N + privK.N + preV.N + privV.N
		}); avg != 0 {
			t.Errorf("%s: Segments allocates %v times", f.name, avg)
		}
		one := tensor.New(1, 4)
		if avg := testing.AllocsPerRun(100, func() {
			c.AppendSeq(0, 0, one, one, 1)
			c.AdvanceSeq(0, 1)
		}); avg != 0 {
			t.Errorf("%s: a one-row append allocates %v times", f.name, avg)
		}
	}
}
