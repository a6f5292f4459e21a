package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"esti/internal/tensor"
)

// shardActs draws m×k activations with some exact zeros, so the tile's
// zero-skip paths run too.
func shardActs(rng *rand.Rand, m, k int) *tensor.Mat {
	a := tensor.New(m, k).FillRand(rng, 1)
	for i := range a.Data {
		if rng.Intn(5) == 0 {
			a.Data[i] = 0
		}
	}
	return a
}

func sameShardBits(t *testing.T, label string, got, want *tensor.Mat) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %g, want %g", label, i, got.Data[i], want.Data[i])
		}
	}
}

// ranges returns sub-ranges [lo, hi) of [0, dim) starting at offsets that
// are and are not multiples of 8.
func ranges(dim int) [][2]int {
	var out [][2]int
	seen := map[[2]int]bool{}
	for _, lo := range []int{0, 3, 8, 13} {
		for _, hi := range []int{lo + 1, lo + 9, dim} {
			if r := [2]int{lo, min(hi, dim)}; lo < dim && !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// A row block and a column range taken as views multiply Float32bits-equal
// to a cut copy of the same block, float and int8, through mulInto and
// through mulAcc + finishAcc from an earlier partial.
func TestShardViewsMatchCutCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, int8w := range []bool{false, true} {
		for _, k := range []int{1, 5, 8, 17, 40} {
			for _, n := range []int{1, 7, 8, 9, 24, 43} {
				full := wholeShard(tensor.New(k, n).FillRand(rng, 1), int8w)
				check := func(label string, view, cp shard) {
					for _, m := range []int{1, 3, 9} {
						a := shardActs(rng, m, view.k)
						got := view.mulInto(tensor.New(1, 1), a)
						sameShardBits(t, label+" mulInto", got, cp.mulInto(tensor.New(1, 1), a))

						pre := tensor.New(m, view.n).FillRand(rng, 1)
						got, want := pre.Clone(), pre.Clone()
						view.mulAcc(got, a)
						view.finishAcc(got)
						cp.mulAcc(want, a)
						cp.finishAcc(want)
						sameShardBits(t, label+" mulAcc", got, want)
					}
				}
				for _, r := range ranges(k) {
					label := fmt.Sprintf("int8=%v [%d,%d] rows [%d,%d)", int8w, k, n, r[0], r[1])
					check(label, full.rows(r[0], r[1]),
						full.take(cut{contiguous(r[0], r[1]-r[0]), contiguous(0, n)}))
				}
				for _, r := range ranges(n) {
					label := fmt.Sprintf("int8=%v [%d,%d] cols [%d,%d)", int8w, k, n, r[0], r[1])
					check(label, full.cols(r[0], r[1]),
						full.take(cut{contiguous(0, k), contiguous(r[0], r[1]-r[0])}))
				}
			}
		}
	}
}

// Taking a view and multiplying into a reused destination allocates
// nothing: the views are values over the stored shard.
func TestShardViewsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, int8w := range []bool{false, true} {
		full := wholeShard(tensor.New(32, 40).FillRand(rng, 1), int8w)
		a, aRows := shardActs(rng, 4, 32), shardActs(rng, 4, 13)
		dst, acc := tensor.New(4, 11), tensor.New(4, 40)
		if avg := testing.AllocsPerRun(50, func() {
			full.cols(5, 16).mulInto(dst, a)
			full.rows(3, 16).mulAcc(acc, aRows)
			full.finishAcc(acc)
		}); avg != 0 {
			t.Errorf("int8=%v: views and multiplies allocate %v times", int8w, avg)
		}
	}
}

// Quantize once, then cut: a cut's int8 values and scales are the whole
// quantization's at the cut's indices, through a row cut, a column cut and
// a cut of a cut.
func TestCutQuantizeOnceThenShard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := tensor.New(8, 6).FillRand(rng, 1)
	full := wholeShard(w, true)
	at := func(s shard, r, c int) float32 { return float32(s.b.I8[r*s.n+c]) * s.scales[c] }
	rows, cols := []int{1, 3, 4}, []int{0, 2, 5}
	for _, tc := range []struct {
		name       string
		got        shard
		rows, cols []int
	}{
		{"rows", full.take(cut{rows, contiguous(0, 6)}), rows, contiguous(0, 6)},
		{"cols", full.take(cut{contiguous(0, 8), cols}), contiguous(0, 8), cols},
		{"rows then cols", full.take(cut{rows, contiguous(0, 6)}).take(cut{contiguous(0, 3), cols}), rows, cols},
	} {
		if tc.got.k != len(tc.rows) || tc.got.n != len(tc.cols) {
			t.Fatalf("%s: shape %dx%d", tc.name, tc.got.k, tc.got.n)
		}
		for i, r := range tc.rows {
			for j, c := range tc.cols {
				if tc.got.scales[j] != full.scales[c] || at(tc.got, i, j) != at(full, r, c) {
					t.Fatalf("%s: (%d,%d) is not the whole quantization's (%d,%d)", tc.name, i, j, r, c)
				}
			}
		}
	}
}

// Row-block cuts of int8 weights quantized whole multiply to partial sums
// that add up to the whole product: the shared scales make the partials
// well-defined, which is what a chip's int8 shard relies on.
func TestCutQuantizedPartialSums(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := tensor.New(3, 8).FillRand(rng, 1)
	full := wholeShard(tensor.New(8, 5).FillRand(rng, 1), true)
	want := full.mulInto(tensor.New(1, 1), a)
	all := contiguous(0, 5)
	top := full.take(cut{contiguous(0, 4), all}).mulInto(tensor.New(1, 1), tensor.SliceCols(a, 0, 4))
	bot := full.take(cut{contiguous(4, 4), all}).mulInto(tensor.New(1, 1), tensor.SliceCols(a, 4, 8))
	if d := tensor.MaxAbsDiff(want, tensor.Add(top, bot)); d > 1e-5 {
		t.Errorf("quantized partial sums differ from the whole by %g", d)
	}
}

// A multiply whose activations do not match the shard's rows, or whose
// accumulator does not match the product, panics instead of reading a
// shorter contraction or writing a narrower output.
func TestShardShapePanics(t *testing.T) {
	s := wholeShard(tensor.New(3, 4), false)
	for name, f := range map[string]func(){
		"short contraction":   func() { s.mulInto(tensor.New(1, 1), tensor.New(2, 2)) },
		"long contraction":    func() { s.mulAcc(tensor.New(2, 4), tensor.New(2, 5)) },
		"accumulator rows":    func() { s.mulAcc(tensor.New(3, 4), tensor.New(2, 3)) },
		"accumulator columns": func() { s.mulAcc(tensor.New(2, 5), tensor.New(2, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
