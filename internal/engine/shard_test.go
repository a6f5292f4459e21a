package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"esti/internal/quant"
	"esti/internal/simd"
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

// ranges returns sub-ranges [lo, hi) of [0, dim) starting at each of
// starts.
func ranges(dim int, starts ...int) [][2]int {
	var out [][2]int
	seen := map[[2]int]bool{}
	for _, lo := range starts {
		for _, hi := range []int{lo + 1, lo + 9, dim} {
			if r := [2]int{lo, min(hi, dim)}; lo < dim && !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// whole is all of m as one panel.
func whole(m matrix) shard {
	return m.take(cut{rows: contiguous(0, m.k), cols: contiguous(0, m.n)})
}

// A row block and a range of strips taken as views multiply Float32bits-equal
// to a cut copy of the same block, float and int8, through mulInto and
// through mulAcc + finishAcc from an earlier partial. Row blocks start
// anywhere; a column range starts on a strip of its panel.
func TestShardViewsMatchCutCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, int8w := range []bool{false, true} {
		for _, k := range []int{1, 5, 8, 17, 40} {
			for _, n := range []int{1, 7, 8, 9, 24, 43} {
				src := wholeMatrix(tensor.New(k, n).FillRand(rng, 1), int8w)
				full := whole(src)
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
				for _, r := range ranges(k, 0, 3, 8, 13) {
					label := fmt.Sprintf("int8=%v [%d,%d] rows [%d,%d)", int8w, k, n, r[0], r[1])
					check(label, full.rows(r[0], r[1]),
						src.take(cut{rows: contiguous(r[0], r[1]-r[0]), cols: contiguous(0, n)}))
				}
				for _, r := range ranges(n, 0, 8, 16) {
					label := fmt.Sprintf("int8=%v [%d,%d] cols [%d,%d)", int8w, k, n, r[0], r[1])
					check(label, full.cols(r[0], r[1]),
						src.take(cut{rows: contiguous(0, k), cols: contiguous(r[0], r[1]-r[0])}))
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
		src := wholeMatrix(tensor.New(32, 40).FillRand(rng, 1), int8w)
		full := src.take(cut{rows: contiguous(0, 32), cols: contiguous(0, 40), panels: []int{0, 11, 40}})
		a, aRows := shardActs(rng, 4, 32), shardActs(rng, 4, 13)
		dst, acc := tensor.New(4, 21), tensor.New(4, 29)
		if avg := testing.AllocsPerRun(50, func() {
			full.cols(19, 40).mulInto(dst, a)
			p := full.cols(11, 40)
			p.rows(3, 16).mulAcc(acc, aRows)
			p.finishAcc(acc)
		}); avg != 0 {
			t.Errorf("int8=%v: views and multiplies allocate %v times", int8w, avg)
		}
	}
}

// elem is weight (r, c) of a packed shard, located by hand from its panel
// bounds and strides.
func elem(s shard, r, c int) float32 {
	panels := s.panels
	if panels == nil {
		panels = []int{0, s.n}
	}
	strip, p := 0, 0
	for c >= panels[p+1] {
		strip += (panels[p+1] - panels[p] + 7) / 8
		p++
	}
	j := c - panels[p]
	at := (strip+j/8)*s.b.StripStride + r*s.b.RowStride + j%8
	if s.b.I8 != nil {
		return float32(s.b.I8[at])
	}
	return s.b.F32[at]
}

// Quantize once, then cut: a cut's int8 values and scales are the whole
// quantization's at the cut's indices, through a row cut, a column cut and
// a cut of both into two panels, read out of the packed strips.
func TestCutQuantizeOnceThenShard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := tensor.New(8, 6).FillRand(rng, 1)
	src := wholeMatrix(w, true)
	full := whole(src)
	at := func(s shard, r, c int) float32 { return elem(s, r, c) * s.scales[c] }
	rows, cols := []int{1, 3, 4}, []int{0, 2, 5}
	for _, tc := range []struct {
		name       string
		got        shard
		rows, cols []int
	}{
		{"rows", src.take(cut{rows: rows, cols: contiguous(0, 6)}), rows, contiguous(0, 6)},
		{"cols", src.take(cut{rows: contiguous(0, 8), cols: cols}), contiguous(0, 8), cols},
		{"rows and cols in panels", src.take(cut{rows: rows, cols: cols, panels: []int{0, 1, 3}}), rows, cols},
	} {
		if tc.got.k != len(tc.rows) || tc.got.n != len(tc.cols) {
			t.Fatalf("%s: shape %dx%d", tc.name, tc.got.k, tc.got.n)
		}
		for i, r := range tc.rows {
			for j, c := range tc.cols {
				if tc.got.scales[j] != full.scales[c] || at(tc.got, i, j) != at(full, r, c) ||
					at(full, r, c) != float32(src.i8[r*src.n+c])*src.scales[c] {
					t.Fatalf("%s: (%d,%d) is not the whole quantization's (%d,%d)", tc.name, i, j, r, c)
				}
			}
		}
	}
}

// TestPanelsMultiplyLikeRowMajor is the packed layout's contract, on
// generated geometry: random contractions (k%4 ≠ 0 among them), random
// panel widths (n%8 ≠ 0 among them) over a shuffled choice of rows and
// columns, float32 and int8 weights. Every panel, and every strip-aligned
// range of one, multiplies Float32bits-equal to simd.Gemm over the
// row-major cut of the same block — through mulInto, and through mulAcc
// over two row blocks then finishAcc.
func TestPanelsMultiplyLikeRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		int8w := trial%2 == 1
		k := 1 + rng.Intn(40)
		panels := []int{0}
		for p := 1 + rng.Intn(3); p > 0; p-- {
			panels = append(panels, panels[len(panels)-1]+1+rng.Intn(30))
		}
		n := panels[len(panels)-1]
		srcRows, srcCols := k+rng.Intn(5), n+rng.Intn(5)
		src := wholeMatrix(tensor.New(srcRows, srcCols).FillRand(rng, 1), int8w)
		ct := cut{rows: rng.Perm(srcRows)[:k], cols: rng.Perm(srcCols)[:n], panels: panels}
		if rng.Intn(2) == 0 { // abutting columns, copied as runs
			ct.cols = contiguous(rng.Intn(srcCols-n+1), n)
		}
		sh := src.take(ct)

		// The row-major cut, and its scales.
		rm := make([]float32, k*n)
		rm8 := make([]int8, k*n)
		for i, r := range ct.rows {
			for j, c := range ct.cols {
				if int8w {
					rm8[i*n+j] = src.i8[r*src.n+c]
				} else {
					rm[i*n+j] = src.f32[r*src.n+c]
				}
			}
		}
		rowMajor := simd.GemmB{F32: rm, RowStride: n, StripStride: 8}
		var scales []float32
		if int8w {
			rowMajor = simd.GemmB{I8: rm8, RowStride: n, StripStride: 8}
			scales = make([]float32, n)
			for j, c := range ct.cols {
				scales[j] = src.scales[c]
			}
		}
		want := func(a, pre *tensor.Mat, lo, hi, split int) *tensor.Mat {
			out := pre.Clone()
			if split < 0 {
				simd.Gemm(out.Data, out.Cols, a.Data, k, rowMajor.From(lo), a.Rows, k, hi-lo, false)
			} else {
				if split > 0 {
					simd.Gemm(out.Data, out.Cols, a.Data, k, rowMajor.From(lo), a.Rows, split, hi-lo, true)
				}
				if split < k {
					simd.Gemm(out.Data, out.Cols, a.Data[split:], k, rowMajor.From(split*n+lo), a.Rows, k-split, hi-lo, true)
				}
			}
			if scales != nil {
				quant.ScaleColumns(out, scales[lo:hi])
			}
			return out
		}

		for p := 0; p+1 < len(panels); p++ {
			for lo := panels[p]; lo < panels[p+1]; lo += 8 + 8*rng.Intn(2) {
				hi := lo + 1 + rng.Intn(panels[p+1]-lo)
				view := sh.cols(lo, hi)
				label := fmt.Sprintf("trial %d int8=%v k=%d panels %v cols [%d,%d)", trial, int8w, k, panels, lo, hi)
				m := 1 + rng.Intn(10)
				a := shardActs(rng, m, k)
				pre := tensor.New(m, hi-lo).FillRand(rng, 1)
				sameShardBits(t, label+" mulInto", view.mulInto(tensor.New(1, 1), a), want(a, pre, lo, hi, -1))

				split := rng.Intn(k + 1)
				got := pre.Clone()
				view.rows(0, split).mulAcc(got, tensor.SliceCols(a, 0, split))
				view.rows(split, k).mulAcc(got, tensor.SliceCols(a, split, k))
				view.finishAcc(got)
				sameShardBits(t, label+fmt.Sprintf(" mulAcc rows [0,%d) [%d,%d)", split, split, k), got, want(a, pre, lo, hi, split))
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
	src := wholeMatrix(tensor.New(8, 5).FillRand(rng, 1), true)
	want := whole(src).mulInto(tensor.New(1, 1), a)
	all := contiguous(0, 5)
	top := src.take(cut{rows: contiguous(0, 4), cols: all}).mulInto(tensor.New(1, 1), tensor.SliceCols(a, 0, 4))
	bot := src.take(cut{rows: contiguous(4, 4), cols: all}).mulInto(tensor.New(1, 1), tensor.SliceCols(a, 4, 8))
	if d := tensor.MaxAbsDiff(want, tensor.Add(top, bot)); d > 1e-5 {
		t.Errorf("quantized partial sums differ from the whole by %g", d)
	}
}

// A multiply whose activations do not match the shard's rows, or whose
// accumulator does not match the product, panics instead of reading a
// shorter contraction or writing a narrower output; so do a column range
// that does not start a strip of one panel, and a multiply of several
// panels at once.
func TestShardShapePanics(t *testing.T) {
	src := wholeMatrix(tensor.New(3, 20), false)
	s := whole(src).cols(0, 4)
	two := src.take(cut{rows: contiguous(0, 3), cols: contiguous(0, 20), panels: []int{0, 12, 20}})
	for name, f := range map[string]func(){
		"off a strip":         func() { two.cols(3, 12) },
		"across panels":       func() { two.cols(8, 13) },
		"past the end":        func() { two.cols(12, 21) },
		"empty range":         func() { two.cols(12, 12) },
		"several panels":      func() { two.mulInto(tensor.New(1, 1), tensor.New(2, 3)) },
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
