package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"esti/internal/simd"
)

// matMulRowPass is the GEMM this package ran before the register tile,
// kept verbatim as the tile's oracle: i-k-j order, two output rows by four
// contraction steps per pass, each row pass one simd.MulAdd4F32 call that
// loads and stores the output row, all-zero activation groups skipped, the
// last k%4 steps through simd.AxpyF32, then a single-row ladder for an odd
// last row. The tile must reproduce it bit for bit.
func matMulRowPass(dst, a, b *Mat, lo, hi int, acc bool) {
	k, n := a.Cols, b.Cols
	ad, bd, od := a.Data, b.Data, dst.Data
	if n == 0 {
		return
	}
	i := lo
	for ; i+2 <= hi; i += 2 {
		arow0 := ad[i*k : i*k+k]
		arow1 := ad[(i+1)*k : (i+1)*k+k]
		orow0 := od[i*n : i*n+n]
		orow1 := od[(i+1)*n : (i+1)*n+n][:n]
		if !acc {
			clear(orow0)
			clear(orow1)
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a00, a01, a02, a03 := arow0[kk], arow0[kk+1], arow0[kk+2], arow0[kk+3]
			a10, a11, a12, a13 := arow1[kk], arow1[kk+1], arow1[kk+2], arow1[kk+3]
			if a00 == 0 && a01 == 0 && a02 == 0 && a03 == 0 &&
				a10 == 0 && a11 == 0 && a12 == 0 && a13 == 0 {
				continue
			}
			b0 := bd[kk*n : kk*n+n]
			b1 := bd[(kk+1)*n : (kk+1)*n+n]
			b2 := bd[(kk+2)*n : (kk+2)*n+n]
			b3 := bd[(kk+3)*n : (kk+3)*n+n]
			simd.MulAdd4F32(orow0, b0, b1, b2, b3, a00, a01, a02, a03)
			simd.MulAdd4F32(orow1, b0, b1, b2, b3, a10, a11, a12, a13)
		}
		for ; kk < k; kk++ {
			a0, a1 := arow0[kk], arow1[kk]
			if a0 == 0 && a1 == 0 {
				continue
			}
			brow := bd[kk*n : kk*n+n]
			simd.AxpyF32(orow0, a0, brow)
			simd.AxpyF32(orow1, a1, brow)
		}
	}
	for ; i < hi; i++ {
		arow := ad[i*k : i*k+k]
		orow := od[i*n : i*n+n]
		if !acc {
			clear(orow)
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			simd.MulAdd4F32(orow,
				bd[kk*n:kk*n+n], bd[(kk+1)*n:(kk+1)*n+n],
				bd[(kk+2)*n:(kk+2)*n+n], bd[(kk+3)*n:(kk+3)*n+n],
				a0, a1, a2, a3)
		}
		for ; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			simd.AxpyF32(orow, av, bd[kk*n:kk*n+n])
		}
	}
}

// The generated shapes of the tile's contract: every tile height and every
// ladder of heights, column counts on both sides of the 8-wide strip, step
// counts on both sides of the 4-step group.
var (
	genMs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33}
	genKs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 64, 130}
	genNs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 136}
)

// genActivations draws an m×k activation matrix in which some rows — masked
// slots — and some groups of four steps are all zero, the two cases the
// row-pass kernels skipped and the tile multiplies through.
func genActivations(rng *rand.Rand, m, k int) *Mat {
	a := New(m, k).FillRand(rng, 1)
	for i := 0; i < m; i++ {
		row := a.Row(i)
		if rng.Intn(4) == 0 {
			clear(row)
		}
		for g := 0; g+4 <= k; g += 4 {
			if rng.Intn(5) == 0 {
				clear(row[g : g+4])
			}
		}
	}
	return a
}

func sameBits(t *testing.T, label string, got, want *Mat) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %g (%#08x), row-pass oracle has %g (%#08x)", label, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// MatMulInto and MatMulAccInto equal the retained row-pass kernel on every
// bit, serially and cut in two across the pool, on whichever dispatch path
// the run selected (CI runs this under ESTI_NOSIMD=1 as well). The
// accumulating form starts from an earlier product, as every caller in the
// engine does: such a dst holds no -0, which is what makes multiplying
// through a zero group the identity the oracle's skip is.
func TestMatMulBitIdenticalToRowPass(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	for _, m := range genMs {
		for _, k := range genKs {
			for _, n := range genNs {
				a, b := genActivations(rng, m, k), New(k, n).FillRand(rng, 1)
				base := MatMul(genActivations(rng, m, 3), New(3, n).FillRand(rng, 1))
				for _, acc := range []bool{false, true} {
					label := fmt.Sprintf("[%d,%d]·[%d,%d] acc=%v", m, k, k, n, acc)
					want := base.Clone()
					matMulRowPass(want, a, b, 0, m, acc)

					got := base.Clone()
					if acc {
						MatMulAccInto(got, a, b)
					} else {
						MatMulInto(got, a, b)
					}
					sameBits(t, label, got, want)

					// The split path whatever the size: what GemmInto
					// does past the flops threshold.
					got = base.Clone()
					splitRows(rowOp{dst: *got, a: *a, b: rowMajor(b), acc: acc})
					sameBits(t, label+" split", got, want)
				}
			}
		}
	}
}

// A zero activation row — a masked decode slot — comes out exactly +0 from
// the clearing form and leaves a +0 accumulator exactly +0, alone in its
// tile or beside live rows.
func TestMatMulZeroRowsStayPositiveZero(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const k, n = 32, 24
	b := New(k, n).FillRand(rng, 1)
	for _, m := range []int{1, 2, 4, 8, 9, 15} {
		for masked := 0; masked < m; masked++ {
			a := New(m, k).FillRand(rng, 1)
			clear(a.Row(masked))
			if m == 15 { // the whole 4-row tile at rows 8-11 as well
				clear(a.Data[8*k : 12*k])
			}
			for _, acc := range []bool{false, true} {
				dst := New(m, n)
				if acc {
					MatMulAccInto(dst, a, b)
				} else {
					dst.FillRand(rng, 1)
					MatMulInto(dst, a, b)
				}
				for i := 0; i < m; i++ {
					zero := i == masked || (m == 15 && i >= 8 && i < 12)
					for j, v := range dst.Row(i) {
						if zero && math.Float32bits(v) != 0 {
							t.Fatalf("m=%d masked=%d acc=%v: row %d col %d is %#08x, want +0", m, masked, acc, i, j, math.Float32bits(v))
						}
					}
					if !zero && dst.At(i, 0) == 0 {
						t.Fatalf("m=%d masked=%d acc=%v: live row %d was not computed", m, masked, acc, i)
					}
				}
			}
		}
	}
}

// A matmul split across the pool allocates nothing: its operands and its
// completion count ride in a recycled job record.
func TestParallelMatMulAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a, b := New(8, 256).FillRand(rng, 1), New(256, 1024).FillRand(rng, 1)
	bt := New(1024, 256).FillRand(rng, 1)
	dst := New(8, 1024)
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	if !shouldParallel(a.Rows, a.Rows*a.Cols*b.Cols) {
		t.Fatal("shape does not reach the pool")
	}
	MatMulInto(dst, a, b) // starts the pool, makes the first job record
	for name, f := range map[string]func(){
		"MatMulInto":    func() { MatMulInto(dst, a, b) },
		"MatMulAccInto": func() { MatMulAccInto(dst, a, b) },
		"MatMulTInto":   func() { MatMulTInto(dst, a, bt) },
	} {
		if avg := testing.AllocsPerRun(50, f); avg != 0 {
			t.Errorf("parallel %s allocates %v times", name, avg)
		}
	}
}

// SiLUFast's blocked exponentials change no bit of the element-wise form,
// at every block boundary and beyond Exp32's rails on both sides.
func TestSiLUFastBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 1000} {
		m := New(1, n).FillRand(rng, 12)
		for i := 0; i < n; i += 5 {
			m.Data[i] = []float32{-200, 200, 0, float32(math.Inf(1)), float32(math.Inf(-1)), -87.5, 88.9, 1e-30}[i/5%8]
		}
		want := m.Clone()
		for i, v := range want.Data {
			want.Data[i] = v / (1 + simd.Exp32(-v))
		}
		SiLUFast(m)
		for i := range want.Data {
			if math.Float32bits(m.Data[i]) != math.Float32bits(want.Data[i]) &&
				!(math.IsNaN(float64(m.Data[i])) && math.IsNaN(float64(want.Data[i]))) {
				t.Fatalf("n=%d: element %d is %#08x, element-wise form has %#08x", n, i, math.Float32bits(m.Data[i]), math.Float32bits(want.Data[i]))
			}
		}
	}
	m := New(4, 100).FillRand(rng, 4)
	if avg := testing.AllocsPerRun(20, func() { SiLUFast(m) }); avg != 0 {
		t.Errorf("SiLUFast allocates %v times", avg)
	}
}

// tileShapes are the [m,k]·[k,n] products BenchmarkTileVsRowPass measures:
// the per-chip shapes of bench/'s workloads (the root package's
// BenchmarkMatMulShapes list) and a few around them.
var tileShapes = [][3]int{
	{8, 64, 8}, {8, 32, 64}, {8, 32, 128}, {8, 128, 32}, {32, 128, 32}, {8, 64, 64},
	{8, 256, 1024}, {64, 256, 1024}, {192, 64, 256}, {1024, 1024, 256},
}

// BenchmarkTileVsRowPass runs the retained row-pass kernel and the register
// tile on the same operands in alternating bursts, serially (SetWorkers(1)),
// and reports each side's best burst as GFLOP/s and their ratio. Best of
// many short alternating bursts, because this box's speed drifts by more
// than most of the differences; the README's old/new table is this
// benchmark's output (`go test ./internal/tensor ./internal/quant -run '^$'
// -bench TileVsRowPass -benchtime 30x`).
func BenchmarkTileVsRowPass(b *testing.B) {
	defer SetWorkers(SetWorkers(1))
	rng := rand.New(rand.NewSource(1))
	for _, sh := range tileShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, w, dst := New(m, k).FillRand(rng, 1), New(k, n).FillRand(rng, 1), New(m, n)
		flops := 2 * float64(m) * float64(k) * float64(n)
		calls := int(4e6/flops) + 1 // a burst is about 4 MFLOP
		b.Run(fmt.Sprintf("f32_%dx%dx%d", m, k, n), func(b *testing.B) {
			old, tile := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for c := 0; c < calls; c++ {
					matMulRowPass(dst, a, w, 0, m, false)
				}
				t1 := time.Now()
				for c := 0; c < calls; c++ {
					MatMulInto(dst, a, w)
				}
				old, tile = min(old, t1.Sub(t0)), min(tile, time.Since(t1))
			}
			b.ReportMetric(flops*float64(calls)/float64(old.Nanoseconds()), "rowpass-GFLOP/s")
			b.ReportMetric(flops*float64(calls)/float64(tile.Nanoseconds()), "tile-GFLOP/s")
			b.ReportMetric(float64(old)/float64(tile), "x")
		})
	}
}
