package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"esti/internal/simd"
)

// matMulRowPass is the GEMM this package ran before the register tile,
// kept as the tile's oracle: i-k-j order, two output rows by four
// contraction steps per pass, each row pass one simd.MulAdd4F32 call that
// loads and stores the output row, all-zero activation groups skipped, the
// last k%4 steps through simd.ScalarAxpyF32 (each product and sum rounded
// alone, as any vector width rounds them), then a single-row ladder for an
// odd last row. The tile must reproduce it bit for bit.
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
			simd.ScalarAxpyF32(orow0, a0, brow)
			simd.ScalarAxpyF32(orow1, a1, brow)
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
			simd.ScalarAxpyF32(orow, av, bd[kk*n:kk*n+n])
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

// packStrips is b strip-packed: each strip of eight columns stored down all
// its rows, the last strip zero-padded.
func packStrips(b *Mat) simd.GemmB {
	k, n := b.Rows, b.Cols
	strips := (n + simd.GemmStrip - 1) / simd.GemmStrip
	out := make([]float32, strips*simd.GemmStrip*k)
	for j := 0; j < n; j++ {
		for kk := 0; kk < k; kk++ {
			out[j/simd.GemmStrip*simd.GemmStrip*k+kk*simd.GemmStrip+j%simd.GemmStrip] = b.At(kk, j)
		}
	}
	return simd.GemmB{F32: out, RowStride: simd.GemmStrip, StripStride: simd.GemmStrip * k}
}

// MatMulInto and GemmInto's accumulating form equal the retained row-pass
// kernel on every bit, serially and cut across the pool in two parts — by
// rows, and for a product at most one tile high by strips, over row-major
// and packed weights — on whichever dispatch path the run selected (CI
// runs this under ESTI_NOSIMD=1 as well). GOMAXPROCS is pinned to 2, so
// the products past the pool's threshold that GemmInto splits itself split
// in two on any runner.
// The accumulating form starts from an earlier product, as every caller in
// the engine does: such a dst holds no -0, which is what makes multiplying
// through a zero group the identity the oracle's skip is.
func TestMatMulBitIdenticalToRowPass(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
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
						GemmInto(got, a, rowMajor(b), true)
					} else {
						MatMulInto(got, a, b)
					}
					sameBits(t, label, got, want)

					// The split paths whatever the size: what GemmInto
					// does past the flops threshold, by rows, and for a
					// product one tile high by strips, over the row-major
					// operand and over the same weights strip-packed.
					got = base.Clone()
					split(rowOp{dst: *got, a: *a, b: rowMajor(b), acc: acc}, m, min(2, m))
					sameBits(t, label+" split", got, want)
					if m <= tileRows {
						strips := (n + simd.GemmStrip - 1) / simd.GemmStrip
						for name, op := range map[string]simd.GemmB{"row-major": rowMajor(b), "packed": packStrips(b)} {
							got = base.Clone()
							split(rowOp{dst: *got, a: *a, b: op, acc: acc, strips: true}, strips, min(2, strips))
							sameBits(t, label+" strip split "+name, got, want)
						}
					}
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
					GemmInto(dst, a, rowMajor(b), true)
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

// A matmul split across the pool allocates nothing and leaves no goroutine
// behind: its operands and its completion count ride in a recycled job
// record. Products one tile high (m ∈ {1, 2, 4, 8}, n%8 ≠ 0) split by
// strips, over row-major and packed weights, and come out equal to the
// serial product; a taller one splits by rows. Each is the split GemmInto
// or MatMulTInto makes at GOMAXPROCS 2, run in two parts by count, so that
// AllocsPerRun, which measures at GOMAXPROCS 1, still splits.
func TestParallelMatMulAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const k, n = 256, 1020
	b, bt := New(k, n).FillRand(rng, 1), New(n, k).FillRand(rng, 1)
	packed := packStrips(b)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cases := map[string]func(){}
	for _, m := range []int{1, 2, 4, 8, 16} {
		a, dst, dstT := New(m, k).FillRand(rng, 1), New(m, n), New(m, n)
		units, strips := m, m <= tileRows
		if strips {
			units = (n + simd.GemmStrip - 1) / simd.GemmStrip
		}
		if p := Parts(units, m*k*n, parallelMinFlops); p != 2 {
			t.Fatalf("m=%d: GemmInto cuts the product into %d parts at GOMAXPROCS 2, want 2", m, p)
		}
		serial := New(m, n)
		gemmRows(serial, a, rowMajor(b), 0, m, false)
		for name, op := range map[string]simd.GemmB{"row-major": rowMajor(b), "packed": packed} {
			op := op                    // each case its own operand (go 1.21 loop variables)
			GemmInto(dst, a, op, false) // starts the pool, makes the first job record
			sameBits(t, fmt.Sprintf("m=%d %s", m, name), dst, serial)
			cases[fmt.Sprintf("m=%d %s", m, name)] = func() { split(rowOp{dst: *dst, a: *a, b: op, strips: strips}, units, 2) }
		}
		cases[fmt.Sprintf("m=%d acc", m)] = func() { split(rowOp{dst: *dst, a: *a, b: rowMajor(b), acc: true, strips: strips}, units, 2) }
		if rows := m; rows > 1 {
			cases[fmt.Sprintf("m=%d MatMulTInto", m)] = func() { split(rowOp{dst: *dstT, a: *a, bt: *bt}, rows, 2) }
		}
	}
	before := runtime.NumGoroutine()
	for name, f := range cases {
		if avg := testing.AllocsPerRun(50, f); avg != 0 {
			t.Errorf("parallel %s allocates %v times", name, avg)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("split matmuls leaked goroutines: %d before, %d after", before, after)
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
// tile on the same operands in alternating bursts, serially (GOMAXPROCS 1),
// and reports each side's best burst as GFLOP/s and their ratio. Best of
// many short alternating bursts, because this box's speed drifts by more
// than most of the differences; the README's old/new table is this
// benchmark's output (`go test ./internal/tensor ./internal/quant -run '^$'
// -bench TileVsRowPass -benchtime 30x`).
func BenchmarkTileVsRowPass(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
