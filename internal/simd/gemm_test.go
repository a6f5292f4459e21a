package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gemmRowPass is Gemm's oracle: every output row on its own, its k-groups
// through ScalarMulAdd4 and its last k%4 steps through ScalarAxpy, the
// running sums in the output row, the weights gathered into plain rows
// first so no stride arithmetic is shared with the kernel.
func gemmRowPass(dst []float32, ldd int, a []float32, lda int, b GemmB, m, k, n int, acc bool) {
	rowF := make([][]float32, k)
	row8 := make([][]int8, k)
	for kk := range rowF {
		rowF[kk], row8[kk] = make([]float32, n), make([]int8, n)
		for j := 0; j < n; j++ {
			at := j/GemmStrip*b.StripStride + kk*b.RowStride + j%GemmStrip
			if b.F32 != nil {
				rowF[kk][j] = b.F32[at]
			} else {
				row8[kk][j] = b.I8[at]
			}
		}
	}
	for i := 0; i < m; i++ {
		arow, orow := a[i*lda:i*lda+k], dst[i*ldd:i*ldd+n]
		if !acc {
			clear(orow)
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			if b.F32 != nil {
				ScalarMulAdd4(orow, rowF[kk], rowF[kk+1], rowF[kk+2], rowF[kk+3], arow[kk], arow[kk+1], arow[kk+2], arow[kk+3])
			} else {
				ScalarMulAdd4(orow, row8[kk], row8[kk+1], row8[kk+2], row8[kk+3], arow[kk], arow[kk+1], arow[kk+2], arow[kk+3])
			}
		}
		for ; kk < k; kk++ {
			if b.F32 != nil {
				ScalarAxpy(orow, arow[kk], rowF[kk])
			} else {
				ScalarAxpy(orow, arow[kk], row8[kk])
			}
		}
	}
}

// gemmLayouts stores the k×n weights wf (or w8 when wf is nil) the three
// ways the engine and the kernel's contract know: row-major, a column range
// of a wider row-major matrix (row stride ≠ width — a row block of one is
// the same strides again), and packed strip by strip with a gap between
// strips (strip stride ≠ 8).
func gemmLayouts(wf []float32, w8 []int8, k, n int) map[string]GemmB {
	const pad = 5
	wide, strips := n+2*pad, (n+GemmStrip-1)/GemmStrip
	out := map[string]GemmB{
		"rowmajor": {RowStride: n, StripStride: GemmStrip},
		"colrange": {RowStride: wide, StripStride: GemmStrip},
		"packed":   {RowStride: GemmStrip, StripStride: GemmStrip*k + pad},
	}
	size := map[string]int{"rowmajor": k * n, "colrange": k*wide + pad, "packed": strips*(GemmStrip*k+pad) + pad}
	for name, b := range out {
		off := 0
		if name != "rowmajor" {
			off = pad
		}
		at := func(kk, j int) int { return off + j/GemmStrip*b.StripStride + kk*b.RowStride + j%GemmStrip }
		if wf != nil {
			buf := make([]float32, size[name])
			for kk := 0; kk < k; kk++ {
				for j := 0; j < n; j++ {
					buf[at(kk, j)] = wf[kk*n+j]
				}
			}
			b.F32 = buf[off:]
		} else {
			buf := make([]int8, size[name])
			for kk := 0; kk < k; kk++ {
				for j := 0; j < n; j++ {
					buf[at(kk, j)] = w8[kk*n+j]
				}
			}
			b.I8 = buf[off:]
		}
		out[name] = b
	}
	return out
}

// gemmActivations draws m rows of k arbitrary floats at stride lda, with
// some rows and some k-groups all zero — the masked slots and the zero
// groups the row-pass kernels used to skip.
func gemmActivations(rng *rand.Rand, m, k, lda int) []float32 {
	a := randFloats(rng, m*lda, true)
	for i := 0; i < m; i++ {
		row := a[i*lda : i*lda+k]
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

var (
	gemmMs = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 17}
	gemmKs = []int{0, 1, 3, 4, 5, 8, 31, 32, 66}
	gemmNs = []int{1, 7, 8, 9, 16, 17, 40}
)

// checkGemmShapes holds Gemm and ScalarGemm to the row-pass oracle, bit for
// bit, over every tile height, column tail and step tail, all three weight
// layouts, both weight types, both forms, with padded activation and
// output rows whose padding must come back untouched.
func checkGemmShapes(t *testing.T, rng *rand.Rand) {
	t.Helper()
	const sentinel = -12345
	for _, m := range gemmMs {
		for _, k := range gemmKs {
			for _, n := range gemmNs {
				lda, ldd := k+rng.Intn(3), n+rng.Intn(3)
				a := gemmActivations(rng, m, k, lda)
				wf, w8 := randFloats(rng, k*n, false), randInt8s(rng, k*n)
				base := randFloats(rng, m*ldd, false)
				for i := 0; i < m; i++ {
					for j := n; j < ldd; j++ {
						base[i*ldd+j] = sentinel
					}
				}
				for _, int8w := range []bool{false, true} {
					layouts := gemmLayouts(wf, nil, k, n)
					if int8w {
						layouts = gemmLayouts(nil, w8, k, n)
					}
					for name, b := range layouts {
						for _, acc := range []bool{false, true} {
							label := fmt.Sprintf("[%d,%d]·[%d,%d] %s int8=%v acc=%v", m, k, k, n, name, int8w, acc)
							want := append([]float32(nil), base...)
							gemmRowPass(want, ldd, a, lda, b, m, k, n, acc)
							for twin, f := range map[string]func([]float32, int, []float32, int, GemmB, int, int, int, bool){"Gemm": Gemm, "ScalarGemm": ScalarGemm} {
								got := append([]float32(nil), base...)
								f(got, ldd, a, lda, b, m, k, n, acc)
								for i := range got {
									eqBits(t, twin+" "+label, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestGemmMatchesRowPass(t *testing.T) {
	checkGemmShapes(t, rand.New(rand.NewSource(45)))
}

// checkGemmZeroTiles is the all-zero guarantee, one tile height at a time.
// A tile whose activations are all zero is never multiplied: against
// weights full of Inf and NaN the clearing form still writes exactly +0
// and the accumulating form leaves every bit of dst alone, -0 included. A
// zero row inside a live tile is multiplied like its neighbours and still
// comes out exactly +0 (finite weights).
func checkGemmZeroTiles(t *testing.T, rng *rand.Rand) {
	t.Helper()
	const k, n = 12, 19
	poisonW := GemmB{F32: make([]float32, k*n), RowStride: n, StripStride: GemmStrip}
	for i := range poisonW.F32 {
		poisonW.F32[i] = []float32{float32(math.Inf(1)), float32(math.NaN()), float32(math.Inf(-1))}[i%3]
	}
	finiteW := GemmB{F32: randFloats(rng, k*n, false), RowStride: n, StripStride: GemmStrip}
	negZero := math.Float32frombits(1 << 31)
	// 15 rows are one tile of each height: rows 0-7, 8-11, 12-13 and 14.
	const m = 15
	for _, h := range []int{1, 2, 4, 8} {
		lo := m + 1 - 2*h
		a := randFloats(rng, m*k, false)
		for i := 0; i < m; i++ {
			a[i*k] = 1
		}
		clear(a[lo*k : (lo+h)*k])
		tile := func(d []float32) []float32 { return d[lo*n : (lo+h)*n] }

		dst := randFloats(rng, m*n, false)
		Gemm(dst, n, a, k, poisonW, m, k, n, false)
		for i, v := range tile(dst) {
			if math.Float32bits(v) != 0 {
				t.Fatalf("h=%d: cleared zero tile has %#08x at %d, want +0", h, math.Float32bits(v), i)
			}
		}

		dst = randFloats(rng, m*n, false)
		tile(dst)[0], tile(dst)[h*n-1] = negZero, negZero
		want := append([]float32(nil), dst...)
		Gemm(dst, n, a, k, poisonW, m, k, n, true)
		for i, v := range tile(dst) {
			if math.Float32bits(v) != math.Float32bits(tile(want)[i]) {
				t.Fatalf("h=%d: accumulating zero tile changed element %d", h, i)
			}
		}

		// A zero row in the middle of a live tile of height h (h ≥ 2).
		if h == 1 {
			continue
		}
		a = randFloats(rng, h*k, false)
		for i := range a {
			a[i] += 0.5 // no zero anywhere but the masked row
		}
		clear(a[k : 2*k])
		for _, acc := range []bool{false, true} {
			dst = make([]float32, h*n)
			Gemm(dst, n, a, k, finiteW, h, k, n, acc)
			for j, v := range dst[n : 2*n] {
				if math.Float32bits(v) != 0 {
					t.Fatalf("h=%d acc=%v: masked row has %#08x at %d, want +0", h, acc, math.Float32bits(v), j)
				}
			}
			if dst[0] == 0 {
				t.Fatalf("h=%d acc=%v: the tile's live rows were not computed", h, acc)
			}
		}
	}
}

func TestGemmZeroTiles(t *testing.T) {
	checkGemmZeroTiles(t, rand.New(rand.NewSource(46)))
}

func TestGemmPanicsOnBadGeometry(t *testing.T) {
	w := GemmB{F32: make([]float32, 4*8), RowStride: 8, StripStride: GemmStrip}
	for name, f := range map[string]func(){
		"short dst":     func() { Gemm(make([]float32, 15), 8, make([]float32, 8), 4, w, 2, 4, 8, false) },
		"short a":       func() { Gemm(make([]float32, 16), 8, make([]float32, 7), 4, w, 2, 4, 8, false) },
		"ldd < n":       func() { Gemm(make([]float32, 16), 7, make([]float32, 8), 4, w, 2, 4, 8, false) },
		"short weights": func() { Gemm(make([]float32, 18), 9, make([]float32, 8), 4, w, 2, 4, 9, false) },
		"strip overlap": func() {
			Gemm(make([]float32, 32), 16, make([]float32, 8), 4, GemmB{F32: make([]float32, 64), RowStride: 16, StripStride: 4}, 2, 4, 16, false)
		},
		"two weight types": func() {
			Gemm(make([]float32, 16), 8, make([]float32, 8), 4, GemmB{F32: w.F32, I8: make([]int8, 32), RowStride: 8, StripStride: GemmStrip}, 2, 4, 8, false)
		},
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

// quantizeBits are the float32 patterns the row quantizer treats specially
// or rounds at: NaNs, ±Inf, ±MaxFloat32, the clamp bound and its
// neighbours, ±0, subnormals, ties and near-ties.
var quantizeBits = []uint32{
	0x7fc00000, 0xffc00001, 0x7f800001, 0x7f800000, 0xff800000, 0x7f7fffff, 0xff7fffff,
	0x7effffff, 0xfeffffff, 0x7f000000, 0x7efffffe, 0, 0x80000000, 1, 0x80000001, 0x007fffff,
	0x3f000000, 0xbf000000, 0x3fc00000, 0x40200000, 0x42fd0000, 0x42ff0000, 0xc2ff0000, 0x3effffff,
}

// checkQuantizeKernels holds MaxAbsClamped and QuantizeScaled to their
// twins on rows of arbitrary bit patterns, lengths 0-200, under the clamp
// bound quant uses and a small one, and reciprocals from the row's own
// scale to the extremes of float32.
func checkQuantizeKernels(t *testing.T, rng *rand.Rand) {
	t.Helper()
	const half = math.MaxFloat32 / 2
	for n := 0; n <= 200; n++ {
		src := make([]float32, n)
		for i := range src {
			switch rng.Intn(3) {
			case 0:
				src[i] = math.Float32frombits(quantizeBits[rng.Intn(len(quantizeBits))])
			case 1:
				src[i] = math.Float32frombits(rng.Uint32())
			default:
				src[i] = (rng.Float32()*2 - 1) * 130
			}
		}
		for _, bound := range []float32{half, 100} {
			maxAbs := ScalarMaxAbsClamped(src, bound)
			eqBits(t, "MaxAbsClamped", MaxAbsClamped(src, bound), maxAbs)
			for _, inv := range []float32{1 / (maxAbs / 127), 1, -0.75, 1e-30, 3e38, -3e38, math.SmallestNonzeroFloat32} {
				if math.IsInf(float64(inv), 0) || inv != inv {
					continue
				}
				got, want := make([]int8, n), make([]int8, n)
				QuantizeScaled(got, src, bound, inv)
				ScalarQuantizeScaled(want, src, bound, inv)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("QuantizeScaled(%#08x, bound %g, inv %g) = %d, twin %d (n=%d, i=%d)",
							math.Float32bits(src[i]), bound, inv, got[i], want[i], n, i)
					}
				}
			}
		}
	}
}

func TestQuantizeKernelsMatchScalarTwins(t *testing.T) {
	checkQuantizeKernels(t, rand.New(rand.NewSource(47)))
}
