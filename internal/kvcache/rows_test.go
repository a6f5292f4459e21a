package kvcache

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"esti/internal/quant"
)

// randRows fills n rows of cols values in the given format: float32 values
// of mixed magnitude, or arbitrary int8 bytes under arbitrary positive
// scales (not only what the quantizer would have produced).
func randRows(rng *rand.Rand, n, cols int, int8Mode bool) Rows {
	r := newRows(n, cols, int8Mode)
	for i := range r.F32 {
		r.F32[i] = (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(5)-2)))
	}
	for i := range r.I8 {
		r.I8[i] = int8(rng.Intn(256) - 128)
	}
	for i := range r.Scales {
		r.Scales[i] = rng.Float32() + 1e-3
	}
	return r
}

// copyRows against a per-row oracle for all four format pairs over
// generated shapes: same-format copies preserve every value and scale,
// float32 → int8 is quant.QuantizeRowInto row by row, int8 → float32 is
// value · scale, and a float32 → int8 → float32 round trip stays within one
// quantization step of the source.
func TestCopyRowsAllFormatPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	rowCounts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33}
	colCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64}
	for _, n := range rowCounts {
		for _, cols := range colCounts {
			for _, srcInt8 := range []bool{false, true} {
				for _, dstInt8 := range []bool{false, true} {
					src := randRows(rng, n, cols, srcInt8)
					// Poison the destination and give it slack on both sides:
					// the copy must overwrite all of dst and nothing else.
					big := randRows(rng, n+2, cols, dstInt8)
					before := flat(Rows{}, big)
					dst := big.Slice(1, n+1)
					copyRows(dst, src)

					for _, edge := range []int{0, n + 1} {
						if got, want := rowAt(big, Rows{}, edge), rowAt(before, Rows{}, edge); !equalF32(got, want) {
							t.Fatalf("%dx%d %v→%v: copy touched row %d outside dst", n, cols, srcInt8, dstInt8, edge)
						}
					}
					for r := 0; r < n; r++ {
						s, d := src.Slice(r, r+1), dst.Slice(r, r+1)
						switch {
						case srcInt8 == dstInt8:
							if !sameStored(d, s) {
								t.Fatalf("%dx%d %v→%v row %d: same-format copy is not verbatim", n, cols, srcInt8, dstInt8, r)
							}
						case dstInt8:
							want := make([]int8, cols)
							scale := quant.QuantizeRowInto(want, s.F32)
							if d.Scales[0] != scale || !slices.Equal(d.I8, want) {
								t.Fatalf("%dx%d f32→i8 row %d: got %v × %g, oracle %v × %g", n, cols, r, d.I8, d.Scales[0], want, scale)
							}
							back := newRows(1, cols, false)
							copyRows(back, d)
							for j, v := range s.F32 {
								if diff := math.Abs(float64(back.F32[j] - v)); diff > float64(scale) {
									t.Fatalf("%dx%d row %d col %d: round trip %g → %g is more than one step %g away",
										n, cols, r, j, v, back.F32[j], scale)
								}
							}
						default:
							for j, v := range s.I8 {
								if want := float32(v) * s.Scales[0]; d.F32[j] != want {
									t.Fatalf("%dx%d i8→f32 row %d col %d: got %g, want %g", n, cols, r, j, d.F32[j], want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// A shape mismatch between the two sides is a bug in the caller.
func TestCopyRowsShapeMismatchPanics(t *testing.T) {
	for _, c := range []struct{ dn, dc, sn, sc int }{{2, 4, 3, 4}, {2, 4, 2, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("copy of %dx%d into %dx%d did not panic", c.sn, c.sc, c.dn, c.dc)
				}
			}()
			copyRows(newRows(c.dn, c.dc, true), newRows(c.sn, c.sc, false))
		}()
	}
}

// flat joins a slot's two segments into one freshly allocated run, by
// append rather than by the copy routine under test.
func flat(pre, priv Rows) Rows {
	return Rows{N: pre.N + priv.N, Cols: priv.Cols,
		F32:    append(append([]float32(nil), pre.F32...), priv.F32...),
		I8:     append(append([]int8(nil), pre.I8...), priv.I8...),
		Scales: append(append([]float32(nil), pre.Scales...), priv.Scales...)}
}

// sameStored reports whether two runs hold the same rows bit for bit.
func sameStored(a, b Rows) bool {
	return a.N == b.N && a.Cols == b.Cols && equalF32(a.F32, b.F32) &&
		slices.Equal(a.I8, b.I8) && equalF32(a.Scales, b.Scales)
}

func equalF32(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
