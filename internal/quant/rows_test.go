package quant

import (
	"math"
	"math/rand"
	"testing"

	"esti/internal/simd"
)

// Round-trip bound of the per-row quantizer: every reconstructed element
// within half a step of the (clamped) original, scale finite-positive.
func TestQuantizeRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(32)
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64()) * float32(math.Pow(10, float64(rng.Intn(9)-4)))
		}
		dst := make([]int8, n)
		scale := QuantizeRowInto(dst, src)
		if !(scale > 0) || math.IsInf(float64(scale), 0) {
			t.Fatalf("scale %g not finite-positive", scale)
		}
		var maxAbs float64
		for _, v := range src {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		half := maxAbs / 127 / 2
		back := make([]float32, n)
		DequantizeRowInto(back, dst, scale)
		for i := range src {
			if err := math.Abs(float64(back[i] - src[i])); err > half+1e-12 {
				t.Fatalf("elem %d: error %g exceeds half step %g", i, err, half)
			}
		}
	}
}

// The documented adversarial contract: NaN quantizes as 0, ±Inf and
// over-range magnitudes clamp, and the round trip stays finite.
func TestQuantizeRowClampsNonFinite(t *testing.T) {
	src := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, 1, 0,
	}
	dst := make([]int8, len(src))
	scale := QuantizeRowInto(dst, src)
	if !(scale > 0) || math.IsInf(float64(scale), 0) || math.IsNaN(float64(scale)) {
		t.Fatalf("scale %g not finite-positive", scale)
	}
	if dst[0] != 0 {
		t.Errorf("NaN quantized to %d, want 0", dst[0])
	}
	if dst[1] != 127 || dst[2] != -127 {
		t.Errorf("±Inf quantized to %d/%d, want ±127", dst[1], dst[2])
	}
	back := make([]float32, len(src))
	DequantizeRowInto(back, dst, scale)
	for i, v := range back {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Errorf("round trip of %g is %g, want finite", src[i], v)
		}
	}
}

// The shared axpy kernel against its scalar definition, across the unroll
// boundary lengths.
func TestAxpyF32I8(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
		a := make([]float32, n)
		b := make([]int8, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = int8(rng.Intn(255) - 127)
		}
		dst := make([]float32, n)
		ref := make([]float64, n)
		const s = 0.37
		for i := range dst {
			dst[i] = a[i]
			ref[i] = float64(a[i]) + s*float64(b[i])
		}
		AxpyF32I8(dst, s, b)
		for i := range dst {
			if math.Abs(float64(dst[i])-ref[i]) > 1e-4*math.Max(1, math.Abs(ref[i])) {
				t.Errorf("n=%d elem %d: axpy %g, want %g", n, i, dst[i], ref[i])
			}
		}
	}
}

// quantizeRowOnTwins is QuantizeRowInto with both passes pinned to the
// scalar twins, whatever dispatch selected.
func quantizeRowOnTwins(dst []int8, src []float32) float32 {
	scale := simd.ScalarMaxAbsClamped(src, rowClampBound) / 127
	inv := 1 / scale
	switch {
	case len(src) == 0 || scale == 0:
		clear(dst)
		return 1
	case math.IsInf(float64(inv), 0):
		for i, v := range src {
			dst[i] = int8(clamp(math.RoundToEven(float64(simd.ClampFinite(v, rowClampBound)/scale)), -127, 127))
		}
	default:
		simd.ScalarQuantizeScaled(dst, src, rowClampBound, inv)
	}
	return scale
}

// checkSubnormalRow holds one row to the round-trip bound — every
// dequantized element within one quantization step of its source — and to
// the scalar twins' answer.
func checkSubnormalRow(t *testing.T, src []float32) {
	t.Helper()
	dst, twin := make([]int8, len(src)), make([]int8, len(src))
	scale := QuantizeRowInto(dst, src)
	if twinScale := quantizeRowOnTwins(twin, src); twinScale != scale {
		t.Fatalf("%g: scale %g, scalar twins give %g", src, scale, twinScale)
	}
	var maxAbs float64
	for _, v := range src {
		maxAbs = math.Max(maxAbs, math.Abs(float64(v)))
	}
	step := maxAbs / 127
	for i, v := range src {
		if dst[i] != twin[i] {
			t.Fatalf("%g: element %d quantizes to %d, scalar twins give %d", src, i, dst[i], twin[i])
		}
		if err := math.Abs(float64(dst[i])*float64(scale) - float64(v)); err > step {
			t.Fatalf("%g under scale %g: element %d reads back %g, off by %g > one step %g",
				src, scale, i, float64(dst[i])*float64(scale), err, step)
		}
	}
}

// A row whose scale is subnormal has no float32 reciprocal (1/scale is
// +Inf below a largest magnitude of about 3.7e-37): such a row used to come
// back with every non-zero element at ±127. The first row is the issue's
// own example; the rest are drawn with largest magnitudes from 1e-40 — under
// that the float32 scale itself has too few bits for the bound — to 1e-36,
// across the point where the reciprocal overflows.
func TestQuantizeRowSubnormalScale(t *testing.T) {
	checkSubnormalRow(t, []float32{1e-38, 2e-38, 0, -5e-39})
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 500; trial++ {
		peak := math.Pow(10, -40+4*rng.Float64())
		src := make([]float32, 1+rng.Intn(40))
		for i := range src {
			src[i] = float32(peak * (rng.Float64()*2 - 1))
			if rng.Intn(6) == 0 {
				src[i] = 0
			}
		}
		src[rng.Intn(len(src))] = float32(peak)
		checkSubnormalRow(t, src)
	}
}
