package quant

import (
	"math"
	"math/rand"
	"testing"
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
