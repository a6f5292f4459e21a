package simd

import "math"

// The row quantizer's two passes, under quant.QuantizeRowInto: the largest
// clamped magnitude of a row, from which the caller takes the row's scale,
// and the scaled, rounded, narrowed row. Both are elementwise apart from a
// maximum, which no evaluation order can change, so the vector bodies are
// bit-identical to the twins without a lane contract.

// ClampFinite maps NaN to 0 and magnitudes beyond bound (±Inf included) to
// ±bound.
func ClampFinite(v, bound float32) float32 {
	if v != v { // NaN
		return 0
	}
	if v > bound {
		return bound
	}
	if v < -bound {
		return -bound
	}
	return v
}

// MaxAbsClamped returns the largest |ClampFinite(v, bound)| over src, 0 for
// an empty one.
func MaxAbsClamped(src []float32, bound float32) float32 {
	m := 0
	var r float32
	if useASM {
		if m = len(src) &^ (axpyBlock - 1); m > 0 {
			r = maxAbsClampedAsm(src[:m], bound)
		}
	}
	return max(r, ScalarMaxAbsClamped(src[m:], bound))
}

// QuantizeScaled writes dst[i] = ClampFinite(src[i], bound)·inv rounded to
// the nearest integer, ties to even, and held to [-127, 127], for every i
// in range src. inv must be finite, which keeps every product a number.
func QuantizeScaled(dst []int8, src []float32, bound, inv float32) {
	dst = dst[:len(src)]
	m := 0
	if useASM {
		if m = len(src) &^ (axpyBlock - 1); m > 0 {
			quantizeScaledAsm(dst[:m], src[:m], bound, inv)
		}
	}
	ScalarQuantizeScaled(dst[m:], src[m:], bound, inv)
}

// ScalarMaxAbsClamped is MaxAbsClamped's pure-Go twin.
func ScalarMaxAbsClamped(src []float32, bound float32) float32 {
	var maxAbs float32
	for _, v := range src {
		a := ClampFinite(v, bound)
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs
}

// ScalarQuantizeScaled is QuantizeScaled's pure-Go twin.
func ScalarQuantizeScaled(dst []int8, src []float32, bound, inv float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		x := math.RoundToEven(float64(ClampFinite(v, bound) * inv))
		dst[i] = int8(max(-127, min(127, x)))
	}
}
