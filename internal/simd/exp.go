package simd

import "math"

// Exp32 is a fast float32 e^x for compute kernels: x is rescaled to base 2
// and split as 2^n·e^g with n an integer and |g| ≤ ln2/2, the fractional
// factor evaluated by a degree-6 minimax polynomial (Cephes expf) and the
// 2^n scale applied through the float32 exponent field — the log-base-2
// exponent trick of the paper's Section 3.5, taken to its scalar
// conclusion. Maximum relative error is under 3e-7 (about 2 float32 ulps)
// against math.Exp across the softmax input range; the property test
// asserts the bound.
//
// It exists for the fused attention kernel, where the softmax exp is a
// top-line cost at long context: math.Exp rounds perfectly but computes in
// float64 through a table-driven path several times slower than this.
func Exp32(x float32) float32 {
	// Thresholds where float32 e^x under/overflows.
	if x < exp32Lo {
		return 0
	}
	if x > exp32Hi {
		return float32(math.Inf(1))
	}
	// e^x = 2^n · e^g with n = round(x·log2 e). The residual g is formed
	// from x with ln2 split in two parts (Cody–Waite), so the reduction
	// loses no precision even when |x| is large and x·log2(e) has few
	// fractional bits left in float32.
	fn := float32(math.Floor(float64(x*log2e) + 0.5))
	g := x - fn*ln2Hi - fn*ln2Lo // |g| <= ln2/2 ≈ 0.3466
	eg := expPoly(g)             // Cephes expf polynomial for e^g on that interval
	// Scale by 2^n via the exponent field. After the range checks n is in
	// [-126, 128]; both extremes fall outside a single biased exponent
	// (gradual underflow below, Inf encoding above), so split the scale.
	n := int32(fn)
	if n < -126 {
		return eg * scalb2(-126) * scalb2(n+126)
	}
	if n > 127 {
		return eg * scalb2(127) * scalb2(n-127)
	}
	return eg * scalb2(n)
}

const (
	// log2e converts natural exponent to base-2 exponent: e^x = 2^(x·log2(e)).
	log2e = 1.4426950408889634
	// ln2 split into a float32-exact high part and the residual
	// (Cody–Waite), so fn·ln2 can be subtracted from x without rounding loss.
	ln2Hi = 0.693359375
	ln2Lo = -2.12194440e-4
	// Exp32's under/overflow rails, shared with the batched forms.
	exp32Lo = -87.33655
	exp32Hi = 88.72283
)

// expBlock is the vector width of the assembly Exp32Rows body.
const expBlock = 8

// Exp32Rows applies Exp32 to every element of xs in place — the batched,
// slice-at-a-time form the softmax of the fused attention walk runs over
// its score scratch. Every element gets exactly Exp32's value on either
// dispatch path: the AVX2 body evaluates eight elements per iteration with
// the same individually rounded operations in the same order and hands any
// block holding a value near the rails (or a NaN) back to the scalar
// Exp32, so the assembly never has to reproduce the split scaling.
func Exp32Rows(xs []float32) {
	if !useASM {
		ScalarExp32Rows(xs)
		return
	}
	i := 0
	for m := len(xs) &^ (expBlock - 1); i < m; {
		i += exp32RowsAsm(xs[i:m])
		if i < m {
			// The assembly stopped in front of a block it does not handle.
			for end := i + expBlock; i < end; i++ {
				xs[i] = Exp32(xs[i])
			}
		}
	}
	for ; i < len(xs); i++ {
		xs[i] = Exp32(xs[i])
	}
}

// ScalarExp32Rows is Exp32Rows' pure-Go twin. The hot loop processes four
// elements per iteration with the Cody–Waite reduction and polynomial
// fully unrolled and no per-element range branches (softmax inputs are
// max-subtracted, so the rails are cold); a block containing a railed or
// scale-split value falls back to the scalar Exp32, which keeps the forms
// exactly equal everywhere.
func ScalarExp32Rows(xs []float32) {
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		x0, x1, x2, x3 := xs[i], xs[i+1], xs[i+2], xs[i+3]
		if x0 < exp32Lo || x0 > exp32Hi || x1 < exp32Lo || x1 > exp32Hi ||
			x2 < exp32Lo || x2 > exp32Hi || x3 < exp32Lo || x3 > exp32Hi {
			xs[i] = Exp32(x0)
			xs[i+1] = Exp32(x1)
			xs[i+2] = Exp32(x2)
			xs[i+3] = Exp32(x3)
			continue
		}
		fn0 := float32(math.Floor(float64(x0*log2e) + 0.5))
		fn1 := float32(math.Floor(float64(x1*log2e) + 0.5))
		fn2 := float32(math.Floor(float64(x2*log2e) + 0.5))
		fn3 := float32(math.Floor(float64(x3*log2e) + 0.5))
		g0 := x0 - fn0*ln2Hi - fn0*ln2Lo
		g1 := x1 - fn1*ln2Hi - fn1*ln2Lo
		g2 := x2 - fn2*ln2Hi - fn2*ln2Lo
		g3 := x3 - fn3*ln2Hi - fn3*ln2Lo
		p0 := expPoly(g0)
		p1 := expPoly(g1)
		p2 := expPoly(g2)
		p3 := expPoly(g3)
		n0, n1, n2, n3 := int32(fn0), int32(fn1), int32(fn2), int32(fn3)
		if n0 < -126 || n0 > 127 || n1 < -126 || n1 > 127 ||
			n2 < -126 || n2 > 127 || n3 < -126 || n3 > 127 {
			// Gradual underflow / near-Inf scales need Exp32's split
			// scaling; only the extreme ~1-ulp band of the range hits this.
			xs[i] = Exp32(x0)
			xs[i+1] = Exp32(x1)
			xs[i+2] = Exp32(x2)
			xs[i+3] = Exp32(x3)
			continue
		}
		xs[i] = p0 * scalb2(n0)
		xs[i+1] = p1 * scalb2(n1)
		xs[i+2] = p2 * scalb2(n2)
		xs[i+3] = p3 * scalb2(n3)
	}
	for ; i < len(xs); i++ {
		xs[i] = Exp32(xs[i])
	}
}

// expPoly evaluates e^g for |g| ≤ ln2/2 — the Cephes polynomial Exp32
// uses, factored out so the batched form computes the identical value.
func expPoly(g float32) float32 {
	p := float32(1.9875691500e-4)
	p = p*g + 1.3981999507e-3
	p = p*g + 8.3334519073e-3
	p = p*g + 4.1665795894e-2
	p = p*g + 1.6666665459e-1
	p = p*g + 5.0000001201e-1
	return 1 + g + g*g*p
}

// scalb2 returns 2^n for n in [-126, 127] via the float32 exponent field.
func scalb2(n int32) float32 {
	return math.Float32frombits(uint32(n+127) << 23)
}
