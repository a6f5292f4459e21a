package quant

import (
	"math"

	"esti/internal/simd"
)

// Row-wise int8 quantization for activation-like tensors — the KV cache's
// storage format (the paper's §3.3 int8 path applied to the cache rather
// than the weights). Where Int8Mat carries one scale per *column* (right
// for weights, whose statistics are per output channel), a K/V row is one
// token's projection: its dynamic range is per token, so the cache stores
// one scale per row and the attention walk applies it once per scored
// position. The stored layout — values plus scales — is kvcache.Rows;
// these are the per-row kernels its copy routine calls (quantize at append,
// dequantize for cold-path reads).

// rowClampBound bounds the magnitude a row element may carry into
// quantization. Half the largest float32 rather than the largest: with a
// full-range bound the round trip itself overflows — scale = MaxFloat32/127
// rounds such that 127·scale is +Inf — so the bound is chosen to keep
// every dequantized value finite with a 2× rounding margin.
const rowClampBound = math.MaxFloat32 / 2

// QuantizeRowInto quantizes src into dst (len(dst) == len(src)) with a
// single symmetric per-row scale, returned. Adversarial inputs are
// clamped rather than propagated — NaN to 0, and anything beyond
// ±MaxFloat32/2 (±Inf included) to that bound — so the stored scale is
// always finite-positive and every dequantized read-back is finite; a
// poisoned projection row can never turn the cache into a NaN factory.
// This is the documented behavior the fuzz suite pins down. An all-zero
// row quantizes to zeros under scale 1, like Quantize's all-zero column.
// Both passes over the row — its largest clamped magnitude, then the
// scaled and rounded values — are simd kernels, bit-identical on the AVX2
// and scalar paths.
func QuantizeRowInto(dst []int8, src []float32) (scale float32) {
	if len(src) == 0 {
		return 1
	}
	dst = dst[:len(src)]
	scale = simd.MaxAbsClamped(src, rowClampBound) / 127
	if scale == 0 {
		clear(dst)
		return 1
	}
	inv := 1 / scale
	if math.IsInf(float64(inv), 0) {
		// A subnormal scale (largest magnitude below about 3.7e-37) has no
		// float32 reciprocal: multiplying by +Inf would send every element
		// to ±127 and a zero to NaN. Divide instead.
		for i, v := range src {
			dst[i] = int8(clamp(math.RoundToEven(float64(simd.ClampFinite(v, rowClampBound)/scale)), -127, 127))
		}
		return scale
	}
	simd.QuantizeScaled(dst, src, rowClampBound, inv)
	return scale
}

// DequantizeRowInto reconstructs a quantized row into dst.
func DequantizeRowInto(dst []float32, src []int8, scale float32) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i, v := range src {
		dst[i] = float32(v) * scale
	}
}

// AxpyF32I8 accumulates s·v into dst over v's raw int8 values; the caller
// folds the row scale into s.
func AxpyF32I8(dst []float32, s float32, v []int8) {
	simd.AxpyF32I8(dst, s, v)
}
