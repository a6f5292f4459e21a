package tensor

import (
	"fmt"

	"esti/internal/simd"
)

// GEMM kernels over the runtime-dispatched vector layer. The naive triple
// loops the package started with are retained below
// (matMulNaive/matMulTNaive) as the oracles the property tests compare
// against. a·b is internal/simd's register tile (simd.Gemm): up to eight
// output rows by eight columns accumulated in registers over the whole
// contraction, four steps at a time — AVX2 when the CPU has it, the
// bit-identical scalar twin otherwise (or under ESTI_NOSIMD=1). a·bᵀ is a
// row of simd.DotF32 calls. Large row ranges are split across the worker
// pool (pool.go). The reducing kernels (Dot, MatMulT) inherit simd's fixed
// 16-lane accumulation contract and the tile its fixed per-element
// operation order, so results are the same on every machine and on both
// dispatch paths.

// Reshape resizes m to rows×cols, reusing its backing array when capacity
// allows — the destination-passing contract every *Into kernel applies to
// its dst. Contents after a growing reshape are unspecified; kernels fully
// overwrite their output.
func (m *Mat) Reshape(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = alignedFloats(n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// Zero sets every element to 0.
func (m *Mat) Zero() {
	clear(m.Data)
}

// MatMul computes a·b for a [m,k] and b [k,n].
func MatMul(a, b *Mat) *Mat {
	return MatMulInto(New(a.Rows, b.Cols), a, b)
}

// MatMulInto computes a·b into dst (reshaped to [a.Rows, b.Cols]) and
// returns dst. dst must not alias a or b.
func MatMulInto(dst, a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Reshape(a.Rows, b.Cols)
	GemmInto(dst, a, rowMajor(b), false)
	return dst
}

// MatMulAccInto accumulates a·b into dst (dst += a·b) and returns dst.
// Unlike MatMulInto, dst must already have shape [a.Rows, b.Cols] — its
// existing contents are the accumulator, so no reshape and no clear. This
// is the contraction-chunked form the streamed collectives drive: a
// gathered activation arrives one K-chunk at a time and each chunk's
// partial product folds into the running output while the next chunk is
// still on the wire. dst must not alias a or b.
func MatMulAccInto(dst, a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul-acc dst %dx%d for %dx%d result", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	GemmInto(dst, a, rowMajor(b), true)
	return dst
}

// rowMajor is b as a GEMM right operand.
func rowMajor(b *Mat) simd.GemmB {
	return simd.GemmB{F32: b.Data, RowStride: b.Cols, StripStride: 8}
}

// GemmInto is the driver under every projection: dst = a·b, or dst += a·b
// when acc, for a [m,k], dst [m,n] already shaped and b any k×n operand
// simd.Gemm reads — float32 or raw int8 (package quant), row-major, a view
// of row-major storage, or packed. Rows go to simd.Gemm in one range, or
// in one range per worker when the product is large enough to split; a
// range's tile heights are read off its row count, and per output element
// the operation order is the same however the rows are cut. dst must not
// alias a.
func GemmInto(dst, a *Mat, b simd.GemmB, acc bool) {
	if dst.Rows != a.Rows {
		panic(fmt.Sprintf("tensor: gemm dst has %d rows for %d of a", dst.Rows, a.Rows))
	}
	if !shouldParallel(a.Rows, a.Rows*a.Cols*dst.Cols) {
		gemmRows(dst, a, b, 0, a.Rows, acc)
		return
	}
	splitRows(rowOp{dst: *dst, a: *a, b: b, acc: acc})
}

// gemmRows is rows [lo, hi) of GemmInto.
func gemmRows(dst, a *Mat, b simd.GemmB, lo, hi int, acc bool) {
	k, n := a.Cols, dst.Cols
	simd.Gemm(dst.Data[lo*n:hi*n], n, a.Data[lo*k:hi*k], k, b, hi-lo, k, n, acc)
}

// MatMulT computes a·bᵀ for a [m,k] and b [n,k].
func MatMulT(a, b *Mat) *Mat {
	return MatMulTInto(New(a.Rows, b.Rows), a, b)
}

// MatMulTInto computes a·bᵀ into dst (reshaped to [a.Rows, b.Rows]) and
// returns dst. dst must not alias a or b.
func MatMulTInto(dst, a, b *Mat) *Mat {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Reshape(a.Rows, b.Rows)
	if !shouldParallel(a.Rows, a.Rows*a.Cols*b.Rows) {
		matMulTRows(dst, a, b, 0, a.Rows)
		return dst
	}
	splitRows(rowOp{dst: *dst, a: *a, bt: *b})
	return dst
}

// matMulTRows computes rows [lo, hi) of a·bᵀ: both operands are walked
// along their stride-1 rows, each dot product running the simd layer's
// fixed 16-lane kernel.
func matMulTRows(dst, a, b *Mat, lo, hi int) {
	k, n := a.Cols, b.Rows
	ad, bd, od := a.Data, b.Data, dst.Data
	for i := lo; i < hi; i++ {
		arow := ad[i*k : i*k+k]
		orow := od[i*n : i*n+n]
		for j := range orow {
			orow[j] = simd.DotF32(arow, bd[j*k:j*k+k])
		}
	}
}

// Dot exposes the vectorized dot-product kernel: sum of a[i]·b[i] over
// min(len(a), len(b)) — the building block fused kernels outside this
// package (attention) are written with. Accumulation follows simd's fixed
// 16-lane contract, identical on the AVX2 and scalar paths.
func Dot(a, b []float32) float32 {
	return simd.DotF32(a, b)
}

// matMulNaive is the package's original triple-loop a·b, retained verbatim
// as the oracle for property-testing the tiled kernel.
func matMulNaive(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for kk := 0; kk < a.Cols; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.Row(kk)
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// matMulTNaive is the original a·bᵀ, retained as the property-test oracle.
func matMulTNaive(a, b *Mat) *Mat {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float32
			for kk := range arow {
				s += arow[kk] * brow[kk]
			}
			out.Set(i, j, s)
		}
	}
	return out
}
