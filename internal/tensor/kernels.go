package tensor

import (
	"fmt"

	"esti/internal/simd"
)

// Blocked GEMM kernels over the runtime-dispatched vector layer. The naive
// triple loops the package started with are retained below
// (matMulNaive/matMulTNaive) as the oracles the property tests compare
// against. These kernels unroll the contraction dimension four-wide and
// hand each output-row pass to internal/simd's MulAdd4F32 microkernel —
// AVX2 when the CPU has it, the bit-identical scalar twin otherwise (or
// under ESTI_NOSIMD=1) — and split large row ranges across the worker pool
// (pool.go). All reducing kernels (Dot, MatMulT) inherit simd's fixed
// 16-lane accumulation contract, so results are the same on every machine
// and on both dispatch paths.

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
	if !ShouldParallel(a.Rows, a.Rows*a.Cols*b.Cols) {
		matMulRows(dst, a, b, 0, a.Rows, false)
		return dst
	}
	// Capture value copies (sharing the same backing arrays) so the
	// closure does not make the caller's *Mat headers escape — the serial
	// path above must stay allocation-free even for stack-allocated views.
	dv, av, bv := *dst, *a, *b
	parallelRows(a.Rows, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		matMulRows(&dv, &av, &bv, lo, hi, false)
	})
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
	if !ShouldParallel(a.Rows, a.Rows*a.Cols*b.Cols) {
		matMulRows(dst, a, b, 0, a.Rows, true)
		return dst
	}
	dv, av, bv := *dst, *a, *b
	parallelRows(a.Rows, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		matMulRows(&dv, &av, &bv, lo, hi, true)
	})
	return dst
}

// matMulRows is the serial kernel over output rows [lo, hi): i-k-j order
// (all row-major, stride-1 inner loops), blocked 2 output rows × 4
// contraction steps, each row pass vectorized by simd.MulAdd4F32, with a
// skip for all-zero activation groups so zeroed rows — inactive decode
// slots — cost almost nothing and stay exactly zero. With acc, existing
// dst contents are accumulated into instead of cleared (the MatMulAccInto
// form); per output element the contraction order is identical either way.
func matMulRows(dst, a, b *Mat, lo, hi int, acc bool) {
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
	if !ShouldParallel(a.Rows, a.Rows*a.Cols*b.Rows) {
		matMulTRows(dst, a, b, 0, a.Rows)
		return dst
	}
	dv, av, bv := *dst, *a, *b
	parallelRows(a.Rows, a.Rows*a.Cols*b.Rows, func(lo, hi int) {
		matMulTRows(&dv, &av, &bv, lo, hi)
	})
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
// as the oracle for property-testing the blocked kernels.
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
