package simd

// The GEMM tile: dst (+)= a·b with the running sums held in registers.
//
// Per output element the arithmetic is the row-pass kernels' own — per
// group of four contraction steps t = ((a0·b0 + a1·b1) + a2·b2) + a3·b3,
// acc = acc + t (MulAdd4F32's association), then the last k%4 steps one
// acc += a·b at a time (AxpyF32's) — so a product is bit-identical to the
// one a loop over MulAdd4F32 and AxpyF32 produces. What differs is where
// acc lives: a tile of up to eight output rows by eight columns keeps its
// eight accumulators in YMM registers for the whole contraction, the four
// weight rows of a k-group are loaded (int8: widened) once per tile
// instead of once per output row, and there is one assembly call per row
// tile instead of one per row and k-group.
//
// No k-group is skipped for being zero, on either dispatch path. Against a
// loop that does skip them this changes no bit while the weights are
// finite: a zero group contributes t = ±0, and an accumulator that started
// cleared or as an earlier product is never -0 (x + -x rounds to +0), so
// adding it is the identity.

// gemmStrip is the tile's width in columns, the unit GemmB addresses
// weights in.
const gemmStrip = 8

// GemmB is Gemm's right operand: k rows of n weights, float32 (F32) or raw
// int8 (I8, F32 nil), addressed in strips of eight columns — element
// (kk, j) is at index (j/8)·StripStride + kk·RowStride + j%8. Row-major
// storage is {RowStride: cols, StripStride: 8}; a block of its rows or a
// range of its columns is the same strides over a sub-slice, and a panel
// packed strip by strip is {RowStride: 8, StripStride: 8·k}.
type GemmB struct {
	F32                    []float32
	I8                     []int8
	RowStride, StripStride int
}

// Gemm computes dst = a·b, or dst += a·b when acc, for m rows of k
// activations at a[i·lda:] and m rows of n outputs at dst[i·ldd:]. Rows are
// taken in tiles of 8, 4, 2 and 1 from those that remain. A tile whose
// activations are all zero is not multiplied — its outputs are cleared, or
// left as they are when acc — so a batch of masked slots costs a scan; a
// zero row inside a live tile rides along and comes out +0 all the same.
func Gemm(dst []float32, ldd int, a []float32, lda int, b GemmB, m, k, n int, acc bool) {
	gemm(dst, ldd, a, lda, b, m, k, n, acc, useASM)
}

// ScalarGemm is Gemm's pure-Go twin: the same tiles and the same skip, every
// element through ScalarMulAdd4F32/ScalarMulAdd4F32I8 and the scalar axpys.
func ScalarGemm(dst []float32, ldd int, a []float32, lda int, b GemmB, m, k, n int, acc bool) {
	gemm(dst, ldd, a, lda, b, m, k, n, acc, false)
}

func gemm(dst []float32, ldd int, a []float32, lda int, b GemmB, m, k, n int, acc, asm bool) {
	checkGemm(len(dst), ldd, len(a), lda, b, m, k, n)
	if n == 0 {
		return
	}
	for i := 0; i < m; {
		h := 8
		for h > m-i {
			h >>= 1
		}
		if b.F32 != nil {
			gemmTile(dst[i*ldd:], ldd, a[i*lda:], lda, b.F32, b, h, k, n, acc, asm, ScalarMulAdd4F32, ScalarAxpyF32)
		} else {
			gemmTile(dst[i*ldd:], ldd, a[i*lda:], lda, b.I8, b, h, k, n, acc, asm, ScalarMulAdd4F32I8, ScalarAxpyF32I8)
		}
		i += h
	}
}

// gemmTile is one tile of h ∈ {1, 2, 4, 8} rows. With asm the assembly
// covers the n&^7 columns and k&^3 steps it can and mulAdd4 and axpy — the
// scalar row kernels of w's element type — finish the other columns and
// then the other steps; without it they are the whole tile, row by row.
func gemmTile[T float32 | int8](dst []float32, ldd int, a []float32, lda int, w []T, b GemmB, h, k, n int, acc, asm bool,
	mulAdd4 func(dst []float32, b0, b1, b2, b3 []T, a0, a1, a2, a3 float32),
	axpy func(dst []float32, s float32, x []T)) {
	if tileIsZero(a, lda, h, k) {
		if !acc {
			for r := 0; r < h; r++ {
				clear(dst[r*ldd : r*ldd+n])
			}
		}
		return
	}
	k4 := k &^ 3
	n8 := 0 // columns the assembly has finished over the first k4 steps
	if asm && k4 > 0 && n >= gemmStrip {
		n8 = n &^ (gemmStrip - 1)
		gemmTileAsm(dst, ldd, a, lda, b, h, k4/4, n8/gemmStrip, acc)
		if n8 == n && k4 == k {
			return
		}
	}
	// Columns are walked in runs that are contiguous in w: a strip, or
	// everything that is left of a row when strips abut.
	run := gemmStrip
	if b.StripStride == gemmStrip {
		run = n
	}
	for r := 0; r < h; r++ {
		arow := a[r*lda : r*lda+k]
		orow := dst[r*ldd : r*ldd+n]
		if !acc {
			clear(orow[n8:])
		}
		for j := n8; j < n; j += run {
			o := orow[j:min(j+run, n)]
			at := j / gemmStrip * b.StripStride
			for kk := 0; kk < k4; kk += 4 {
				mulAdd4(o, w[at+kk*b.RowStride:], w[at+(kk+1)*b.RowStride:], w[at+(kk+2)*b.RowStride:], w[at+(kk+3)*b.RowStride:],
					arow[kk], arow[kk+1], arow[kk+2], arow[kk+3])
			}
		}
		for j := 0; j < n && k4 < k; j += run {
			o := orow[j:min(j+run, n)]
			at := j / gemmStrip * b.StripStride
			for kk := k4; kk < k; kk++ {
				axpy(o, arow[kk], w[at+kk*b.RowStride:])
			}
		}
	}
}

// tileIsZero reports whether all h rows of k activations are zero.
func tileIsZero(a []float32, lda, h, k int) bool {
	for r := 0; r < h; r++ {
		for _, v := range a[r*lda : r*lda+k] {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// checkGemm validates a Gemm call's geometry against its slices. The
// assembly indexes raw pointers, so nothing may reach it unchecked.
func checkGemm(nDst, ldd, nA, lda int, b GemmB, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || ldd < n || lda < k {
		panic("simd: gemm shape or leading dimension out of range")
	}
	if b.F32 != nil && b.I8 != nil {
		panic("simd: gemm weights are both float32 and int8")
	}
	if m > 0 && (nDst < (m-1)*ldd+n || nA < (m-1)*lda+k) {
		panic("simd: gemm output or activation slice too short for its geometry")
	}
	if k*n == 0 {
		return
	}
	last := (n - 1) / gemmStrip // the last strip, n-last*gemmStrip columns wide
	if b.RowStride < 0 || (last > 0 && b.StripStride < gemmStrip) ||
		len(b.F32)+len(b.I8) < last*b.StripStride+(k-1)*b.RowStride+n-last*gemmStrip {
		panic("simd: gemm weight slice too short for its strides")
	}
}
