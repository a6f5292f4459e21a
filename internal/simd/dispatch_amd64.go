package simd

import "os"

// hwAVX2 records what the hardware supports, independent of whether
// dispatch selected it — the equivalence tests exercise the assembly
// directly even under ESTI_NOSIMD=1.
var hwAVX2 bool

func init() {
	hwAVX2 = detectAVX2()
	if hwAVX2 && os.Getenv("ESTI_NOSIMD") != "1" {
		useASM = true
		kindName = "avx2"
	}
}

// detectAVX2 reports AVX2 with OS-enabled YMM state: CPUID.1:ECX must show
// OSXSAVE+AVX, XCR0 must have the XMM and YMM state bits, and CPUID.7.0:EBX
// bit 5 is AVX2 itself.
func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0
}

// The Asm wrappers adapt the slice-level contract the dispatch layer uses
// to the pointer+count assembly ABI. Reducing kernels require len a
// multiple of 16, elementwise kernels a multiple of 8; the exported
// functions guarantee both and never pass empty slices.

func dotF32Asm(a, b []float32) float32 { return dotF32AVX2(&a[0], &b[0], len(a)) }

func dotF32I8Asm(a []float32, b []int8) float32 { return dotF32I8AVX2(&a[0], &b[0], len(a)) }

func axpyF32Asm(dst []float32, s float32, x []float32) {
	axpyF32AVX2(&dst[0], s, &x[0], len(dst))
}

func axpyF32I8Asm(dst []float32, s float32, v []int8) {
	axpyF32I8AVX2(&dst[0], s, &v[0], len(dst))
}

func mulAdd4F32Asm(dst []float32, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	mulAdd4F32AVX2(&dst[0], &b0[0], &b1[0], &b2[0], &b3[0], a0, a1, a2, a3, len(dst))
}

func mulAdd4F32I8Asm(dst []float32, q0, q1, q2, q3 []int8, a0, a1, a2, a3 float32) {
	mulAdd4F32I8AVX2(&dst[0], &q0[0], &q1[0], &q2[0], &q3[0], a0, a1, a2, a3, len(dst))
}

func scoreRowsAsm(out *float32, ld int, maxes *float32, g int, q *float32, dh int,
	kf *float32, k8 *int8, kscales, widen *float32, strideBytes, rows int, scale float32) {
	scoreRowsAVX2(out, ld, maxes, g, q, dh, kf, k8, kscales, widen, strideBytes, rows, scale)
}

func weighRowsAsm(dst *float32, g, dh int, w *float32, ld int, invSum, vf *float32, v8 *int8, vscales *float32, strideBytes, rows int) {
	weighRowsAVX2(dst, g, dh, w, ld, invSum, vf, v8, vscales, strideBytes, rows)
}

func exp32RowsAsm(xs []float32) int { return exp32RowsAVX2(&xs[0], len(xs)) }

// gemmTileAsm hands one checked tile to the assembly, strides in bytes of
// the operand they walk.
func gemmTileAsm(dst []float32, ldd int, a []float32, lda int, b GemmB, rows, kGroups, strips int, acc bool) {
	if b.F32 != nil {
		gemmTileAVX2(&dst[0], 4*ldd, &a[0], 4*lda, &b.F32[0], nil, 4*b.RowStride, 4*b.StripStride, rows, kGroups, strips, acc)
		return
	}
	gemmTileAVX2(&dst[0], 4*ldd, &a[0], 4*lda, nil, &b.I8[0], b.RowStride, b.StripStride, rows, kGroups, strips, acc)
}

func maxAbsClampedAsm(src []float32, bound float32) float32 {
	return maxAbsClampedAVX2(&src[0], len(src), bound)
}

func quantizeScaledAsm(dst []int8, src []float32, bound, inv float32) {
	quantizeScaledAVX2(&dst[0], &src[0], len(src), bound, inv)
}
