//go:build !amd64

package simd

// Non-amd64 builds have no assembly kernels: useASM stays false, dispatch
// always takes the scalar twin, and these bodies are unreachable. They
// exist so the portable dispatch code type-checks on every architecture.

func dotF32Asm(a, b []float32) float32 { panic("simd: no asm kernels on this arch") }

func dotF32I8Asm(a []float32, b []int8) float32 { panic("simd: no asm kernels on this arch") }

func axpyF32Asm(dst []float32, s float32, x []float32) {
	panic("simd: no asm kernels on this arch")
}

func axpyF32I8Asm(dst []float32, s float32, v []int8) {
	panic("simd: no asm kernels on this arch")
}

func mulAdd4F32Asm(dst []float32, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	panic("simd: no asm kernels on this arch")
}

func mulAdd4F32I8Asm(dst []float32, q0, q1, q2, q3 []int8, a0, a1, a2, a3 float32) {
	panic("simd: no asm kernels on this arch")
}

func scoreRowsAsm(out *float32, ld int, maxes *float32, g int, q *float32, dh int,
	kf *float32, k8 *int8, kscales, widen *float32, strideBytes, rows int, scale float32) {
	panic("simd: no asm kernels on this arch")
}

func weighRowsAsm(dst *float32, g, dh int, w *float32, ld int, invSum, vf *float32, v8 *int8, vscales *float32, strideBytes, rows int) {
	panic("simd: no asm kernels on this arch")
}

func exp32RowsAsm(xs []float32) int { panic("simd: no asm kernels on this arch") }

func gemmTileAsm(dst []float32, ldd int, a []float32, lda int, b GemmB, rows, kGroups, strips int, acc bool) {
	panic("simd: no asm kernels on this arch")
}

func maxAbsClampedAsm(src []float32, bound float32) float32 {
	panic("simd: no asm kernels on this arch")
}

func quantizeScaledAsm(dst []int8, src []float32, bound, inv float32) {
	panic("simd: no asm kernels on this arch")
}
