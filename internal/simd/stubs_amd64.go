package simd

// Assembly kernel declarations (kernels_amd64.s). All kernels use only
// VMULPS/VADDPS-class arithmetic — never FMA — so every float32 operation
// rounds exactly like its Go-source twin.

// dotF32AVX2 sums a[i]*b[i] over n elements, n a positive multiple of 16,
// with the package's fixed 16-lane accumulation and reduction tree.
//
//go:noescape
func dotF32AVX2(a, b *float32, n int) float32

// dotF32I8AVX2 sums a[i]*float32(b[i]) over n elements, n a positive
// multiple of 16 (VPMOVSXBD sign-extension + VCVTDQ2PS, both exact).
//
//go:noescape
func dotF32I8AVX2(a *float32, b *int8, n int) float32

// axpyF32AVX2 computes dst[i] += s*x[i] over n elements, n a positive
// multiple of 8.
//
//go:noescape
func axpyF32AVX2(dst *float32, s float32, x *float32, n int)

// axpyF32I8AVX2 computes dst[i] += s*float32(v[i]) over n elements, n a
// positive multiple of 8.
//
//go:noescape
func axpyF32I8AVX2(dst *float32, s float32, v *int8, n int)

// mulAdd4F32AVX2 computes dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] +
// a3*b3[j] (left-associated) over n elements, n a positive multiple of 8.
//
//go:noescape
func mulAdd4F32AVX2(dst, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n int)

// mulAdd4F32I8AVX2 is mulAdd4F32AVX2 over raw int8 rows.
//
//go:noescape
func mulAdd4F32I8AVX2(dst *float32, q0, q1, q2, q3 *int8, a0, a1, a2, a3 float32, n int)

// scoreRowsAVX2 scores rows K rows — float32 at kf, or int8 at k8 (kf nil)
// with one scale per row at kscales and a dh-element scratch at widen —
// against g query vectors of dh elements at q; see segment_amd64.s.
//
//go:noescape
func scoreRowsAVX2(out *float32, ld int, maxes *float32, ng int, q *float32, dh int,
	kf *float32, k8 *int8, kscales, widen *float32, strideBytes, rows int, scale float32)

// weighRowsAVX2 finishes the softmax weights at w in place (times invSum[h],
// and times vscales[j] when it is not nil) and accumulates columns
// [0, dh&^7) of rows V rows — float32 at vf, or int8 at v8 (vf nil) — into
// ng accumulators of dh elements at dst; see segment_amd64.s.
//
//go:noescape
func weighRowsAVX2(dst *float32, ng, dh int, w *float32, ld int, invSum, vf *float32, v8 *int8, vscales *float32, strideBytes, rows int)

// exp32RowsAVX2 applies Exp32 in place to xs[0:n], n a positive multiple
// of 8, stopping before the first block of eight it does not handle; it
// returns the number of elements done.
//
//go:noescape
func exp32RowsAVX2(xs *float32, n int) int

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbv0() (eax, edx uint32)

// gemmTileAVX2 computes one row tile of dst (+)= a·b — rows ∈ {1, 2, 4, 8}
// output rows, strips > 0 strips of eight columns, kGroups > 0 groups of
// four contraction steps — with the accumulators in registers for the whole
// contraction; the weights are float32 at bf, or int8 at b8 (bf nil). See
// gemm_amd64.s.
//
//go:noescape
func gemmTileAVX2(dst *float32, lddBytes int, a *float32, ldaBytes int, bf *float32, b8 *int8,
	rowStrideBytes, stripStrideBytes, rows, kGroups, strips int, acc bool)

// maxAbsClampedAVX2 returns the largest |ClampFinite(src[i], bound)| over n
// elements, n a positive multiple of 8.
//
//go:noescape
func maxAbsClampedAVX2(src *float32, n int, bound float32) float32

// quantizeScaledAVX2 writes dst[i] = round-to-even(ClampFinite(src[i],
// bound)·inv) held to ±127 over n elements, n a positive multiple of 8.
//
//go:noescape
func quantizeScaledAVX2(dst *int8, src *float32, n int, bound, inv float32)
