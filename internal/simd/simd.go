// Package simd is the vectorized kernel layer under the tensor, quant and
// reference hot loops: runtime-dispatched AVX2 assembly for the float32 and
// int8×float32 inner loops, with a pure-Go scalar twin that is bit-identical
// on every input.
//
// # The fixed-reduction-tree accumulation contract
//
// The whole repo's token-exactness and replay suites assume deterministic
// float accumulation, so these kernels do not get to reassociate sums
// differently per machine. Every reducing kernel (DotF32, DotF32I8) commits
// to one fixed lane structure:
//
//   - 16 partial sums ("lanes"): element i of a 16-element block feeds lane
//     i — lane l accumulates a[16k+l]·b[16k+l] over blocks k, in order.
//     On AVX2 the lanes are two 8-wide YMM accumulators; in the scalar twin
//     they are sixteen float32 variables updated in the same order.
//   - One fixed reduction tree: u[j] = lane[j]+lane[j+8] (j=0..7), then
//     v[j] = u[j]+u[j+4] (j=0..3), then w0 = v0+v2, w1 = v1+v3, then
//     r = w0+w1 — exactly the VADDPS / VEXTRACTF128 / VSHUFPS / VMOVSHDUP
//     horizontal reduce the assembly performs.
//   - The tail (len mod 16) folds into r one element at a time: r += a[i]·b[i].
//
// Elementwise kernels (AxpyF32, AxpyF32I8, MulAdd4F32, MulAdd4F32I8,
// Exp32Rows) have no cross-element accumulation, so vector width does not
// affect their results; they only require that every per-element operation
// is an individually rounded float32 multiply or add in the written order
// (no FMA contraction — the assembly uses VMULPS+VADDPS, never VFMADD).
//
// The segment kernels of the attention walk (ScoreRowsF32, ScoreRowsF32I8,
// WeighRowsF32, WeighRowsF32I8) cover a whole K or V segment and all the
// query heads that share it in one call, but each element they produce is
// computed by exactly the operations above: a score is a 16-lane,
// fixed-tree, sequential-tail dot; an accumulator element takes its rows
// four at a time in MulAdd4's left-to-right association and the last
// rows%4 one at a time.
//
// The GEMM tile (Gemm, gemm.go) holds an output element in a register for
// its whole contraction instead of in the output row, and computes it by
// the same operations in the same order: its k-groups of four in MulAdd4's
// association, its last k%4 steps as Axpy's. The row quantizer's kernels
// (MaxAbsClamped, QuantizeScaled, quantize.go) are elementwise apart from a
// maximum, which is the same in any order.
//
// Because SIMD and fallback share this exact structure, results never depend
// on which machine (or which dispatch decision) ran the code. The
// equivalence tests and FuzzKernelEquivalence pin bit-equality between the
// two paths; the ESTI_NOSIMD=1 CI job runs the whole repo suite on the
// scalar twin so it can never rot.
//
// # Dispatch
//
// Support is detected once at init (CPUID: AVX2 + OS-enabled YMM state).
// Setting ESTI_NOSIMD=1 in the environment forces the scalar twin even on
// capable hardware — the escape hatch benchmarks and CI use to measure and
// verify the fallback.
package simd

// useASM is true when init selected the assembly kernels: supported
// hardware and ESTI_NOSIMD unset. Written only from the amd64 init.
var useASM bool

// kindName describes the selected dispatch for logs and tests.
var kindName = "scalar"

// Enabled reports whether the vectorized kernels are active.
func Enabled() bool { return useASM }

// Kind returns the active kernel set: "avx2" or "scalar".
func Kind() string { return kindName }

// dotBlock is the lane-block width of the reducing kernels: 16 partial
// sums, reduced by the fixed tree in dotReduceTree.
const dotBlock = 16

// axpyBlock is the vector width of the elementwise kernels' assembly body;
// the Go wrappers run the sub-block tail themselves.
const axpyBlock = 8

// DotF32 returns the sum over min(len(a), len(b)) of a[i]·b[i], accumulated
// with the package's fixed 16-lane structure (see the package comment).
func DotF32(a, b []float32) float32 {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	b = b[:len(a)]
	if useASM {
		m := len(a) &^ (dotBlock - 1)
		var r float32
		if m > 0 {
			r = dotF32Asm(a[:m], b[:m])
		}
		for i := m; i < len(a); i++ {
			r += a[i] * b[i]
		}
		return r
	}
	return ScalarDotF32(a, b)
}

// DotF32I8 is DotF32 over raw int8 b values: sum of a[i]·float32(b[i]).
// int8→float32 conversion is exact, so the lane contract carries over
// unchanged.
func DotF32I8(a []float32, b []int8) float32 {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	b = b[:len(a)]
	if useASM {
		m := len(a) &^ (dotBlock - 1)
		var r float32
		if m > 0 {
			r = dotF32I8Asm(a[:m], b[:m])
		}
		for i := m; i < len(a); i++ {
			r += a[i] * float32(b[i])
		}
		return r
	}
	return ScalarDotF32I8(a, b)
}

// AxpyF32 accumulates s·x into dst over min(len(dst), len(x)) elements:
// dst[i] += s·x[i], each product and sum individually rounded.
func AxpyF32(dst []float32, s float32, x []float32) {
	if len(x) < len(dst) {
		dst = dst[:len(x)]
	}
	x = x[:len(dst)]
	if useASM {
		m := len(dst) &^ (axpyBlock - 1)
		if m > 0 {
			axpyF32Asm(dst[:m], s, x[:m])
		}
		for i := m; i < len(dst); i++ {
			dst[i] += s * x[i]
		}
		return
	}
	ScalarAxpyF32(dst, s, x)
}

// AxpyF32I8 accumulates s·float32(v[i]) into dst over min(len(dst), len(v)).
func AxpyF32I8(dst []float32, s float32, v []int8) {
	if len(v) < len(dst) {
		dst = dst[:len(v)]
	}
	v = v[:len(dst)]
	if useASM {
		m := len(dst) &^ (axpyBlock - 1)
		if m > 0 {
			axpyF32I8Asm(dst[:m], s, v[:m])
		}
		for i := m; i < len(dst); i++ {
			dst[i] += s * float32(v[i])
		}
		return
	}
	ScalarAxpyF32I8(dst, s, v)
}

// MulAdd4F32 is the four-row microkernel, the operation the GEMM tile and
// the attention walk's weigh kernels apply to each of their elements:
//
//	dst[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]
//
// for every j in range dst, with the adds associated left to right exactly
// as written. b0..b3 must each be at least len(dst) long.
func MulAdd4F32(dst []float32, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(dst)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	if useASM {
		m := n &^ (axpyBlock - 1)
		if m > 0 {
			mulAdd4F32Asm(dst[:m], b0, b1, b2, b3, a0, a1, a2, a3)
		}
		for j := m; j < n; j++ {
			dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
		return
	}
	ScalarMulAdd4F32(dst, b0, b1, b2, b3, a0, a1, a2, a3)
}

// MulAdd4F32I8 is MulAdd4F32 over raw int8 rows q0..q3.
func MulAdd4F32I8(dst []float32, q0, q1, q2, q3 []int8, a0, a1, a2, a3 float32) {
	n := len(dst)
	q0, q1, q2, q3 = q0[:n], q1[:n], q2[:n], q3[:n]
	if useASM {
		m := n &^ (axpyBlock - 1)
		if m > 0 {
			mulAdd4F32I8Asm(dst[:m], q0, q1, q2, q3, a0, a1, a2, a3)
		}
		for j := m; j < n; j++ {
			dst[j] += a0*float32(q0[j]) + a1*float32(q1[j]) + a2*float32(q2[j]) + a3*float32(q3[j])
		}
		return
	}
	ScalarMulAdd4F32I8(dst, q0, q1, q2, q3, a0, a1, a2, a3)
}

// ScalarDotF32 is DotF32's pure-Go twin: the same 16 lanes, the same
// reduction tree, the same sequential tail. Exported so benchmarks and
// out-of-package equivalence tests can pin the two paths against each
// other; production code calls DotF32 and lets dispatch choose.
func ScalarDotF32(a, b []float32) float32 {
	b = b[:len(a)]
	var l0, l1, l2, l3, l4, l5, l6, l7 float32
	var l8, l9, l10, l11, l12, l13, l14, l15 float32
	i := 0
	for ; i+dotBlock <= len(a); i += dotBlock {
		l0 += a[i] * b[i]
		l1 += a[i+1] * b[i+1]
		l2 += a[i+2] * b[i+2]
		l3 += a[i+3] * b[i+3]
		l4 += a[i+4] * b[i+4]
		l5 += a[i+5] * b[i+5]
		l6 += a[i+6] * b[i+6]
		l7 += a[i+7] * b[i+7]
		l8 += a[i+8] * b[i+8]
		l9 += a[i+9] * b[i+9]
		l10 += a[i+10] * b[i+10]
		l11 += a[i+11] * b[i+11]
		l12 += a[i+12] * b[i+12]
		l13 += a[i+13] * b[i+13]
		l14 += a[i+14] * b[i+14]
		l15 += a[i+15] * b[i+15]
	}
	r := dotReduceTree(l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11, l12, l13, l14, l15)
	for ; i < len(a); i++ {
		r += a[i] * b[i]
	}
	return r
}

// ScalarDotF32I8 is DotF32I8's pure-Go twin.
func ScalarDotF32I8(a []float32, b []int8) float32 {
	b = b[:len(a)]
	var l0, l1, l2, l3, l4, l5, l6, l7 float32
	var l8, l9, l10, l11, l12, l13, l14, l15 float32
	i := 0
	for ; i+dotBlock <= len(a); i += dotBlock {
		l0 += a[i] * float32(b[i])
		l1 += a[i+1] * float32(b[i+1])
		l2 += a[i+2] * float32(b[i+2])
		l3 += a[i+3] * float32(b[i+3])
		l4 += a[i+4] * float32(b[i+4])
		l5 += a[i+5] * float32(b[i+5])
		l6 += a[i+6] * float32(b[i+6])
		l7 += a[i+7] * float32(b[i+7])
		l8 += a[i+8] * float32(b[i+8])
		l9 += a[i+9] * float32(b[i+9])
		l10 += a[i+10] * float32(b[i+10])
		l11 += a[i+11] * float32(b[i+11])
		l12 += a[i+12] * float32(b[i+12])
		l13 += a[i+13] * float32(b[i+13])
		l14 += a[i+14] * float32(b[i+14])
		l15 += a[i+15] * float32(b[i+15])
	}
	r := dotReduceTree(l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11, l12, l13, l14, l15)
	for ; i < len(a); i++ {
		r += a[i] * float32(b[i])
	}
	return r
}

// dotReduceTree is the one fixed reduction order both paths share. It
// mirrors the assembly's horizontal reduce instruction by instruction:
// VADDPS of the two YMM accumulators, VEXTRACTF128+VADDPS, shuffled pair
// add, final scalar add.
func dotReduceTree(l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11, l12, l13, l14, l15 float32) float32 {
	u0, u1, u2, u3 := l0+l8, l1+l9, l2+l10, l3+l11
	u4, u5, u6, u7 := l4+l12, l5+l13, l6+l14, l7+l15
	v0, v1, v2, v3 := u0+u4, u1+u5, u2+u6, u3+u7
	w0, w1 := v0+v2, v1+v3
	return w0 + w1
}

// ScalarAxpyF32 is AxpyF32's pure-Go twin.
func ScalarAxpyF32(dst []float32, s float32, x []float32) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] += s * x[i]
	}
}

// ScalarAxpyF32I8 is AxpyF32I8's pure-Go twin.
func ScalarAxpyF32I8(dst []float32, s float32, v []int8) {
	v = v[:len(dst)]
	for i := range dst {
		dst[i] += s * float32(v[i])
	}
}

// ScalarMulAdd4F32 is MulAdd4F32's pure-Go twin.
func ScalarMulAdd4F32(dst []float32, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(dst)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j := range dst {
		dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// ScalarMulAdd4F32I8 is MulAdd4F32I8's pure-Go twin.
func ScalarMulAdd4F32I8(dst []float32, q0, q1, q2, q3 []int8, a0, a1, a2, a3 float32) {
	n := len(dst)
	q0, q1, q2, q3 = q0[:n], q1[:n], q2[:n], q3[:n]
	for j := range dst {
		dst[j] += a0*float32(q0[j]) + a1*float32(q1[j]) + a2*float32(q2[j]) + a3*float32(q3[j])
	}
}

// The segment kernels below are the attention walk's inner loops, one call
// per K or V segment instead of one per row: a segment is `rows` rows of dh
// elements at a fixed stride, and the g query heads that share it are
// served from the same pass, so a row is fetched — and, when int8, widened
// to float32 — once for all of them. Scores and softmax weights live in a
// head-major scratch: head h's value for the segment's row j is at
// [h*ld+j]. The package comment has the arithmetic contract: a score is
// DotF32/DotF32I8 times its scale, an accumulator element takes its rows
// as MulAdd4F32/MulAdd4F32I8 groups and the last rows%4 as AxpyF32/AxpyF32I8.

// ScoreRowsF32 writes out[h*ld+j] = scale·DotF32(q_h, k_j) for the
// g = len(maxes) query vectors q_h = q[h*dh:(h+1)*dh], dh = len(q)/g, and
// the rows K rows k_j = k[j*stride:j*stride+dh], and raises maxes[h] to
// any larger score of head h.
func ScoreRowsF32(out []float32, ld int, maxes, q, k []float32, stride, rows int, scale float32) {
	dh := checkSegment(len(out), ld, len(maxes), len(q), len(k), stride, rows)
	if rows == 0 {
		return
	}
	if useASM {
		scoreRowsAsm(&out[0], ld, &maxes[0], len(maxes), &q[0], dh, &k[0], nil, nil, nil, 4*stride, rows, scale)
		return
	}
	ScalarScoreRowsF32(out, ld, maxes, q, k, stride, rows, scale)
}

// ScoreRowsF32I8 is ScoreRowsF32 over raw int8 K rows with one
// dequantization scale per row: out[h*ld+j] = scale·scales[j]·DotF32I8(q_h,
// k_j). widen is scratch for one row, at least dh long.
func ScoreRowsF32I8(out []float32, ld int, maxes, q []float32, k []int8, scales []float32, stride, rows int, scale float32, widen []float32) {
	dh := checkSegment(len(out), ld, len(maxes), len(q), len(k), stride, rows)
	if rows == 0 {
		return
	}
	scales = scales[:rows]
	if useASM {
		widen = widen[:dh]
		scoreRowsAsm(&out[0], ld, &maxes[0], len(maxes), &q[0], dh, nil, &k[0], &scales[0], &widen[0], stride, rows, scale)
		return
	}
	ScalarScoreRowsF32I8(out, ld, maxes, q, k, scales, stride, rows, scale)
}

// WeighRowsF32 turns w[h*ld+j] into head h's softmax weight of row j,
// w·invSum[h], in place, and accumulates the rows V rows v_j =
// v[j*stride:j*stride+dh] so weighted into the g = len(invSum)
// accumulators dst[h*dh:(h+1)*dh], dh = len(dst)/g.
func WeighRowsF32(dst, w []float32, ld int, invSum, v []float32, stride, rows int) {
	g := len(invSum)
	dh := checkSegment(len(w), ld, g, len(dst), len(v), stride, rows)
	if rows == 0 {
		return
	}
	if !useASM {
		ScalarWeighRowsF32(dst, w, ld, invSum, v, stride, rows)
		return
	}
	weighRowsAsm(&dst[0], g, dh, &w[0], ld, &invSum[0], &v[0], nil, nil, 4*stride, rows)
	scalarWeighRowsF32(dst, g, dh, w, ld, v, stride, rows, dh&^(axpyBlock-1), dh)
}

// WeighRowsF32I8 is WeighRowsF32 over raw int8 V rows with one
// dequantization scale per row, folded into the weights:
// w·invSum[h]·scales[j].
func WeighRowsF32I8(dst, w []float32, ld int, invSum []float32, v []int8, scales []float32, stride, rows int) {
	g := len(invSum)
	dh := checkSegment(len(w), ld, g, len(dst), len(v), stride, rows)
	if rows == 0 {
		return
	}
	scales = scales[:rows]
	if !useASM {
		ScalarWeighRowsF32I8(dst, w, ld, invSum, v, scales, stride, rows)
		return
	}
	weighRowsAsm(&dst[0], g, dh, &w[0], ld, &invSum[0], nil, &v[0], &scales[0], stride, rows)
	scalarWeighRowsF32I8(dst, g, dh, w, ld, v, stride, rows, dh&^(axpyBlock-1), dh)
}

// checkSegment validates the shared geometry of a segment kernel call —
// a [g][ld] scratch of nScratch elements holding rows columns, g vectors
// of dh = nVec/g elements, rows rows of dh elements at stride in nData —
// and returns dh. The assembly indexes raw pointers, so nothing may reach
// it unchecked.
func checkSegment(nScratch, ld, g, nVec, nData, stride, rows int) int {
	if g <= 0 || nVec == 0 || nVec%g != 0 {
		panic("simd: segment kernel needs g > 0 vectors of equal non-zero length")
	}
	dh := nVec / g
	if rows < 0 || ld < rows || stride < dh {
		panic("simd: segment kernel rows, ld or stride out of range")
	}
	if rows > 0 && (nScratch < (g-1)*ld+rows || nData < (rows-1)*stride+dh) {
		panic("simd: segment kernel slice too short for its geometry")
	}
	return dh
}

// ScalarScoreRowsF32 is ScoreRowsF32's pure-Go twin.
func ScalarScoreRowsF32(out []float32, ld int, maxes, q, k []float32, stride, rows int, scale float32) {
	dh := len(q) / len(maxes)
	for j := 0; j < rows; j++ {
		kr := k[j*stride : j*stride+dh]
		for h := range maxes {
			s := scale * ScalarDotF32(q[h*dh:(h+1)*dh], kr)
			out[h*ld+j] = s
			if s > maxes[h] {
				maxes[h] = s
			}
		}
	}
}

// ScalarScoreRowsF32I8 is ScoreRowsF32I8's pure-Go twin.
func ScalarScoreRowsF32I8(out []float32, ld int, maxes, q []float32, k []int8, scales []float32, stride, rows int, scale float32) {
	dh := len(q) / len(maxes)
	for j := 0; j < rows; j++ {
		kr := k[j*stride : j*stride+dh]
		rs := scale * scales[j]
		for h := range maxes {
			s := rs * ScalarDotF32I8(q[h*dh:(h+1)*dh], kr)
			out[h*ld+j] = s
			if s > maxes[h] {
				maxes[h] = s
			}
		}
	}
}

// ScalarWeighRowsF32 is WeighRowsF32's pure-Go twin.
func ScalarWeighRowsF32(dst, w []float32, ld int, invSum, v []float32, stride, rows int) {
	g, dh := len(invSum), len(dst)/len(invSum)
	for h, is := range invSum {
		wh := w[h*ld : h*ld+rows]
		for j := range wh {
			wh[j] *= is
		}
	}
	scalarWeighRowsF32(dst, g, dh, w, ld, v, stride, rows, 0, dh)
}

// ScalarWeighRowsF32I8 is WeighRowsF32I8's pure-Go twin.
func ScalarWeighRowsF32I8(dst, w []float32, ld int, invSum []float32, v []int8, scales []float32, stride, rows int) {
	g, dh := len(invSum), len(dst)/len(invSum)
	for h, is := range invSum {
		wh := w[h*ld : h*ld+rows]
		for j := range wh {
			wh[j] = wh[j] * is * scales[j]
		}
	}
	scalarWeighRowsF32I8(dst, g, dh, w, ld, v, stride, rows, 0, dh)
}

// scalarWeighRowsF32 accumulates columns [lo, hi) of every row into every
// accumulator with finished weights: the whole width when dispatch is
// scalar, the sub-vector tail the assembly leaves otherwise.
func scalarWeighRowsF32(dst []float32, g, dh int, w []float32, ld int, v []float32, stride, rows, lo, hi int) {
	if lo == hi {
		return
	}
	row := func(j int) []float32 { return v[j*stride+lo : j*stride+hi] }
	j := 0
	for ; j+4 <= rows; j += 4 {
		v0, v1, v2, v3 := row(j), row(j+1), row(j+2), row(j+3)
		for h := 0; h < g; h++ {
			wh := w[h*ld+j : h*ld+j+4]
			ScalarMulAdd4F32(dst[h*dh+lo:h*dh+hi], v0, v1, v2, v3, wh[0], wh[1], wh[2], wh[3])
		}
	}
	for ; j < rows; j++ {
		for h := 0; h < g; h++ {
			ScalarAxpyF32(dst[h*dh+lo:h*dh+hi], w[h*ld+j], row(j))
		}
	}
}

func scalarWeighRowsF32I8(dst []float32, g, dh int, w []float32, ld int, v []int8, stride, rows, lo, hi int) {
	if lo == hi {
		return
	}
	row := func(j int) []int8 { return v[j*stride+lo : j*stride+hi] }
	j := 0
	for ; j+4 <= rows; j += 4 {
		v0, v1, v2, v3 := row(j), row(j+1), row(j+2), row(j+3)
		for h := 0; h < g; h++ {
			wh := w[h*ld+j : h*ld+j+4]
			ScalarMulAdd4F32I8(dst[h*dh+lo:h*dh+hi], v0, v1, v2, v3, wh[0], wh[1], wh[2], wh[3])
		}
	}
	for ; j < rows; j++ {
		for h := 0; h < g; h++ {
			ScalarAxpyF32I8(dst[h*dh+lo:h*dh+hi], w[h*ld+j], row(j))
		}
	}
}
