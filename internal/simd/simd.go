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
// Elementwise kernels (AxpyF32I8, MulAdd4F32, MulAdd4F32I8,
// Exp32Rows) have no cross-element accumulation, so vector width does not
// affect their results; they only require that every per-element operation
// is an individually rounded float32 multiply or add in the written order
// (no FMA contraction — the assembly uses VMULPS+VADDPS, never VFMADD).
//
// The segment kernels of the attention walk (ScoreRows, WeighRows) cover a
// whole K or V segment, float32 or int8, and all the query heads that
// share it in one call, but each element they produce is
// computed by exactly the operations above: a score is a 16-lane,
// fixed-tree, sequential-tail dot; an accumulator element takes its rows
// four at a time in MulAdd4's left-to-right association and the last
// rows%4 one at a time. The score kernels' vector path for eight heads
// holds the heads, not the elements, in the YMM lanes: each of the 16 dot
// lanes becomes one vector over heads and the tree and the tail run
// lane-wise, which is the same arithmetic per head.
//
// The GEMM tile (Gemm, gemm.go) holds an output element in a register for
// its whole contraction instead of in the output row, and computes it by
// the same operations in the same order: its k-groups of four in MulAdd4's
// association, its last k%4 steps as Axpy's. The row quantizer's kernels
// (MaxAbsClamped, QuantizeScaled, quantize.go) are elementwise apart from a
// maximum, which is the same in any order.
//
// Each operation has one scalar twin, generic over float32 or int8
// operands (ScalarDot, ScalarAxpy, ScalarMulAdd4), whose only widening is
// float32(b[i]), which is exact; the segment kernels and the GEMM tile take
// one operand (Rows, GemmB) that holds either element type.
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
	return ScalarDot(a, b)
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
	return ScalarDot(a, b)
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
	ScalarAxpy(dst, s, v)
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
	ScalarMulAdd4(dst, b0, b1, b2, b3, a0, a1, a2, a3)
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
	ScalarMulAdd4(dst, q0, q1, q2, q3, a0, a1, a2, a3)
}

// ScalarDot is DotF32's and DotF32I8's pure-Go twin: the same 16 lanes,
// the same reduction tree, the same sequential tail, over float32 or raw
// int8 b (float32(b[i]) is exact). Exported so benchmarks and
// out-of-package equivalence tests can pin the two paths against each
// other; production code calls DotF32 or DotF32I8 and lets dispatch choose.
func ScalarDot[T float32 | int8](a []float32, b []T) float32 {
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

// ScalarAxpy accumulates s·x into dst: dst[i] += s·float32(x[i]), each
// product and sum individually rounded. It is AxpyF32I8's twin; its
// float32 form has no assembly, and the GEMM's tail k-steps and the weigh
// kernels' sub-vector columns call it.
func ScalarAxpy[T float32 | int8](dst []float32, s float32, x []T) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] += s * float32(x[i])
	}
}

// ScalarMulAdd4 is MulAdd4F32's and MulAdd4F32I8's pure-Go twin.
func ScalarMulAdd4[T float32 | int8](dst []float32, b0, b1, b2, b3 []T, a0, a1, a2, a3 float32) {
	n := len(dst)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j := range dst {
		dst[j] += a0*float32(b0[j]) + a1*float32(b1[j]) + a2*float32(b2[j]) + a3*float32(b3[j])
	}
}

// The segment kernels below are the attention walk's inner loops, one call
// per K or V segment instead of one per row: a segment is `rows` rows of dh
// elements at a fixed stride, and the g query heads that share it are
// served from the same pass, so a row is fetched — and, when int8, widened
// to float32 — once for all of them. Scores and softmax weights live in a
// row-major scratch: head h's value for the segment's row j is at [j*g+h],
// so the g heads of a row are contiguous. The package comment has the
// arithmetic contract: a score is DotF32/DotF32I8 times its scale, an
// accumulator element takes its rows as MulAdd4F32/MulAdd4F32I8 groups and
// the last rows%4 as ScalarAxpy.
//
// When g is a multiple of 8 the score kernels can hold eight heads in the
// eight lanes of a vector: each of the dot product's 16 lanes becomes one
// vector over heads, so the fixed tree and the sequential tail run
// lane-wise and every score keeps its bits. That path reads the queries
// with their heads in lanes, as HeadsInLanes lays them out.

// laneHeads is the number of query heads the lane-parallel score path holds
// in one vector.
const laneHeads = 8

// HeadsInLanes lays the g query vectors of q (head-major, dh = len(q)/g
// elements each) out with their heads in lanes — [g/8][dh][8], head
// 8b+l's element i at dst[(b*dh+i)*8+l] — and returns dst[:len(q)]. It
// returns nil when g is not a multiple of 8: the score kernels then take
// one head at a time.
func HeadsInLanes(dst, q []float32, g int) []float32 {
	if g <= 0 || g%laneHeads != 0 || len(q)%g != 0 {
		return nil
	}
	dh := len(q) / g
	dst = dst[:len(q)]
	for b := 0; b < g; b += laneHeads {
		blk := dst[b*dh : (b+laneHeads)*dh]
		for l := 0; l < laneHeads; l++ {
			for i, x := range q[(b+l)*dh : (b+l+1)*dh] {
				blk[i*laneHeads+l] = x
			}
		}
	}
	return dst
}

// Rows is a segment kernel's K or V operand: rows of dh elements at a fixed
// Stride, float32 (F32) or raw int8 (I8, F32 nil) with one dequantization
// scale per row (Scales[j] for row j, value ≈ int8 · scale). Row j is
// F32[j·Stride:] or I8[j·Stride:], so the dh columns of one head in a
// wider row are the same stride over a sub-slice (From). As with GemmB, the
// format is data: one kernel serves either.
type Rows struct {
	F32    []float32
	I8     []int8
	Scales []float32
	Stride int
}

// From is r starting off elements into every row: at off = kv·dh the
// columns of KV head kv, with the same stride and scales.
func (r Rows) From(off int) Rows {
	if r.I8 != nil {
		r.I8 = r.I8[off:]
	} else {
		r.F32 = r.F32[off:]
	}
	return r
}

// asm is r as the assembly takes it: the first float32 or int8 element,
// the first scale (nil for float32) and the stride in bytes.
func (r Rows) asm() (f *float32, q *int8, scales *float32, strideBytes int) {
	if r.I8 != nil {
		return nil, &r.I8[0], &r.Scales[0], r.Stride
	}
	return &r.F32[0], nil, nil, 4 * r.Stride
}

// ScoreRows writes out[j*g+h] = scale·s_j·Dot(q_h, k_j) for the
// g = len(maxes) query vectors q_h = q[h*dh:(h+1)*dh], dh = len(q)/g, and
// the first rows rows k_j of k, s_j being k's scale of row j when it is
// int8 (1 when float32), and raises maxes[h] to any larger score of head h.
// qt is nil or HeadsInLanes(·, q, g): given it, the assembly scores eight
// heads to a vector. widen is scratch for one int8 row, at least dh long;
// float32 rows do not use it.
func ScoreRows(out, maxes, q, qt []float32, k Rows, rows int, scale float32, widen []float32) {
	dh := checkScore(len(out), len(maxes), len(q), len(qt), k, rows)
	if rows == 0 {
		return
	}
	if !useASM {
		ScalarScoreRows(out, maxes, q, k, rows, scale)
		return
	}
	kf, k8, kscales, strideBytes := k.asm()
	var w *float32
	if k8 != nil {
		w = &widen[:dh][0]
	}
	scoreRowsAsm(out, maxes, q, qt, dh, kf, k8, kscales, w, strideBytes, rows, scale)
}

// WeighRows turns w[j*g+h] into head h's softmax weight of row j in place —
// w·invSum[h], times v's scale of row j when it is int8 — and accumulates
// the first rows rows of v so weighted into the g = len(invSum)
// accumulators dst[h*dh:(h+1)*dh], dh = len(dst)/g.
func WeighRows(dst, w, invSum []float32, v Rows, rows int) {
	g := len(invSum)
	dh := checkSegment(len(w), g, len(dst), v, rows)
	if rows == 0 {
		return
	}
	if !useASM {
		ScalarWeighRows(dst, w, invSum, v, rows)
		return
	}
	vf, v8, vscales, strideBytes := v.asm()
	weighRowsAsm(&dst[0], g, dh, &w[0], &invSum[0], vf, v8, vscales, strideBytes, rows)
	v.accumulate(dst, g, dh, w, rows, dh&^(axpyBlock-1), dh)
}

// checkSegment validates the shared geometry of a segment kernel call —
// a [rows][g] scratch of nScratch elements, g vectors of dh = nVec/g
// elements, rows rows of r — and returns dh. The assembly indexes raw
// pointers, so nothing may reach it unchecked.
func checkSegment(nScratch, g, nVec int, r Rows, rows int) int {
	if g <= 0 || nVec == 0 || nVec%g != 0 {
		panic("simd: segment kernel needs g > 0 vectors of equal non-zero length")
	}
	dh := nVec / g
	if rows < 0 || r.Stride < dh {
		panic("simd: segment kernel rows or stride out of range")
	}
	if r.F32 != nil && r.I8 != nil {
		panic("simd: segment rows are both float32 and int8")
	}
	if rows > 0 && (nScratch < rows*g || len(r.F32)+len(r.I8) < (rows-1)*r.Stride+dh) {
		panic("simd: segment kernel slice too short for its geometry")
	}
	if r.I8 != nil && len(r.Scales) < rows {
		panic("simd: int8 segment rows have fewer scales than rows")
	}
	return dh
}

// checkScore is checkSegment for a score kernel, whose lane-ordered
// queries, when given, are the nVec queries of a multiple of 8 heads.
func checkScore(nScratch, g, nVec, nLanes int, r Rows, rows int) int {
	dh := checkSegment(nScratch, g, nVec, r, rows)
	if nLanes != 0 && (nLanes != nVec || g%laneHeads != 0) {
		panic("simd: score kernel's lane-ordered queries do not match its heads")
	}
	return dh
}

// ScalarScoreRows is ScoreRows's pure-Go twin.
func ScalarScoreRows(out, maxes, q []float32, k Rows, rows int, scale float32) {
	if k.I8 != nil {
		scalarScoreRows(out, maxes, q, k.I8, k.Scales, k.Stride, rows, scale)
	} else {
		scalarScoreRows(out, maxes, q, k.F32, nil, k.Stride, rows, scale)
	}
}

// scalarScoreRows scores rows rows of k, each times scale·scales[j] when
// scales is given and times scale alone when it is nil.
func scalarScoreRows[T float32 | int8](out, maxes, q []float32, k []T, scales []float32, stride, rows int, scale float32) {
	g := len(maxes)
	dh := len(q) / g
	for j := 0; j < rows; j++ {
		kr := k[j*stride : j*stride+dh]
		rs := scale
		if scales != nil {
			rs *= scales[j]
		}
		for h := range maxes {
			s := rs * ScalarDot(q[h*dh:(h+1)*dh], kr)
			out[j*g+h] = s
			if s > maxes[h] {
				maxes[h] = s
			}
		}
	}
}

// ScalarWeighRows is WeighRows's pure-Go twin.
func ScalarWeighRows(dst, w, invSum []float32, v Rows, rows int) {
	g, dh := len(invSum), len(dst)/len(invSum)
	for j := 0; j < rows; j++ {
		wj := w[j*g : (j+1)*g]
		for h, is := range invSum {
			wj[h] *= is
			if v.I8 != nil {
				wj[h] *= v.Scales[j]
			}
		}
	}
	v.accumulate(dst, g, dh, w, rows, 0, dh)
}

// accumulate adds columns [lo, hi) of the first rows rows of v into every
// accumulator with finished weights: the whole width when dispatch is
// scalar, the sub-vector tail the assembly leaves otherwise.
func (v Rows) accumulate(dst []float32, g, dh int, w []float32, rows, lo, hi int) {
	if v.I8 != nil {
		scalarWeighRows(dst, g, dh, w, v.I8, v.Stride, rows, lo, hi)
	} else {
		scalarWeighRows(dst, g, dh, w, v.F32, v.Stride, rows, lo, hi)
	}
}

func scalarWeighRows[T float32 | int8](dst []float32, g, dh int, w []float32, v []T, stride, rows, lo, hi int) {
	if lo == hi {
		return
	}
	row := func(j int) []T { return v[j*stride+lo : j*stride+hi] }
	j := 0
	for ; j+4 <= rows; j += 4 {
		v0, v1, v2, v3 := row(j), row(j+1), row(j+2), row(j+3)
		for h := 0; h < g; h++ {
			ScalarMulAdd4(dst[h*dh+lo:h*dh+hi], v0, v1, v2, v3, w[j*g+h], w[(j+1)*g+h], w[(j+2)*g+h], w[(j+3)*g+h])
		}
	}
	for ; j < rows; j++ {
		for h := 0; h < g; h++ {
			ScalarAxpy(dst[h*dh+lo:h*dh+hi], w[j*g+h], row(j))
		}
	}
}
