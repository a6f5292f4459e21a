package quant

import (
	"encoding/binary"
	"math"
	"testing"

	"esti/internal/simd"
)

// FuzzKernelEquivalence is the differential fuzz over the simd layer: the
// dispatched kernels (AVX2 on capable hardware) must agree bit for bit
// with the exported scalar twins (Exp32Rows: with the scalar Exp32) on
// every input the engine can produce — arbitrary float32 bit patterns on
// the activation side (NaN and Inf included) and int8 rows produced by the
// real quantize path, which is exactly where adversarial NaN/Inf inputs
// get clamped before they reach the kernels. Shapes are fuzzed too, so every vector-block boundary and
// tail length gets hit. On hardware without AVX2 the comparison is
// scalar-vs-scalar and trivially passes; the CI fuzz-smoke job runs on
// x86-64 where it bites.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), float32(0.5))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0x80, 0x7f}, uint8(16), float32(-2)) // NaN, +Inf bits
	f.Add(make([]byte, 4*40), uint8(33), float32(1e30))
	// ±rowClampBound, ±MaxFloat32, a subnormal and -0 for the quantizer.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7e, 0xff, 0xff, 0xff, 0xfe, 0xff, 0xff, 0x7f, 0x7f, 0xff, 0xff, 0x7f, 0xff, 1, 0, 0, 0, 0, 0, 0, 0x80}, uint8(40), float32(3e-37))
	// Lengths whose derived segment geometry is non-degenerate: (g, dh,
	// rows) = (16, 4, 4), (8, 11, 8), (1, 21, 4), (1, 1, 120), (1, 31, 4).
	for _, n := range []uint8{64, 88, 100, 120, 130} {
		f.Add([]byte{0x80, 0x3f, 0, 0, 0, 0, 0x80, 0xbf, 1, 2, 3, 4}, n-1, float32(0.125))
	}
	// Eight heads to a vector — (g, dh, rows) = (8, 16, 8), (8, 15, 8) and
	// (16, 8, 8) — over -0, +0, NaN, -Inf and +Inf bit patterns, so the
	// vector max meets NaN and signed-zero scores.
	for _, n := range []uint8{128, 123, 129} {
		f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0x80, 0x7f, 0, 0, 0, 0x80}, n-1, float32(-1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, nbyte uint8, s float32) {
		n := int(nbyte)%130 + 1
		// Activation-side floats from raw bit patterns: every special value
		// (NaN payloads, ±Inf, subnormals) flows into the kernels as-is.
		a := make([]float32, n)
		for i := range a {
			if 4*i+4 <= len(raw) {
				a[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			} else {
				a[i] = float32(i%7) - 3
			}
		}
		// Int8 side through the real quantize path: QuantizeRowInto clamps
		// NaN→0 and ±Inf to the finite bound, so whatever raw throws at it,
		// the kernels see a legal int8 row with a finite positive scale.
		q := make([]int8, n)
		scale := QuantizeRowInto(q, a)
		if math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) || scale <= 0 {
			t.Fatalf("quantize scale %g not finite-positive", scale)
		}

		eq := func(label string, got, want float32) {
			t.Helper()
			if math.Float32bits(got) == math.Float32bits(want) {
				return
			}
			if math.IsNaN(float64(got)) && math.IsNaN(float64(want)) {
				return // payload-exact NaN propagation is not part of the contract
			}
			t.Fatalf("%s: dispatch %#08x vs scalar twin %#08x (n=%d)",
				label, math.Float32bits(got), math.Float32bits(want), n)
		}

		eq("DotF32I8", simd.DotF32I8(a, q), simd.ScalarDotF32I8(a, q))
		eq("DotF32", simd.DotF32(a, a), simd.ScalarDotF32(a, a))

		dgot := make([]float32, n)
		dwant := make([]float32, n)
		copy(dgot, a)
		copy(dwant, a)
		simd.AxpyF32I8(dgot, s, q)
		simd.ScalarAxpyF32I8(dwant, s, q)
		for i := range dgot {
			eq("AxpyF32I8", dgot[i], dwant[i])
		}

		// Four-row microkernels: reuse shifted views of q and a as the rows,
		// trimmed so every row covers the full kernel length m.
		rot := func(k int) int { return (k * 7) % n }
		o1, o2, o3 := rot(1), rot(2), rot(3)
		maxOff := max(o1, max(o2, o3))
		q1, q2, q3 := q[o1:], q[o2:], q[o3:]
		m := n - maxOff
		if m > 0 {
			copy(dgot, a)
			copy(dwant, a)
			simd.MulAdd4F32I8(dgot[:m], q, q1, q2, q3, s, -s, s*0.5, 2)
			simd.ScalarMulAdd4F32I8(dwant[:m], q, q1, q2, q3, s, -s, s*0.5, 2)
			for i := 0; i < m; i++ {
				eq("MulAdd4F32I8", dgot[i], dwant[i])
			}

			a1, a2, a3 := a[o1:], a[o2:], a[o3:]
			copy(dgot, a)
			copy(dwant, a)
			simd.MulAdd4F32(dgot[:m], a, a1, a2, a3, s, -s, s*0.5, 2)
			simd.ScalarMulAdd4F32(dwant[:m], a, a1, a2, a3, s, -s, s*0.5, 2)
			for i := 0; i < m; i++ {
				eq("MulAdd4F32", dgot[i], dwant[i])
			}
		}

		// Segment kernels: a and q reinterpreted as g query vectors, rows
		// K/V rows of dh and a [rows][g] scratch, so head counts (one, a
		// few, and one or two whole 8-head vectors, which the assembly
		// scores eight to a vector), head dims on both sides of the 8- and
		// 16-lane blocks and row counts on both sides of the four-row
		// grouping all come from the fuzzed length.
		g := []int{1, 2, 3, 8, 16}[n%5]
		if dh := min(n*7%40+1, n/g); dh > 0 {
			rows := min(n/dh, n/g)
			qh := a[:g*dh]
			qt := simd.HeadsInLanes(make([]float32, len(qh)), qh, g)
			newMax := func() []float32 {
				m := make([]float32, g)
				for h := range m {
					m[h] = float32(math.Inf(-1))
				}
				return m
			}
			for _, int8K := range []bool{false, true} {
				got, want := make([]float32, g*rows), make([]float32, g*rows)
				gotMax, wantMax := newMax(), newMax()
				if int8K {
					simd.ScoreRowsF32I8(got, gotMax, qh, qt, q, a, dh, rows, s, make([]float32, dh))
					simd.ScalarScoreRowsF32I8(want, wantMax, qh, q, a, dh, rows, s)
				} else {
					simd.ScoreRowsF32(got, gotMax, qh, qt, a, dh, rows, s)
					simd.ScalarScoreRowsF32(want, wantMax, qh, a, dh, rows, s)
				}
				for i := range got {
					eq("ScoreRows", got[i], want[i])
				}
				for h := range gotMax {
					eq("ScoreRows max", gotMax[h], wantMax[h])
				}

				got, want = make([]float32, g*dh), make([]float32, g*dh)
				gotW, wantW := append([]float32(nil), a[:g*rows]...), append([]float32(nil), a[:g*rows]...)
				if int8K {
					simd.WeighRowsF32I8(got, gotW, a[:g], q, a, dh, rows)
					simd.ScalarWeighRowsF32I8(want, wantW, a[:g], q, a, dh, rows)
				} else {
					simd.WeighRowsF32(got, gotW, a[:g], a, dh, rows)
					simd.ScalarWeighRowsF32(want, wantW, a[:g], a, dh, rows)
				}
				for i := range got {
					eq("WeighRows", got[i], want[i])
				}
				for i := range gotW {
					eq("WeighRows weights", gotW[i], wantW[i])
				}
			}
		}

		// The GEMM tile against its twin: a as m rows of k activations, as
		// float weights and as the accumulator's start, q as int8 weights,
		// so tile heights 1-9, step counts on both sides of the four-step
		// group and column counts on both sides of the eight-wide strip
		// all come from the fuzzed length. Each weight matrix is read whole,
		// as a block of its rows and a range of its columns (row stride ≠
		// width), as a strip-packed panel (strip stride ≠ 8), and as a row
		// block and a strip range of a gapless one — the bits are
		// arbitrary, so any in-bounds geometry is a valid input.
		k := n*3%9 + 1
		cols := n / k
		if rows := min(n/k, n%10+1); rows > 0 {
			type view struct {
				off, k, n, rowStride, stripStride int
			}
			views := []view{{0, k, cols, cols, 8}}
			if k > 1 && cols > 1 {
				views = append(views, view{cols + 1, k - 1, cols - 1, cols, 8})
			}
			if strips := n / (8*k + 1); strips > 0 {
				views = append(views, view{0, k, 8*strips - n%8, 8, 8*k + 1})
			}
			// A panel packed with no gap, as the engine stores its weights:
			// a block of its rows (the contraction chunk an inner gather
			// delivers) and its strips from the second on (the operand a
			// strip-split product hands a worker).
			if strips := n / (8 * k); strips > 0 {
				width := 8*strips - n%8
				if k > 1 {
					r0 := 1 + n%(k-1)
					views = append(views, view{8 * r0, k - r0, width, 8, 8 * k})
				}
				if strips > 1 {
					views = append(views, view{8 * k, k, width - 8, 8, 8 * k})
				}
			}
			for _, v := range views {
				for _, int8w := range []bool{false, true} {
					b := simd.GemmB{F32: a[v.off:], RowStride: v.rowStride, StripStride: v.stripStride}
					if int8w {
						b = simd.GemmB{I8: q[v.off:], RowStride: v.rowStride, StripStride: v.stripStride}
					}
					for _, acc := range []bool{false, true} {
						got, want := make([]float32, rows*v.n), make([]float32, rows*v.n)
						copy(got, a)
						copy(want, a)
						simd.Gemm(got, v.n, a, k, b, rows, v.k, v.n, acc)
						simd.ScalarGemm(want, v.n, a, k, b, rows, v.k, v.n, acc)
						for i := range got {
							eq("Gemm", got[i], want[i])
						}
					}
				}
			}
		}

		// The row quantizer's two passes against their twins on the raw
		// bits — NaN, ±Inf, subnormals, ±rowClampBound — under the fuzzed
		// reciprocal when it is finite.
		eq("MaxAbsClamped", simd.MaxAbsClamped(a, rowClampBound), simd.ScalarMaxAbsClamped(a, rowClampBound))
		if inv := s; !math.IsNaN(float64(inv)) && !math.IsInf(float64(inv), 0) {
			qgot, qwant := make([]int8, n), make([]int8, n)
			simd.QuantizeScaled(qgot, a, rowClampBound, inv)
			simd.ScalarQuantizeScaled(qwant, a, rowClampBound, inv)
			for i := range qgot {
				if qgot[i] != qwant[i] {
					t.Fatalf("QuantizeScaled(%#08x · %g): dispatch %d vs scalar twin %d", math.Float32bits(a[i]), inv, qgot[i], qwant[i])
				}
			}
		}

		// Exp32Rows against Exp32, element by element, on the raw bits.
		copy(dgot, a)
		simd.Exp32Rows(dgot)
		for i := range dgot {
			eq("Exp32Rows", dgot[i], simd.Exp32(a[i]))
		}

		// Round trip: dequantize must be bit-identical however it is
		// expressed — scale·int8 is one rounded multiply on both paths.
		deq := make([]float32, n)
		DequantizeRowInto(deq, q, scale)
		for i, v := range deq {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("dequantized value %g at %d not finite", v, i)
			}
		}
	})
}
