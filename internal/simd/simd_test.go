package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Dispatch-level tests that hold on every architecture: the exported API
// must agree bit for bit with the exported scalar twins on every input —
// trivially when dispatch is scalar, and through the assembly + Go-tail
// composition when it is not. The amd64-only equiv test drives the raw
// assembly against the twins directly, independent of dispatch.

func randFloats(rng *rand.Rand, n int, poison bool) []float32 {
	out := make([]float32, n)
	for i := range out {
		switch {
		case rng.Intn(7) == 0:
			out[i] = 0
		case poison && rng.Intn(29) == 0:
			out[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		case poison && rng.Intn(31) == 0:
			out[i] = float32(math.NaN())
		default:
			out[i] = (rng.Float32()*2 - 1) * 8
		}
	}
	return out
}

func randInt8s(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127)
	}
	return out
}

// eqBits fails unless got and want are the same float32 bit pattern, with
// NaN payloads compared loosely: any NaN equals any NaN. Payload-exact NaN
// propagation is not part of the contract (the quantize path never lets a
// NaN reach the kernels' int8 side, and score/weigh inputs are finite by
// the softmax contract); value-exactness everywhere else is.
func eqBits(t *testing.T, label string, got, want float32) {
	t.Helper()
	if math.Float32bits(got) == math.Float32bits(want) {
		return
	}
	if math.IsNaN(float64(got)) && math.IsNaN(float64(want)) {
		return
	}
	t.Fatalf("%s: got %g (%#08x), want %g (%#08x)",
		label, got, math.Float32bits(got), want, math.Float32bits(want))
}

// lengths covers every block boundary: empty, sub-tail, exactly one vector
// block, one block plus tail, several blocks, and odd sizes.
var lengths = []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 127, 128, 200, 256}

func TestDotMatchesScalarTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range lengths {
		for trial := 0; trial < 8; trial++ {
			a := randFloats(rng, n, true)
			bf := randFloats(rng, n, true)
			bi := randInt8s(rng, n)
			eqBits(t, "DotF32", DotF32(a, bf), ScalarDotF32(a, bf))
			eqBits(t, "DotF32I8", DotF32I8(a, bi), ScalarDotF32I8(a, bi))
		}
	}
}

func TestAxpyMatchesScalarTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range lengths {
		for trial := 0; trial < 8; trial++ {
			base := randFloats(rng, n, false)
			v := randInt8s(rng, n)
			s := rng.Float32()*4 - 2

			got, want := append([]float32(nil), base...), append([]float32(nil), base...)
			AxpyF32I8(got, s, v)
			ScalarAxpyF32I8(want, s, v)
			for i := range got {
				eqBits(t, "AxpyF32I8", got[i], want[i])
			}
		}
	}
}

func TestMulAdd4MatchesScalarTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range lengths {
		for trial := 0; trial < 8; trial++ {
			base := randFloats(rng, n, false)
			b := [4][]float32{}
			q := [4][]int8{}
			for r := range b {
				b[r] = randFloats(rng, n, true)
				q[r] = randInt8s(rng, n)
			}
			a0, a1 := rng.Float32()*2-1, rng.Float32()*2-1
			a2, a3 := rng.Float32()*2-1, rng.Float32()*2-1

			got, want := append([]float32(nil), base...), append([]float32(nil), base...)
			MulAdd4F32(got, b[0], b[1], b[2], b[3], a0, a1, a2, a3)
			ScalarMulAdd4F32(want, b[0], b[1], b[2], b[3], a0, a1, a2, a3)
			for i := range got {
				eqBits(t, "MulAdd4F32", got[i], want[i])
			}

			got, want = append([]float32(nil), base...), append([]float32(nil), base...)
			MulAdd4F32I8(got, q[0], q[1], q[2], q[3], a0, a1, a2, a3)
			ScalarMulAdd4F32I8(want, q[0], q[1], q[2], q[3], a0, a1, a2, a3)
			for i := range got {
				eqBits(t, "MulAdd4F32I8", got[i], want[i])
			}
		}
	}
}

// The dot kernels trim to the shorter operand.
func TestDotTrimsToShorter(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6, 7}
	if got := DotF32(a, b); got != 1*4+2*5+3*6 {
		t.Fatalf("DotF32 long b = %g", got)
	}
	if got := DotF32(b, a); got != 1*4+2*5+3*6 {
		t.Fatalf("DotF32 long a = %g", got)
	}
	if got := DotF32I8([]float32{2, 3}, []int8{5, -7, 100}); got != 2*5+3*-7 {
		t.Fatalf("DotF32I8 = %g", got)
	}
	AxpyF32I8(nil, 2, nil) // zero-length must be a no-op, not a panic
	MulAdd4F32(nil, nil, nil, nil, nil, 1, 2, 3, 4)
	MulAdd4F32I8(nil, nil, nil, nil, nil, 1, 2, 3, 4)
	Exp32Rows(nil)
}

func TestKindConsistent(t *testing.T) {
	if useASM && Kind() != "avx2" {
		t.Fatalf("assembly dispatched but Kind = %q", Kind())
	}
	if !useASM && Kind() != "scalar" {
		t.Fatalf("disabled but Kind = %q", Kind())
	}
}

// segmentCase is one geometry of the segment kernels: g heads of dh
// elements over rows rows at the given stride.
type segmentCase struct{ g, dh, rows, stride int }

// segmentCases crosses head counts — one head, groups of heads that are
// not whole vectors, and one to three whole 8-head vectors — head dims on
// both sides of the 8- and 16-element blockings (24 and 48 mix a 16-lane
// block with an 8-element tail), and row counts on both sides of the
// four-row grouping, with strides that are and are not the tight ones.
func segmentCases() []segmentCase {
	var cs []segmentCase
	for _, g := range []int{1, 2, 3, 8, 9, 16, 24} {
		for _, dh := range []int{1, 5, 8, 15, 16, 17, 24, 32, 40, 48, 64, 72} {
			for _, rows := range []int{0, 1, 3, 4, 5, 8, 13} {
				cs = append(cs,
					segmentCase{g, dh, rows, dh},
					segmentCase{g, dh, rows, 2*dh + 3})
			}
		}
	}
	return cs
}

// checkSegmentKernels runs all four segment kernels through the exported
// (dispatching) entry points against their scalar twins on one geometry:
// the score kernels both with the queries in lanes (when g is a multiple
// of 8) and one head at a time. The scratch runs past the segment's
// [rows][g] block, so a write beyond it shows as a mismatch.
func checkSegmentKernels(t *testing.T, rng *rand.Rand, c segmentCase) {
	t.Helper()
	q := randFloats(rng, c.g*c.dh, true)
	qts := [][]float32{nil}
	if qt := HeadsInLanes(make([]float32, len(q)), q, c.g); qt != nil {
		qts = append(qts, qt)
	}
	n := c.dh
	if c.rows > 0 {
		n = (c.rows-1)*c.stride + c.dh
	}
	kf, k8 := randFloats(rng, n, true), randInt8s(rng, n)
	scales := randFloats(rng, c.rows, false)
	scale := rng.Float32() + 0.1
	scratch := c.rows*c.g + c.g + 3

	for _, qt := range qts {
		for _, int8K := range []bool{false, true} {
			got, want := randFloats(rng, scratch, false), make([]float32, scratch)
			copy(want, got)
			gotMax, wantMax := make([]float32, c.g), make([]float32, c.g)
			for h := range gotMax {
				gotMax[h] = float32(math.Inf(-1))
				wantMax[h] = gotMax[h]
			}
			label := fmt.Sprintf("ScoreRowsF32 %+v lanes=%v", c, qt != nil)
			if int8K {
				label = fmt.Sprintf("ScoreRowsF32I8 %+v lanes=%v", c, qt != nil)
				ScoreRowsF32I8(got, gotMax, q, qt, k8, scales, c.stride, c.rows, scale, make([]float32, c.dh))
				ScalarScoreRowsF32I8(want, wantMax, q, k8, scales, c.stride, c.rows, scale)
			} else {
				ScoreRowsF32(got, gotMax, q, qt, kf, c.stride, c.rows, scale)
				ScalarScoreRowsF32(want, wantMax, q, kf, c.stride, c.rows, scale)
			}
			for i := range got {
				eqBits(t, label, got[i], want[i])
			}
			for h := range gotMax {
				eqBits(t, label+" max", gotMax[h], wantMax[h])
			}
		}
	}

	w, invSum := randFloats(rng, scratch, true), randFloats(rng, c.g, false)
	for _, int8V := range []bool{false, true} {
		got, want := randFloats(rng, c.g*c.dh, false), make([]float32, c.g*c.dh)
		copy(want, got)
		gotW, wantW := append([]float32(nil), w...), append([]float32(nil), w...)
		label := fmt.Sprintf("WeighRowsF32 %+v", c)
		if int8V {
			label = fmt.Sprintf("WeighRowsF32I8 %+v", c)
			WeighRowsF32I8(got, gotW, invSum, k8, scales, c.stride, c.rows)
			ScalarWeighRowsF32I8(want, wantW, invSum, k8, scales, c.stride, c.rows)
		} else {
			WeighRowsF32(got, gotW, invSum, kf, c.stride, c.rows)
			ScalarWeighRowsF32(want, wantW, invSum, kf, c.stride, c.rows)
		}
		for i := range got {
			eqBits(t, label, got[i], want[i])
		}
		for i := range gotW {
			eqBits(t, label+" weights", gotW[i], wantW[i])
		}
	}
}

func TestSegmentKernelsMatchScalarTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, c := range segmentCases() {
		checkSegmentKernels(t, rng, c)
	}
}

// The scalar twins are, element for element, the row-at-a-time kernels:
// a score is scale·Dot, a weight is w·invSum·scale, an accumulator takes
// MulAdd4 groups then Axpy rows.
func TestSegmentTwinsAreRowKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const g, dh, rows, stride = 3, 40, 7, 43
	q := randFloats(rng, g*dh, false)
	k8 := randInt8s(rng, (rows-1)*stride+dh)
	scales := randFloats(rng, rows, false)
	row := func(j int) []int8 { return k8[j*stride : j*stride+dh] }

	out, maxes := make([]float32, rows*g), []float32{-1e30, -1e30, -1e30}
	ScalarScoreRowsF32I8(out, maxes, q, k8, scales, stride, rows, 0.25)
	for h := 0; h < g; h++ {
		for j := 0; j < rows; j++ {
			eqBits(t, "score", out[j*g+h], 0.25*scales[j]*ScalarDotF32I8(q[h*dh:(h+1)*dh], row(j)))
		}
	}

	w, invSum := randFloats(rng, rows*g, false), []float32{0.5, 0.25, 3}
	got, want := make([]float32, g*dh), make([]float32, g*dh)
	fin := make([]float32, rows*g)
	for h := 0; h < g; h++ {
		for j := 0; j < rows; j++ {
			fin[j*g+h] = w[j*g+h] * invSum[h] * scales[j]
		}
	}
	ScalarWeighRowsF32I8(got, w, invSum, k8, scales, stride, rows)
	for h := 0; h < g; h++ {
		d, wh := want[h*dh:(h+1)*dh], func(j int) float32 { return fin[j*g+h] }
		ScalarMulAdd4F32I8(d, row(0), row(1), row(2), row(3), wh(0), wh(1), wh(2), wh(3))
		for j := 4; j < rows; j++ {
			ScalarAxpyF32I8(d, wh(j), row(j))
		}
	}
	for i := range got {
		eqBits(t, "weigh", got[i], want[i])
	}
}

// HeadsInLanes puts head 8b+l's element i at [(b*dh+i)*8+l] and declines a
// head count the lane path does not take.
func TestHeadsInLanes(t *testing.T) {
	const g, dh = 16, 3
	q := make([]float32, g*dh)
	for i := range q {
		q[i] = float32(i)
	}
	qt := HeadsInLanes(make([]float32, len(q)+4), q, g)
	if len(qt) != len(q) {
		t.Fatalf("len = %d, want %d", len(qt), len(q))
	}
	for h := 0; h < g; h++ {
		for i := 0; i < dh; i++ {
			if got := qt[((h/8)*dh+i)*8+h%8]; got != q[h*dh+i] {
				t.Fatalf("head %d element %d = %g, want %g", h, i, got, q[h*dh+i])
			}
		}
	}
	for _, g := range []int{1, 3, 9, 12} {
		if qt := HeadsInLanes(make([]float32, g*dh), make([]float32, g*dh), g); qt != nil {
			t.Errorf("g = %d: lanes %v, want nil", g, qt)
		}
	}
}

// Geometry the raw-pointer assembly must never see is rejected up front.
func TestSegmentKernelsRejectBadGeometry(t *testing.T) {
	f := func(n int) []float32 { return make([]float32, n) }
	for name, call := range map[string]func(){
		"short K":       func() { ScoreRowsF32(f(8), f(2), f(16), nil, f(8*3+7), 8, 4, 1) },
		"short scratch": func() { ScoreRowsF32(f(7), f(2), f(16), nil, f(32), 8, 4, 1) },
		"ragged q":      func() { ScoreRowsF32(f(8), f(2), f(15), nil, f(32), 8, 4, 1) },
		"negative rows": func() { ScoreRowsF32(f(8), f(2), f(16), nil, f(32), 8, -1, 1) },
		"lanes not q":   func() { ScoreRowsF32(f(32), f(8), f(64), f(56), f(32), 8, 4, 1) },
		"lanes for 2":   func() { ScoreRowsF32(f(8), f(2), f(16), f(16), f(32), 8, 4, 1) },
		"short scales":  func() { ScoreRowsF32I8(f(8), f(2), f(16), nil, make([]int8, 32), f(3), 8, 4, 1, f(8)) },
		"short V":       func() { WeighRowsF32I8(f(16), f(8), f(2), make([]int8, 31), f(4), 8, 4) },
		"short V scale": func() { WeighRowsF32I8(f(16), f(8), f(2), make([]int8, 32), f(3), 8, 4) },
		"short weights": func() { WeighRowsF32(f(16), f(7), f(2), f(32), 8, 4) },
		"stride < dh":   func() { WeighRowsF32(f(16), f(8), f(2), f(32), 7, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
