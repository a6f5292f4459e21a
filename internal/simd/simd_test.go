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
			eqBits(t, "DotF32", DotF32(a, bf), ScalarDot(a, bf))
			eqBits(t, "DotF32I8", DotF32I8(a, bi), ScalarDot(a, bi))
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
			ScalarAxpy(want, s, v)
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
			ScalarMulAdd4(want, b[0], b[1], b[2], b[3], a0, a1, a2, a3)
			for i := range got {
				eqBits(t, "MulAdd4F32", got[i], want[i])
			}

			got, want = append([]float32(nil), base...), append([]float32(nil), base...)
			MulAdd4F32I8(got, q[0], q[1], q[2], q[3], a0, a1, a2, a3)
			ScalarMulAdd4(want, q[0], q[1], q[2], q[3], a0, a1, a2, a3)
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

// checkSegmentKernels runs both segment kernels through the exported
// (dispatching) entry points against their scalar twins on one geometry,
// over float32 and over int8 rows: the score kernel both with the queries
// in lanes (when g is a multiple of 8) and one head at a time. The rows
// start stride-dh columns into their storage, as a KV head past the first
// does in a multihead cache row. The scratch runs past the segment's
// [rows][g] block, so a write beyond it shows as a mismatch.
func checkSegmentKernels(t *testing.T, rng *rand.Rand, c segmentCase) {
	t.Helper()
	q := randFloats(rng, c.g*c.dh, true)
	qts := [][]float32{nil}
	if qt := HeadsInLanes(make([]float32, len(q)), q, c.g); qt != nil {
		qts = append(qts, qt)
	}
	off := c.stride - c.dh
	n := off + c.dh
	if c.rows > 0 {
		n = off + (c.rows-1)*c.stride + c.dh
	}
	scales := randFloats(rng, c.rows, false)
	operands := []Rows{
		Rows{F32: randFloats(rng, n, true), Stride: c.stride}.From(off),
		Rows{I8: randInt8s(rng, n), Scales: scales, Stride: c.stride}.From(off),
	}
	scale := rng.Float32() + 0.1
	scratch := c.rows*c.g + c.g + 3

	for _, k := range operands {
		for _, qt := range qts {
			got, want := randFloats(rng, scratch, false), make([]float32, scratch)
			copy(want, got)
			gotMax, wantMax := make([]float32, c.g), make([]float32, c.g)
			for h := range gotMax {
				gotMax[h] = float32(math.Inf(-1))
				wantMax[h] = gotMax[h]
			}
			label := fmt.Sprintf("ScoreRows int8=%v %+v lanes=%v", k.I8 != nil, c, qt != nil)
			ScoreRows(got, gotMax, q, qt, k, c.rows, scale, make([]float32, c.dh))
			ScalarScoreRows(want, wantMax, q, k, c.rows, scale)
			for i := range got {
				eqBits(t, label, got[i], want[i])
			}
			for h := range gotMax {
				eqBits(t, label+" max", gotMax[h], wantMax[h])
			}
		}
	}

	w, invSum := randFloats(rng, scratch, true), randFloats(rng, c.g, false)
	for _, v := range operands {
		got, want := randFloats(rng, c.g*c.dh, false), make([]float32, c.g*c.dh)
		copy(want, got)
		gotW, wantW := append([]float32(nil), w...), append([]float32(nil), w...)
		label := fmt.Sprintf("WeighRows int8=%v %+v", v.I8 != nil, c)
		WeighRows(got, gotW, invSum, v, c.rows)
		ScalarWeighRows(want, wantW, invSum, v, c.rows)
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

	k := Rows{I8: k8, Scales: scales, Stride: stride}
	out, maxes := make([]float32, rows*g), []float32{-1e30, -1e30, -1e30}
	ScalarScoreRows(out, maxes, q, k, rows, 0.25)
	for h := 0; h < g; h++ {
		for j := 0; j < rows; j++ {
			eqBits(t, "score", out[j*g+h], 0.25*scales[j]*ScalarDot(q[h*dh:(h+1)*dh], row(j)))
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
	ScalarWeighRows(got, w, invSum, k, rows)
	for h := 0; h < g; h++ {
		d, wh := want[h*dh:(h+1)*dh], func(j int) float32 { return fin[j*g+h] }
		ScalarMulAdd4(d, row(0), row(1), row(2), row(3), wh(0), wh(1), wh(2), wh(3))
		for j := 4; j < rows; j++ {
			ScalarAxpy(d, wh(j), row(j))
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
	rf := func(n, stride int) Rows { return Rows{F32: f(n), Stride: stride} }
	r8 := func(n, scales, stride int) Rows { return Rows{I8: make([]int8, n), Scales: f(scales), Stride: stride} }
	both := Rows{F32: f(32), I8: make([]int8, 32), Scales: f(4), Stride: 8}
	for name, call := range map[string]func(){
		"short K":          func() { ScoreRows(f(8), f(2), f(16), nil, rf(8*3+7, 8), 4, 1, nil) },
		"short scratch":    func() { ScoreRows(f(7), f(2), f(16), nil, rf(32, 8), 4, 1, nil) },
		"ragged q":         func() { ScoreRows(f(8), f(2), f(15), nil, rf(32, 8), 4, 1, nil) },
		"negative rows":    func() { ScoreRows(f(8), f(2), f(16), nil, rf(32, 8), -1, 1, nil) },
		"lanes not q":      func() { ScoreRows(f(32), f(8), f(64), f(56), rf(32, 8), 4, 1, nil) },
		"lanes for 2":      func() { ScoreRows(f(8), f(2), f(16), f(16), rf(32, 8), 4, 1, nil) },
		"short scales":     func() { ScoreRows(f(8), f(2), f(16), nil, r8(32, 3, 8), 4, 1, f(8)) },
		"both dtypes K":    func() { ScoreRows(f(8), f(2), f(16), nil, both, 4, 1, f(8)) },
		"short V":          func() { WeighRows(f(16), f(8), f(2), r8(31, 4, 8), 4) },
		"short V scale":    func() { WeighRows(f(16), f(8), f(2), r8(32, 3, 8), 4) },
		"both dtypes V":    func() { WeighRows(f(16), f(8), f(2), both, 4) },
		"short weights":    func() { WeighRows(f(16), f(7), f(2), rf(32, 8), 4) },
		"stride < dh":      func() { WeighRows(f(16), f(8), f(2), rf(32, 7), 4) },
		"offset past rows": func() { WeighRows(f(16), f(8), f(2), rf(32, 8).From(1), 4) },
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
