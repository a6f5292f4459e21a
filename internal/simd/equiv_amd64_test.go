package simd

import (
	"math"
	"math/rand"
	"testing"
)

// Direct assembly-vs-twin equivalence, independent of what dispatch
// selected (so it still bites under ESTI_NOSIMD=1, and the scalar-fallback
// CI job cannot silently skip it on AVX2 runners).

func skipNoAVX2(t *testing.T) {
	t.Helper()
	if !hwAVX2 {
		t.Skip("no AVX2 on this machine")
	}
}

// asmLengths are multiples of the kernels' block widths — the only counts
// the raw assembly accepts.
func asmLengths(block int) []int {
	return []int{block, 2 * block, 4 * block, 10 * block, 16 * block}
}

func TestAsmDotBitIdentical(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(7))
	for _, n := range asmLengths(dotBlock) {
		for trial := 0; trial < 16; trial++ {
			a := randFloats(rng, n, true)
			bf := randFloats(rng, n, true)
			bi := randInt8s(rng, n)
			eqBits(t, "dotF32AVX2", dotF32Asm(a, bf), ScalarDotF32(a, bf))
			eqBits(t, "dotF32I8AVX2", dotF32I8Asm(a, bi), ScalarDotF32I8(a, bi))
		}
	}
}

func TestAsmAxpyBitIdentical(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(8))
	for _, n := range asmLengths(axpyBlock) {
		for trial := 0; trial < 16; trial++ {
			base := randFloats(rng, n, true)
			x := randFloats(rng, n, true)
			v := randInt8s(rng, n)
			s := rng.Float32()*4 - 2

			got, want := append([]float32(nil), base...), append([]float32(nil), base...)
			axpyF32Asm(got, s, x)
			ScalarAxpyF32(want, s, x)
			for i := range got {
				eqBits(t, "axpyF32AVX2", got[i], want[i])
			}

			got, want = append([]float32(nil), base...), append([]float32(nil), base...)
			axpyF32I8Asm(got, s, v)
			ScalarAxpyF32I8(want, s, v)
			for i := range got {
				eqBits(t, "axpyF32I8AVX2", got[i], want[i])
			}
		}
	}
}

func TestAsmMulAdd4BitIdentical(t *testing.T) {
	skipNoAVX2(t)
	rng := rand.New(rand.NewSource(9))
	for _, n := range asmLengths(axpyBlock) {
		for trial := 0; trial < 16; trial++ {
			base := randFloats(rng, n, true)
			var b [4][]float32
			var q [4][]int8
			for r := range b {
				b[r] = randFloats(rng, n, true)
				q[r] = randInt8s(rng, n)
			}
			a0, a1 := rng.Float32()*2-1, rng.Float32()*2-1
			a2, a3 := rng.Float32()*2-1, rng.Float32()*2-1

			got, want := append([]float32(nil), base...), append([]float32(nil), base...)
			mulAdd4F32Asm(got, b[0], b[1], b[2], b[3], a0, a1, a2, a3)
			ScalarMulAdd4F32(want, b[0], b[1], b[2], b[3], a0, a1, a2, a3)
			for i := range got {
				eqBits(t, "mulAdd4F32AVX2", got[i], want[i])
			}

			got, want = append([]float32(nil), base...), append([]float32(nil), base...)
			mulAdd4F32I8Asm(got, q[0], q[1], q[2], q[3], a0, a1, a2, a3)
			ScalarMulAdd4F32I8(want, q[0], q[1], q[2], q[3], a0, a1, a2, a3)
			for i := range got {
				eqBits(t, "mulAdd4F32I8AVX2", got[i], want[i])
			}
		}
	}
}

// Sign-extension edge values must convert exactly like Go's float32(int8).
func TestAsmInt8ExtensionExtremes(t *testing.T) {
	skipNoAVX2(t)
	b := make([]int8, dotBlock)
	a := make([]float32, dotBlock)
	for i := range b {
		b[i] = []int8{-128, -127, -1, 0, 1, 127, 64, -64}[i%8]
		a[i] = 1
	}
	eqBits(t, "int8 extremes", dotF32I8Asm(a, b), ScalarDotF32I8(a, b))
	if got := dotF32I8Asm(a, b); got != ScalarDotF32I8(a, b) {
		t.Fatalf("extension mismatch: %g", got)
	}
}

// Infinities and huge magnitudes must overflow identically on both paths.
func TestAsmOverflowIdentical(t *testing.T) {
	skipNoAVX2(t)
	a := make([]float32, dotBlock)
	b := make([]float32, dotBlock)
	for i := range a {
		a[i] = math.MaxFloat32
		b[i] = math.MaxFloat32
	}
	eqBits(t, "overflow dot", dotF32Asm(a, b), ScalarDotF32(a, b))
	if !math.IsInf(float64(dotF32Asm(a, b)), 1) {
		t.Fatal("expected +Inf accumulation")
	}
}

// forceASM routes the exported entry points through the assembly for the
// rest of the test whatever dispatch chose at init, so the wrapper + AVX2
// composition is checked under ESTI_NOSIMD=1 too.
func forceASM(t *testing.T) {
	skipNoAVX2(t)
	prev := useASM
	useASM = true
	t.Cleanup(func() { useASM = prev })
}

func TestAsmSegmentKernelsBitIdentical(t *testing.T) {
	forceASM(t)
	rng := rand.New(rand.NewSource(10))
	for _, c := range segmentCases() {
		checkSegmentKernels(t, rng, c)
	}
}

// The assembly widens int8 tail elements (dh%8) one at a time; the extremes
// must convert like the vector path and like Go.
func TestAsmSegmentInt8Extremes(t *testing.T) {
	forceASM(t)
	const g, dh, rows = 2, 21, 5
	k := make([]int8, rows*dh)
	for i := range k {
		k[i] = []int8{-128, -127, -1, 0, 1, 127, 64}[i%7]
	}
	q, scales := make([]float32, g*dh), make([]float32, rows)
	for i := range q {
		q[i] = float32(i%5) - 2
	}
	for i := range scales {
		scales[i] = 1
	}
	got, want := make([]float32, g*rows), make([]float32, g*rows)
	gotMax, wantMax := []float32{-1e30, -1e30}, []float32{-1e30, -1e30}
	ScoreRowsF32I8(got, rows, gotMax, q, k, scales, dh, rows, 1, make([]float32, dh))
	ScalarScoreRowsF32I8(want, rows, wantMax, q, k, scales, dh, rows, 1)
	for i := range got {
		eqBits(t, "score extremes", got[i], want[i])
	}
}

// The GEMM tile's assembly against the row-pass oracle and the all-zero
// guarantee, and the row quantizer's against its twins, whatever dispatch
// selected.
func TestAsmGemmTileBitIdentical(t *testing.T) {
	forceASM(t)
	checkGemmShapes(t, rand.New(rand.NewSource(11)))
	checkGemmZeroTiles(t, rand.New(rand.NewSource(12)))
}

func TestAsmQuantizeRowBitIdentical(t *testing.T) {
	forceASM(t)
	checkQuantizeKernels(t, rand.New(rand.NewSource(13)))
}

// expAlwaysBands are the float32 bit ranges where the assembly Exp32Rows
// changes behaviour — its hand-off bounds ±87/88, Exp32's rails and
// scale-split bands just outside them, ±0 and the subnormals, ±Inf and the
// NaNs — each swept in full on every run.
var expAlwaysBands = [][2]uint32{
	{0x00000000, 0x00010000}, // +0, positive subnormals
	{0x80000000, 0x80010000}, // -0, negative subnormals
	{0x42ad0000, 0x42b40000}, // 86.5 .. 90: hand-off at 88, +Inf rail at 88.72
	{0xc2ad0000, 0xc2b40000}, // -86.5 .. -90: hand-off at -87, zero rail at -87.34
	{0x3eb00000, 0x3eb80000}, // around ln2/2, where n steps 0 -> 1
	{0x7f7f0000, 0x7f810000}, // MaxFloat32, +Inf, first NaNs
	{0xff7f0000, 0xff810000}, // -MaxFloat32, -Inf, first NaNs
	{0x7fc00000, 0x7fc00100}, // quiet NaNs
}

// sweepExp32Rows checks Exp32Rows against Exp32 on every bit pattern in
// [lo, hi), eight-element blocks and tails alike.
func sweepExp32Rows(t *testing.T, lo, hi uint64) {
	t.Helper()
	const chunk = 1<<12 + 5 // not a multiple of 8: every chunk ends in a scalar tail
	xs := make([]float32, chunk)
	for base := lo; base < hi; base += chunk {
		n := chunk
		if hi-base < chunk {
			n = int(hi - base)
		}
		for i := 0; i < n; i++ {
			xs[i] = math.Float32frombits(uint32(base) + uint32(i))
		}
		Exp32Rows(xs[:n])
		for i := 0; i < n; i++ {
			bits := uint32(base) + uint32(i)
			if got, want := xs[i], Exp32(math.Float32frombits(bits)); math.Float32bits(got) != math.Float32bits(want) &&
				!(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
				t.Errorf("Exp32Rows(%#08x) = %#08x, Exp32 = %#08x", bits, math.Float32bits(got), math.Float32bits(want))
				return
			}
		}
	}
}

func TestAsmExp32RowsBands(t *testing.T) {
	forceASM(t)
	for _, b := range expAlwaysBands {
		sweepExp32Rows(t, uint64(b[0]), uint64(b[1]))
	}
}

// Every float32 bit pattern: the AVX2 body and its hand-off to the scalar
// Exp32 agree with Exp32 on all 2^32 inputs. Over a minute (a quarter of
// the inputs are so small that g*g underflows, and both sides pay the
// subnormal penalty), so not under -short or the race detector.
func TestAsmExp32RowsExhaustive(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("2^32-input sweep skipped under -short and -race")
	}
	forceASM(t)
	sweepExp32Rows(t, 0, 1<<32)
}
