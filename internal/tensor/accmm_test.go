package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// GemmInto with acc must equal preload + a·b against the naive oracle,
// across shapes that hit every tile height and both tails (every tile must
// accumulate, not clear).
func TestGemmAccMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range propShapes {
		a := randMatZ(rng, sh.m, sh.k)
		b := randMatZ(rng, sh.k, sh.n)
		dst := randMatZ(rng, sh.m, sh.n)
		want := matMulNaive(a, b)
		for i := range want.Data {
			want.Data[i] += dst.Data[i]
		}
		GemmInto(dst, a, rowMajor(b), true)
		if r := maxRel(t, dst, want); r > 1e-5 {
			t.Errorf("%dx%d·%dx%d acc: differs from oracle by rel %g", sh.m, sh.k, sh.k, sh.n, r)
		}
	}
}

// Accumulating over column-blocks of the contraction (the streamed FFN's
// gather-side pattern: one GEMM slice per arriving chunk) must agree with
// the one-shot product: the per-element addition order is identical when
// blocks fold in sequence.
func TestGemmAccContractionBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const m, k, n, blocks = 7, 32, 9, 4
	a := randMatZ(rng, m, k)
	b := randMatZ(rng, k, n)
	want := MatMul(a, b)

	dst := New(m, n)
	kb := k / blocks
	for blk := 0; blk < blocks; blk++ {
		ab := New(m, kb)
		bb := New(kb, n)
		for i := 0; i < m; i++ {
			copy(ab.Row(i), a.Row(i)[blk*kb:(blk+1)*kb])
		}
		for i := 0; i < kb; i++ {
			copy(bb.Row(i), b.Row(blk*kb+i))
		}
		GemmInto(dst, ab, rowMajor(bb), true)
	}
	if r := maxRel(t, dst, want); r > 1e-5 {
		t.Errorf("blockwise accumulation differs from one-shot by rel %g", r)
	}
}

// The parallel accumulate path must agree with the serial one exactly:
// tiles split output rows, and each row's accumulation order is unchanged.
func TestParallelGemmAccExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randMatZ(rng, 96, 80)
	b := randMatZ(rng, 80, 64)
	base := randMatZ(rng, 96, 64)

	prev := SetWorkers(1)
	defer SetWorkers(prev)
	serial := base.Clone()
	GemmInto(serial, a, rowMajor(b), true)

	SetWorkers(4)
	parallel := base.Clone()
	GemmInto(parallel, a, rowMajor(b), true)
	for i := range serial.Data {
		if math.Float32bits(serial.Data[i]) != math.Float32bits(parallel.Data[i]) {
			t.Fatalf("parallel acc differs from serial at %d: %g != %g",
				i, parallel.Data[i], serial.Data[i])
		}
	}
}

// A destination whose rows differ from a's, or weights too short for the
// destination's columns, panic instead of reading or writing out of range.
// (GemmInto takes its contraction length from a; the engine's weight shards
// check it against their own row count.)
func TestGemmAccShapePanics(t *testing.T) {
	a, b := New(2, 3), New(3, 4)
	for _, bad := range []*Mat{New(3, 4), New(2, 5)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for dst %dx%d", bad.Rows, bad.Cols)
				}
			}()
			GemmInto(bad, a, rowMajor(b), true)
		}()
	}
}
