package quant

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"esti/internal/tensor"
)

func randMat(rng *rand.Rand, rows, cols int) *tensor.Mat {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		if rng.Intn(5) == 0 {
			continue // exact zeros exercise the zero-skip paths
		}
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// accRaw is dst += a·int8(q) with no scales applied: the raw accumulation
// the engine's streamed down-projection folds chunk by chunk.
func accRaw(dst, a *tensor.Mat, q *Int8Mat) { tensor.GemmInto(dst, a, q.rowMajor(), true) }

// Raw accumulation from a zero destination followed by one ScaleColumns is
// the unsharded quantized matmul, bit for bit: both are the same tile
// driver, and an accumulator loaded as +0 is an accumulator cleared.
func TestMatMulAccRawFromZeroMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {7, 9, 11}, {2, 128, 2}, {16, 31, 8},
	} {
		a := randMat(rng, sh.m, sh.k)
		q := Quantize(randMat(rng, sh.k, sh.n))
		want := MatMulInto(tensor.New(a.Rows, q.Cols), a, q)
		dst := tensor.New(sh.m, sh.n)
		accRaw(dst, a, q)
		ScaleColumns(dst, q.Scales)
		for i := range want.Data {
			if math.Float32bits(dst.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%dx%d·%dx%d: acc-raw+scale differs from MatMul at %d: %g != %g",
					sh.m, sh.k, sh.k, sh.n, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

// Row-block views of a quantized matrix (the streamed FFN's per-chunk
// weight slices, sharing one Scales array) accumulated in sequence and
// scaled once must match the one-shot product — the engine's gather-side
// contract.
func TestMatMulAccRawRowBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const m, k, n, blocks = 6, 32, 10, 4
	a := randMat(rng, m, k)
	q := Quantize(randMat(rng, k, n))
	want := MatMulInto(tensor.New(a.Rows, q.Cols), a, q)

	dst := tensor.New(m, n)
	kb := k / blocks
	for blk := 0; blk < blocks; blk++ {
		qBlk := &Int8Mat{
			Rows: kb, Cols: n,
			Data:   q.Data[blk*kb*n : (blk+1)*kb*n],
			Scales: q.Scales, // shared, unscoped — accRaw never reads them
		}
		aBlk := tensor.New(m, kb)
		for i := 0; i < m; i++ {
			copy(aBlk.Row(i), a.Row(i)[blk*kb:(blk+1)*kb])
		}
		accRaw(dst, aBlk, qBlk)
	}
	ScaleColumns(dst, q.Scales)
	for i := range want.Data {
		got, w := float64(dst.Data[i]), float64(want.Data[i])
		if d := math.Abs(got - w); d > 1e-5*math.Max(1, math.Abs(w)) {
			t.Fatalf("blockwise raw accumulation differs at %d: %g != %g", i, got, w)
		}
	}
}

// The parallel accumulate path must agree with the serial one exactly. At
// GOMAXPROCS 4 the product, the one package tensor's
// TestParallelGemmAccExact cuts in four, splits.
func TestParallelMatMulAccRawExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randMat(rng, 96, 80)
	q := Quantize(randMat(rng, 80, 64))
	base := randMat(rng, 96, 64)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := base.Clone()
	accRaw(serial, a, q)

	runtime.GOMAXPROCS(4)
	parallel := base.Clone()
	accRaw(parallel, a, q)
	for i := range serial.Data {
		if math.Float32bits(serial.Data[i]) != math.Float32bits(parallel.Data[i]) {
			t.Fatalf("parallel acc-raw differs from serial at %d", i)
		}
	}
}

func TestAccRawShapeAndScalePanics(t *testing.T) {
	a := tensor.New(2, 3)
	q := Quantize(tensor.New(3, 4))
	for _, bad := range []*tensor.Mat{tensor.New(3, 4), tensor.New(2, 5)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for dst %dx%d", bad.Rows, bad.Cols)
				}
			}()
			accRaw(bad, a, q)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for short scales")
			}
		}()
		ScaleColumns(tensor.New(2, 4), []float32{1, 2})
	}()
}
