package quant

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"esti/internal/tensor"
)

// Property test: the blocked/parallel quantized matmul against the
// retained naive oracle across block-boundary shapes, including the
// forced-parallel path on a single-core machine.
func TestQuantMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := []struct{ m, k, n int }{
		{0, 3, 2}, {1, 1, 1}, {2, 5, 3}, {7, 9, 11}, {33, 17, 5},
		{3, 128, 2}, {16, 31, 8}, {8, 64, 8},
	}
	for _, sh := range shapes {
		a := tensor.New(sh.m, sh.k)
		for i := range a.Data {
			if rng.Intn(5) != 0 { // exact zeros exercise the skip path
				a.Data[i] = rng.Float32()*2 - 1
			}
		}
		q := Quantize(tensor.New(sh.k, sh.n).FillRand(rng, 1))
		got := MatMulInto(tensor.New(a.Rows, q.Cols), a, q)
		want := matMulNaive(a, q)
		for i := range want.Data {
			d := math.Abs(float64(got.Data[i] - want.Data[i]))
			if d > 1e-5*math.Max(1, math.Abs(float64(want.Data[i]))) {
				t.Fatalf("%dx%d·%dx%d: blocked differs at %d: %g vs %g",
					sh.m, sh.k, sh.k, sh.n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// The parallel path must agree with the serial kernel exactly (tiles only
// split output rows). At GOMAXPROCS 4 the product, the one package
// tensor's TestParallelMatMulExactAndLeakFree cuts in four, splits.
func TestQuantMatMulParallelExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := tensor.New(96, 80).FillRand(rng, 1)
	q := Quantize(tensor.New(80, 64).FillRand(rng, 1))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := MatMulInto(tensor.New(a.Rows, q.Cols), a, q)

	runtime.GOMAXPROCS(4)
	for i := 0; i < 10; i++ {
		if d := tensor.MaxAbsDiff(serial, MatMulInto(tensor.New(a.Rows, q.Cols), a, q)); d != 0 {
			t.Fatalf("parallel differs from serial by %g", d)
		}
	}
}

// MatMulInto reuses its destination buffer.
func TestQuantMatMulIntoReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := tensor.New(4, 6).FillRand(rng, 1)
	q := Quantize(tensor.New(6, 3).FillRand(rng, 1))
	dst := tensor.New(4, 3)
	ptr := &dst.Data[0]
	MatMulInto(dst, a, q)
	if &dst.Data[0] != ptr {
		t.Error("MatMulInto reallocated a sufficient destination")
	}
	if d := tensor.MaxAbsDiff(dst, MatMulInto(tensor.New(a.Rows, q.Cols), a, q)); d != 0 {
		t.Errorf("MatMulInto into a reused dst differs from a fresh one by %g", d)
	}
}
