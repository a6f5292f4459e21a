package simd

import (
	"math"
	"math/rand"
	"testing"
)

// Exp32 must track math.Exp to a couple of float32 ulps across the softmax
// input range, hit exact zero below the underflow cutoff, and be exact at 0.
func TestExp32MatchesMathExp(t *testing.T) {
	if Exp32(0) != 1 {
		t.Fatalf("Exp32(0) = %g", Exp32(0))
	}
	if Exp32(-100) != 0 {
		t.Fatalf("Exp32(-100) = %g, want 0", Exp32(-100))
	}
	if !math.IsInf(float64(Exp32(90)), 1) {
		t.Fatalf("Exp32(90) = %g, want +Inf", Exp32(90))
	}
	rng := rand.New(rand.NewSource(29))
	worst := 0.0
	for i := 0; i < 100000; i++ {
		// Softmax arguments are ≤ 0; cover a little positive range too.
		x := float32(rng.Float64()*95 - 87)
		got := float64(Exp32(x))
		want := math.Exp(float64(x))
		if want == 0 {
			continue
		}
		if r := math.Abs(got-want) / want; r > worst {
			worst = r
		}
	}
	if worst > 3e-7 {
		t.Errorf("Exp32 max relative error %g, want <= 3e-7", worst)
	}
}

// Exp32Rows must agree with the scalar Exp32 bit for bit on both dispatch
// paths — it is the same reduction and polynomial, only batched —
// including at the under/overflow rails, the scale-split bands, and every
// slice-length tail the 4- and 8-wide blockings produce.
func TestExp32RowsMatchesExp32Exactly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	edge := []float32{
		0, 1, -1, 0.5, -0.5,
		-87.33654, -87.33655, -87.4, -200, float32(math.Inf(-1)),
		88.72282, 88.72283, 88.8, 200, float32(math.Inf(1)),
		-87.0, -86.9, 88.0, // near the scale-split bands
		float32(math.Ln2 / 2), float32(-math.Ln2 / 2), 2.5 * 0.6931472,
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 33, 128} {
		xs := make([]float32, n)
		want := make([]float32, n)
		for trial := 0; trial < 50; trial++ {
			for i := range xs {
				if i < len(edge) && trial == 0 {
					xs[i] = edge[i]
				} else {
					xs[i] = float32(rng.NormFloat64() * 30)
				}
				want[i] = Exp32(xs[i])
			}
			Exp32Rows(xs)
			for i, got := range xs {
				if math.Float32bits(got) != math.Float32bits(want[i]) {
					t.Fatalf("len %d, elem %d: Exp32Rows %g (%#x) != Exp32 %g (%#x)",
						n, i, got, math.Float32bits(got), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}

// Accuracy against float64 math.Exp over the softmax input range: the
// batched form inherits Exp32's ~2-ulp bound.
func TestExp32RowsAccuracy(t *testing.T) {
	const n = 4096
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = -87 + 100*float32(i)/n // [-87, 13): softmax inputs are <= 0
	}
	ref := make([]float64, n)
	for i, x := range xs {
		ref[i] = math.Exp(float64(x))
	}
	Exp32Rows(xs)
	for i, got := range xs {
		rel := math.Abs(float64(got)-ref[i]) / ref[i]
		if rel > 3e-7 {
			t.Fatalf("x[%d]: relative error %g exceeds 3e-7", i, rel)
		}
	}
}

// In-place over the caller's slice: no allocations at any length.
func TestExp32RowsZeroAllocs(t *testing.T) {
	xs := make([]float32, 257)
	for i := range xs {
		xs[i] = float32(i%40) - 39
	}
	if avg := testing.AllocsPerRun(100, func() {
		Exp32Rows(xs)
	}); avg != 0 {
		t.Errorf("Exp32Rows allocates %v per call, want 0", avg)
	}
}
