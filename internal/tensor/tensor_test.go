package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Mat {
	return New(r, c).FillRand(rng, 1)
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	got := MatMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i, w := range want {
		if got.Data[i] != w {
			t.Fatalf("matmul[%d] = %g, want %g", i, got.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 5, 7)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(i, i, 1)
	}
	if MaxAbsDiff(MatMul(a, id), a) != 0 {
		t.Error("A·I != A")
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 4, 6)
	b := randMat(rng, 3, 6)
	got := MatMulT(a, b)
	want := MatMul(a, Transpose(b))
	if MaxAbsDiff(got, want) > 1e-5 {
		t.Errorf("MatMulT differs from MatMul(a, bᵀ) by %g", MaxAbsDiff(got, want))
	}
}

// Property: matmul distributes over column-blocked weights — the fact every
// weight-stationary sharding relies on.
func TestMatMulColumnBlocking(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 3, 8)
		b := randMat(rng, 8, 6)
		full := MatMul(a, b)
		left := MatMul(a, SliceCols(b, 0, 3))
		right := MatMul(a, SliceCols(b, 3, 6))
		return MaxAbsDiff(full, ConcatCols(left, right)) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: matmul with row-blocked weights sums partial products — the fact
// behind reduce-scatter of partial sums.
func TestMatMulRowBlockingPartialSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 3, 8)
		b := randMat(rng, 8, 5)
		full := MatMul(a, b)
		p1 := MatMul(SliceCols(a, 0, 4), SliceRows(b, 0, 4))
		p2 := MatMul(SliceCols(a, 4, 8), SliceRows(b, 4, 8))
		return MaxAbsDiff(full, Add(p1, p2)) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"matmul":     func() { MatMul(New(2, 3), New(4, 2)) },
		"matmulT":    func() { MatMulT(New(2, 3), New(2, 4)) },
		"add":        func() { Add(New(2, 2), New(2, 3)) },
		"fromSlice":  func() { FromSlice([]float32{1}, 2, 2) },
		"sliceCols":  func() { SliceCols(New(2, 2), 0, 3) },
		"sliceRows":  func() { SliceRows(New(2, 2), -1, 1) },
		"concatCols": func() { ConcatCols(New(2, 2), New(3, 2)) },
		"concatRows": func() { ConcatRows(New(2, 2), New(2, 3)) },
		"rmsnorm":    func() { RMSNorm(New(2, 4), []float32{1}, 1e-6) },
		"negShape":   func() { New(-1, 2) },
		"emptyCat":   func() { ConcatCols() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 6, 9)
	SoftmaxRows(a)
	for i := 0; i < a.Rows; i++ {
		var s float64
		for _, v := range a.Row(i) {
			if v < 0 {
				t.Fatal("negative softmax output")
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Errorf("row %d sums to %g", i, s)
		}
	}
}

func TestSoftmaxHandlesLargeValues(t *testing.T) {
	a := FromSlice([]float32{1000, 1001, 999}, 1, 3)
	SoftmaxRows(a)
	var s float32
	for _, v := range a.Row(0) {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed")
		}
		s += v
	}
	if math.Abs(float64(s)-1) > 1e-5 {
		t.Errorf("sum %g", s)
	}
}

func TestRMSNorm(t *testing.T) {
	gain := []float32{1, 1, 1, 1}
	a := FromSlice([]float32{2, 2, 2, 2}, 1, 4)
	out := RMSNorm(a, gain, 0)
	for _, v := range out.Row(0) {
		if math.Abs(float64(v)-1) > 1e-6 {
			t.Errorf("rmsnorm of constant row = %g, want 1", v)
		}
	}
	// Gain scales the output.
	out2 := RMSNorm(a, []float32{2, 2, 2, 2}, 0)
	if MaxAbsDiff(out2, Scale(out, 2)) > 1e-6 {
		t.Error("gain not applied")
	}
}

func TestActivations(t *testing.T) {
	a := FromSlice([]float32{0}, 1, 1)
	GELU(a)
	if a.Data[0] != 0 {
		t.Error("GELU(0) != 0")
	}
	b := FromSlice([]float32{0}, 1, 1)
	SiLU(b)
	if b.Data[0] != 0 {
		t.Error("SiLU(0) != 0")
	}
	// GELU(x) ≈ x for large x, ≈ 0 for very negative x.
	c := FromSlice([]float32{10, -10}, 1, 2)
	GELU(c)
	if math.Abs(float64(c.Data[0])-10) > 1e-3 || math.Abs(float64(c.Data[1])) > 1e-3 {
		t.Errorf("GELU tails wrong: %v", c.Data)
	}
}

func TestSliceConcatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 5, 12)
	parts := []*Mat{SliceCols(a, 0, 4), SliceCols(a, 4, 8), SliceCols(a, 8, 12)}
	if MaxAbsDiff(ConcatCols(parts...), a) != 0 {
		t.Error("column slice/concat round trip failed")
	}
	rparts := []*Mat{SliceRows(a, 0, 2), SliceRows(a, 2, 5)}
	if MaxAbsDiff(ConcatRows(rparts...), a) != 0 {
		t.Error("row slice/concat round trip failed")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 3, 7)
	if MaxAbsDiff(Transpose(Transpose(a)), a) != 0 {
		t.Error("(aᵀ)ᵀ != a")
	}
}

func TestAddInPlaceAndScale(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	b := FromSlice([]float32{10, 20}, 1, 2)
	AddInPlace(a, b)
	if a.Data[0] != 11 || a.Data[1] != 22 {
		t.Errorf("AddInPlace = %v", a.Data)
	}
	s := Scale(a, 0.5)
	if s.Data[0] != 5.5 || s.Data[1] != 11 {
		t.Errorf("Scale = %v", s.Data)
	}
	m := Mul(a, b)
	if m.Data[0] != 110 || m.Data[1] != 440 {
		t.Errorf("Mul = %v", m.Data)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] != 1 {
		t.Error("clone shares storage")
	}
}
