package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"esti/internal/tensor"
)

// Every dequantized weight is within half a step of its column's scale:
// 0.5/127 of the column's max magnitude.
func TestQuantizeRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := tensor.New(32, 16).FillRand(rng, 0.5)
	d := Quantize(w).Dequantize()
	for c := 0; c < w.Cols; c++ {
		var maxAbs float64
		for r := 0; r < w.Rows; r++ {
			maxAbs = max(maxAbs, math.Abs(float64(w.At(r, c))))
		}
		for r := 0; r < w.Rows; r++ {
			if e := math.Abs(float64(w.At(r, c) - d.At(r, c))); e > maxAbs*(0.5/127+1e-6) {
				t.Errorf("[%d,%d]: error %g exceeds symmetric int8 bound %g of max %g", r, c, e, 0.5/127, maxAbs)
			}
		}
	}
}

func TestQuantizedMatMulCloseToFloat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := tensor.New(4, 24).FillRand(rng, 1)
		w := tensor.New(24, 8).FillRand(rng, 0.1)
		exact := tensor.MatMul(a, w)
		q := Quantize(w)
		approx := MatMulInto(tensor.New(a.Rows, q.Cols), a, q)
		// Error per output ≤ sum_k |a_k| · scale/2; with |a|≤1 and
		// scale ≈ 0.1/127·2, a loose bound of 2% of max output works.
		return tensor.MaxAbsDiff(exact, approx) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Quantized matmul must agree exactly with dequantize-then-matmul (it is the
// same arithmetic, reordered).
func TestMatMulMatchesDequantized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.New(3, 10).FillRand(rng, 1)
	w := tensor.New(10, 6).FillRand(rng, 1)
	q := Quantize(w)
	got := MatMulInto(tensor.New(a.Rows, q.Cols), a, q)
	want := tensor.MatMul(a, q.Dequantize())
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Errorf("quantized matmul differs from dequantized by %g", d)
	}
}

func TestBytesHalved(t *testing.T) {
	w := tensor.New(128, 64)
	q := Quantize(w)
	floatBytes := 4 * 128 * 64
	if int8Bytes := len(q.Data) + 4*len(q.Scales); int8Bytes >= floatBytes/2 {
		t.Errorf("int8 bytes %d not under half of float32 %d", int8Bytes, floatBytes)
	}
}

func TestZeroColumn(t *testing.T) {
	w := tensor.New(4, 2)
	w.Set(0, 1, 1) // column 0 stays all-zero
	q := Quantize(w)
	d := q.Dequantize()
	for r := 0; r < 4; r++ {
		if d.At(r, 0) != 0 {
			t.Error("zero column did not survive quantization")
		}
	}
	if d.At(0, 1) == 0 {
		t.Error("nonzero value lost")
	}
}

func TestValuesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := tensor.New(16, 16).FillRand(rng, 100)
	q := Quantize(w)
	for _, v := range q.Data {
		if v < -127 || v > 127 {
			t.Fatalf("int8 value %d out of symmetric range", v)
		}
	}
}

func TestExtremesPreserved(t *testing.T) {
	w := tensor.FromSlice([]float32{-1, 0.5, 1, -0.25}, 2, 2)
	q := Quantize(w)
	d := q.Dequantize()
	if math.Abs(float64(d.At(0, 0))+1) > 1e-6 {
		t.Errorf("column max -1 reconstructed as %g", d.At(0, 0))
	}
	if math.Abs(float64(d.At(1, 0))-1) > 1e-6 {
		t.Errorf("column max 1 reconstructed as %g", d.At(1, 0))
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected shape panic")
		}
	}()
	MatMulInto(tensor.New(2, 2), tensor.New(2, 3), Quantize(tensor.New(4, 2)))
}
