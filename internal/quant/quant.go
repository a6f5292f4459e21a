// Package quant implements symmetric per-output-channel int8 weight
// quantization, the reproduction's stand-in for the AQT library the paper
// uses (Section 3.6). Only weights are quantized; matmul arithmetic stays in
// float (matching the paper: int8 saves weight memory and weight
// communication volume, not compute).
package quant

import (
	"fmt"
	"math"

	"esti/internal/simd"
	"esti/internal/tensor"
)

// Int8Mat is a weight matrix stored as int8 values with one float scale per
// output column (symmetric quantization: value ≈ int8 · scale).
type Int8Mat struct {
	Rows, Cols int
	Data       []int8
	Scales     []float32 // per column
}

// Quantize converts a float matrix to int8 with per-column scales.
func Quantize(w *tensor.Mat) *Int8Mat {
	q := &Int8Mat{
		Rows: w.Rows, Cols: w.Cols,
		Data:   make([]int8, w.Rows*w.Cols),
		Scales: make([]float32, w.Cols),
	}
	for c := 0; c < w.Cols; c++ {
		var maxAbs float32
		for r := 0; r < w.Rows; r++ {
			if a := abs32(w.At(r, c)); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		if scale == 0 {
			scale = 1 // all-zero column quantizes to zeros under any scale
		}
		q.Scales[c] = scale
		for r := 0; r < w.Rows; r++ {
			v := w.At(r, c) / scale
			q.Data[r*w.Cols+c] = int8(clamp(math.RoundToEven(float64(v)), -127, 127))
		}
	}
	return q
}

// Dequantize reconstructs the float matrix.
func (q *Int8Mat) Dequantize() *tensor.Mat {
	out := tensor.New(q.Rows, q.Cols)
	for r := 0; r < q.Rows; r++ {
		for c := 0; c < q.Cols; c++ {
			out.Set(r, c, float32(q.Data[r*q.Cols+c])*q.Scales[c])
		}
	}
	return out
}

// Bytes is the storage footprint: one byte per element plus four per scale.
func (q *Int8Mat) Bytes() int { return len(q.Data) + 4*len(q.Scales) }

// MatMul multiplies float activations by the quantized weights, accumulating
// in float32 over the int8 values and applying the column scale once per
// output (the standard weight-only quantized matmul).
func MatMul(a *tensor.Mat, q *Int8Mat) *tensor.Mat {
	return MatMulInto(tensor.New(a.Rows, q.Cols), a, q)
}

// MatMulInto is the destination-passing form of MatMul: a·q into dst
// (reshaped to [a.Rows, q.Cols]), returning dst. The raw product a·int8(q)
// runs through the same driver and register tile as the float kernels of
// package tensor (tensor.GemmInto), the int8 rows widened in registers;
// the column scales are applied once, afterwards. dst must not alias a.
func MatMulInto(dst, a *tensor.Mat, q *Int8Mat) *tensor.Mat {
	if a.Cols != q.Rows {
		panic(fmt.Sprintf("quant: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, q.Rows, q.Cols))
	}
	dst.Reshape(a.Rows, q.Cols)
	tensor.GemmInto(dst, a, q.rowMajor(), false)
	ScaleColumns(dst, q.Scales)
	return dst
}

// rowMajor is q's raw values as a GEMM right operand.
func (q *Int8Mat) rowMajor() simd.GemmB {
	return simd.GemmB{I8: q.Data, RowStride: q.Cols, StripStride: 8}
}

// ScaleColumns applies per-column scales in place: m[i][j] *= scales[j].
// It finishes a raw product: a·int8(q), taken whole or accumulated chunk by
// chunk with tensor.GemmInto, scaled once.
func ScaleColumns(m *tensor.Mat, scales []float32) {
	if len(scales) < m.Cols {
		panic(fmt.Sprintf("quant: %d scales for %d columns", len(scales), m.Cols))
	}
	s := scales[:m.Cols]
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] *= s[j]
		}
	}
}

// matMulNaive is the original triple-loop quantized matmul, retained as
// the oracle the tiled kernel is property-tested against.
func matMulNaive(a *tensor.Mat, q *Int8Mat) *tensor.Mat {
	if a.Cols != q.Rows {
		panic(fmt.Sprintf("quant: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, q.Rows, q.Cols))
	}
	out := tensor.New(a.Rows, q.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < q.Rows; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			qrow := q.Data[k*q.Cols : (k+1)*q.Cols]
			for j := range orow {
				orow[j] += av * float32(qrow[j])
			}
		}
		for j := range orow {
			orow[j] *= q.Scales[j]
		}
	}
	return out
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
