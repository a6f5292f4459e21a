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

// SelectRows copies the given rows, preserving the column scales. Sharding
// a quantized checkpoint this way (quantize once, then slice) keeps every
// chip's arithmetic bit-consistent with the unsharded quantized model —
// per-shard re-quantization would compute different scales per shard.
func (q *Int8Mat) SelectRows(rows []int) *Int8Mat {
	out := &Int8Mat{
		Rows: len(rows), Cols: q.Cols,
		Data:   make([]int8, len(rows)*q.Cols),
		Scales: make([]float32, q.Cols),
	}
	copy(out.Scales, q.Scales)
	for i, r := range rows {
		copy(out.Data[i*q.Cols:(i+1)*q.Cols], q.Data[r*q.Cols:(r+1)*q.Cols])
	}
	return out
}

// SelectCols copies the given columns with their scales.
func (q *Int8Mat) SelectCols(cols []int) *Int8Mat {
	out := &Int8Mat{
		Rows: q.Rows, Cols: len(cols),
		Data:   make([]int8, q.Rows*len(cols)),
		Scales: make([]float32, len(cols)),
	}
	for j, c := range cols {
		out.Scales[j] = q.Scales[c]
	}
	for i := 0; i < q.Rows; i++ {
		src := q.Data[i*q.Cols : (i+1)*q.Cols]
		dst := out.Data[i*len(cols) : (i+1)*len(cols)]
		for j, c := range cols {
			dst[j] = src[c]
		}
	}
	return out
}

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

// MatMulAccRawInto accumulates the unscaled product into dst: dst +=
// a·int8(q), with no column scales applied. It exists for the streamed
// collectives' contraction-chunked matmuls: row blocks of q (views sharing
// one Scales array) arrive one chunk at a time, each folds its raw partial
// product into dst, and the caller applies ScaleColumns once after the
// last chunk — the same single scale application as the unsharded kernel,
// over sums taken in the same order, which is what makes
// MatMulAccRawInto+ScaleColumns from a cleared dst equal MatMulInto bit for
// bit. dst must already have shape [a.Rows, q.Cols]; it must not alias a.
func MatMulAccRawInto(dst, a *tensor.Mat, q *Int8Mat) *tensor.Mat {
	if a.Cols != q.Rows {
		panic(fmt.Sprintf("quant: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, q.Rows, q.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != q.Cols {
		panic(fmt.Sprintf("quant: matmul-acc dst %dx%d for %dx%d result", dst.Rows, dst.Cols, a.Rows, q.Cols))
	}
	tensor.GemmInto(dst, a, q.rowMajor(), true)
	return dst
}

// rowMajor is q's raw values as a GEMM right operand.
func (q *Int8Mat) rowMajor() simd.GemmB {
	return simd.GemmB{I8: q.Data, RowStride: q.Cols, StripStride: 8}
}

// ScaleColumns applies per-column scales in place: m[i][j] *= scales[j].
// It finishes a MatMulAccRawInto accumulation.
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

// RelError returns the max relative reconstruction error of quantizing w,
// normalized by the per-column max magnitude (the symmetric quantization
// error bound is 0.5/127 ≈ 0.4%).
func RelError(w *tensor.Mat) float64 {
	q := Quantize(w)
	d := q.Dequantize()
	var worst float64
	for c := 0; c < w.Cols; c++ {
		var maxAbs float64
		for r := 0; r < w.Rows; r++ {
			if a := math.Abs(float64(w.At(r, c))); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			continue
		}
		for r := 0; r < w.Rows; r++ {
			e := math.Abs(float64(w.At(r, c)-d.At(r, c))) / maxAbs
			if e > worst {
				worst = e
			}
		}
	}
	return worst
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
