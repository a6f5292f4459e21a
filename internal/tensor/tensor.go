// Package tensor is a minimal dense float32 matrix library sufficient for a
// decoder-only Transformer forward pass: matmul, row softmax (including the
// paper's log-base-2 fast path), RMS normalization, GELU/SiLU activations,
// and row/column slicing used by the sharded execution engine.
//
// Matrices are row-major with cache-line-aligned backing storage. The
// compute kernels route through internal/simd's runtime-dispatched layer
// (AVX2 on capable x86, a bit-identical pure-Go twin elsewhere or under
// ESTI_NOSIMD=1); accumulation order is fixed by that package's
// 16-lane/reduction-tree contract, so every result is identical across
// machines and dispatch paths.
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"esti/internal/simd"
)

// Mat is a dense row-major float32 matrix.
type Mat struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// New allocates a zero matrix. Backing storage is cache-line aligned so
// the simd layer's vector loads never split lines; FromSlice-wrapped data
// keeps whatever alignment the caller's slice has (the kernels accept
// both — alignment is performance, not correctness).
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: alignedFloats(rows * cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(data []float32, rows, cols int) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %d elements cannot form %dx%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (shared storage).
func (m *Mat) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// FillRand fills the matrix with scaled uniform noise from a seeded source,
// so tests and examples are reproducible.
func (m *Mat) FillRand(rng *rand.Rand, scale float32) *Mat {
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return m
}

// Add returns a+b elementwise.
func Add(a, b *Mat) *Mat {
	checkSameShape("add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a and returns a.
func AddInPlace(a, b *Mat) *Mat {
	checkSameShape("add", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
	return a
}

// Mul returns the elementwise product.
func Mul(a, b *Mat) *Mat {
	checkSameShape("mul", a, b)
	return MulInto(New(a.Rows, a.Cols), a, b)
}

// MulInto computes the elementwise product a⊙b into dst (reshaped to a's
// shape) and returns dst. dst may alias a or b.
func MulInto(dst, a, b *Mat) *Mat {
	checkSameShape("mul", a, b)
	dst.Reshape(a.Rows, a.Cols)
	bd := b.Data[:len(a.Data)]
	od := dst.Data[:len(a.Data)]
	for i, v := range a.Data {
		od[i] = v * bd[i]
	}
	return dst
}

// Scale multiplies every element by s, returning a new matrix.
func Scale(a *Mat, s float32) *Mat {
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// ScaleInPlace multiplies every element by s in place and returns a.
func ScaleInPlace(a *Mat, s float32) *Mat {
	for i := range a.Data {
		a.Data[i] *= s
	}
	return a
}

// CopyInto copies src into dst (reshaped to src's shape) and returns dst.
func CopyInto(dst, src *Mat) *Mat {
	dst.Reshape(src.Rows, src.Cols)
	copy(dst.Data, src.Data)
	return dst
}

func checkSameShape(op string, a, b *Mat) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// SliceCols returns a copy of columns [lo, hi).
func SliceCols(a *Mat, lo, hi int) *Mat {
	if lo < 0 || hi > a.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: column slice [%d,%d) of %d", lo, hi, a.Cols))
	}
	out := New(a.Rows, hi-lo)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i), a.Row(i)[lo:hi])
	}
	return out
}

// SliceRows returns a copy of rows [lo, hi).
func SliceRows(a *Mat, lo, hi int) *Mat {
	if lo < 0 || hi > a.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row slice [%d,%d) of %d", lo, hi, a.Rows))
	}
	out := New(hi-lo, a.Cols)
	copy(out.Data, a.Data[lo*a.Cols:hi*a.Cols])
	return out
}

// RowsView returns a zero-copy view of rows [lo, hi): the returned matrix
// shares a's storage. It is returned by value so hot paths can take views
// without a heap allocation.
func RowsView(a *Mat, lo, hi int) Mat {
	if lo < 0 || hi > a.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row view [%d,%d) of %d", lo, hi, a.Rows))
	}
	return Mat{Rows: hi - lo, Cols: a.Cols, Data: a.Data[lo*a.Cols : hi*a.Cols]}
}

// ConcatCols concatenates matrices with equal row counts side by side.
func ConcatCols(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("tensor: concat of nothing")
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic("tensor: concatCols row mismatch")
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		orow := out.Row(i)
		off := 0
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// ConcatRows stacks matrices with equal column counts.
func ConcatRows(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("tensor: concat of nothing")
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic("tensor: concatRows col mismatch")
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:off+len(m.Data)], m.Data)
		off += len(m.Data)
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Mat) *Mat {
	return TransposeInto(New(a.Cols, a.Rows), a)
}

// TransposeInto computes aᵀ into dst (reshaped to [a.Cols, a.Rows]) and
// returns dst. dst must not alias a.
func TransposeInto(dst, a *Mat) *Mat {
	dst.Reshape(a.Cols, a.Rows)
	rows, cols := a.Rows, a.Cols
	ad, od := a.Data, dst.Data
	for i := 0; i < rows; i++ {
		arow := ad[i*cols : i*cols+cols]
		for j, v := range arow {
			od[j*rows+i] = v
		}
	}
	return dst
}

// log2e converts natural exponent to base-2 exponent: e^x = 2^(x·log2(e)).
const log2e = 1.4426950408889634

// SoftmaxRows applies a numerically stable softmax to each row in place.
func SoftmaxRows(a *Mat) {
	softmaxRows(a, false)
}

// SoftmaxRowsBase2 is the paper's "faster log-base-2 implementation of
// Softmax" (Section 3.5): it computes 2^((x-max)·log2 e) instead of
// e^(x-max), which maps to cheaper exponent hardware. Numerically it is the
// same function; the test suite asserts equality with SoftmaxRows.
func SoftmaxRowsBase2(a *Mat) {
	softmaxRows(a, true)
}

func softmaxRows(a *Mat, base2 bool) {
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		maxV := float32(math.Inf(-1))
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		if math.IsInf(float64(maxV), -1) {
			// Every entry is -Inf — a fully masked attention row. The
			// limit of softmax as all logits go to -Inf together is an
			// all-zero distribution (no attendable position), not the
			// NaNs that exp(-Inf - -Inf) would produce.
			for j := range row {
				row[j] = 0
			}
			continue
		}
		var sum float32
		for j, v := range row {
			var e float64
			if base2 {
				e = math.Exp2(float64(v-maxV) * log2e)
			} else {
				e = math.Exp(float64(v - maxV))
			}
			row[j] = float32(e)
			sum += row[j]
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// RMSNorm applies root-mean-square layer normalization per row with a learned
// gain, returning a new matrix (PaLM-style, no bias, no mean subtraction).
func RMSNorm(a *Mat, gain []float32, eps float32) *Mat {
	if len(gain) != a.Cols {
		panic(fmt.Sprintf("tensor: rmsnorm gain %d vs cols %d", len(gain), a.Cols))
	}
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var ss float64
		for _, v := range row {
			ss += float64(v) * float64(v)
		}
		inv := float32(1 / math.Sqrt(ss/float64(a.Cols)+float64(eps)))
		orow := out.Row(i)
		for j, v := range row {
			orow[j] = v * inv * gain[j]
		}
	}
	return out
}

// GELU applies the tanh-approximated Gaussian error linear unit in place.
func GELU(a *Mat) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range a.Data {
		x := float64(v)
		a.Data[i] = float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	}
}

// SiLU applies x·sigmoid(x) in place (the "swish" activation PaLM gates
// with).
func SiLU(a *Mat) {
	for i, v := range a.Data {
		a.Data[i] = v * sigmoid(v)
	}
}

// SiLUBase2 is the log-base-2 swish variant of Section 3.5: sigmoid via
// 2^(-x·log2 e). Identical function, asserted equal in tests.
func SiLUBase2(a *Mat) {
	for i, v := range a.Data {
		e := float32(math.Exp2(float64(-v) * log2e))
		a.Data[i] = v / (1 + e)
	}
}

// SiLUFast is SiLU with the sigmoid's exponential computed by simd.Exp32
// instead of float64 math.Exp — the engine's hot-path variant, within ~2
// float32 ulps of SiLU (the same error class as the fused attention
// softmax) at a fraction of the cost. The exponentials are taken a block
// at a time by simd.Exp32Rows, which equals Exp32 on every input.
func SiLUFast(a *Mat) {
	var e [64]float32
	for d := a.Data; len(d) > 0; d = d[min(len(e), len(d)):] {
		blk := e[:min(len(e), len(d))]
		for i := range blk {
			blk[i] = -d[i]
		}
		simd.Exp32Rows(blk)
		for i, x := range blk {
			d[i] /= 1 + x
		}
	}
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// MaxAbsDiff returns the maximum absolute elementwise difference.
func MaxAbsDiff(a, b *Mat) float64 {
	checkSameShape("diff", a, b)
	var maxD float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// AllClose reports whether all elements agree within atol + rtol·|b|.
func AllClose(a, b *Mat, rtol, atol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		av, bv := float64(a.Data[i]), float64(b.Data[i])
		if math.Abs(av-bv) > atol+rtol*math.Abs(bv) {
			return false
		}
	}
	return true
}
