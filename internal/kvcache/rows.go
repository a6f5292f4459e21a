package kvcache

import (
	"fmt"

	"esti/internal/quant"
	"esti/internal/tensor"
)

// Rows is a zero-copy run of N consecutive K or V rows of Cols values, in
// one of the cache's two storage formats: float32 (F32 holds N·Cols values
// row-major, I8 and Scales are nil), or int8 with one symmetric scale per
// row (I8 holds the N·Cols values, Scales the N scales, value ≈ int8 ·
// scale, F32 is nil). It is what Cache and KVBlock store per layer and
// what the attention walk reads, passed by value so a hot path takes
// views without allocating. This file is the only code that knows how the
// two formats are laid out, allocated, sliced, sized and turned into one
// another; everything else in the package moves rows with copyRows.
type Rows struct {
	N, Cols int
	F32     []float32
	I8      []int8
	Scales  []float32
}

// newRows allocates n zeroed rows. Float rows come from tensor.New, so they
// start on a cache line like every other matrix the kernels read.
func newRows(n, cols int, int8Mode bool) Rows {
	if int8Mode {
		return Rows{N: n, Cols: cols, I8: make([]int8, n*cols), Scales: make([]float32, n)}
	}
	return matRows(tensor.New(n, cols))
}

// matRows views a float32 matrix as Rows.
func matRows(m *tensor.Mat) Rows { return Rows{N: m.Rows, Cols: m.Cols, F32: m.Data} }

// Slice returns rows [lo, hi) of r, sharing its storage.
func (r Rows) Slice(lo, hi int) Rows {
	out := Rows{N: hi - lo, Cols: r.Cols}
	if r.I8 != nil {
		out.I8, out.Scales = r.I8[lo*r.Cols:hi*r.Cols], r.Scales[lo:hi]
	} else {
		out.F32 = r.F32[lo*r.Cols : hi*r.Cols]
	}
	return out
}

// copyRows fills dst with src's rows; the two must agree on N and Cols but
// not on format. Same-format copies are verbatim — int8 values and scales
// byte for byte, so rows that move between a slot, a prefix store and a
// handoff block are the rows the walk would have read in place. float32 →
// int8 quantizes each row under its own scale (quant.QuantizeRowInto clamps
// NaN and ±Inf, so a stored scale is always finite and positive); int8 →
// float32 multiplies it back.
func copyRows(dst, src Rows) {
	if dst.N != src.N || dst.Cols != src.Cols {
		panic(fmt.Sprintf("kvcache: copy of %dx%d rows into %dx%d", src.N, src.Cols, dst.N, dst.Cols))
	}
	w := src.Cols
	switch {
	case dst.I8 == nil && src.I8 == nil:
		copy(dst.F32, src.F32)
	case dst.I8 != nil && src.I8 != nil:
		copy(dst.I8, src.I8)
		copy(dst.Scales, src.Scales)
	case dst.I8 != nil:
		for t := 0; t < src.N; t++ {
			dst.Scales[t] = quant.QuantizeRowInto(dst.I8[t*w:(t+1)*w], src.F32[t*w:(t+1)*w])
		}
	default:
		for t := 0; t < src.N; t++ {
			quant.DequantizeRowInto(dst.F32[t*w:(t+1)*w], src.I8[t*w:(t+1)*w], src.Scales[t])
		}
	}
}

// copySegments fills dst with a slot's two segments, prefix rows first.
func copySegments(dst, pre, priv Rows) {
	copyRows(dst.Slice(0, pre.N), pre)
	copyRows(dst.Slice(pre.N, dst.N), priv)
}

// zero clears r's values and scales.
func (r Rows) zero() {
	clear(r.F32)
	clear(r.I8)
	clear(r.Scales)
}

// check reports how r differs from a well-formed run of n rows of cols
// values in the given format, nil if it does not.
func (r Rows) check(n, cols int, int8Mode bool) error {
	f32, i8, scales := n*cols, 0, 0
	if int8Mode {
		f32, i8, scales = 0, n*cols, n
	}
	if r.N != n || r.Cols != cols || len(r.F32) != f32 || len(r.I8) != i8 || len(r.Scales) != scales {
		return fmt.Errorf("%dx%d rows holding %d float32, %d int8, %d scales; want %dx%d %s",
			r.N, r.Cols, len(r.F32), len(r.I8), len(r.Scales), n, cols, storageName(int8Mode))
	}
	return nil
}

// bytesPerRow is the backing bytes of one stored row: cols float32s, or
// cols int8s plus the row's float32 scale — just over a quarter of the
// float32 bytes (against the analytic model's bf16 baseline one half, the
// paper's Table 1 doubling of context).
func bytesPerRow(cols int, int8Mode bool) int {
	if int8Mode {
		return cols + 4
	}
	return cols * 4
}

func storageName(int8Mode bool) string {
	if int8Mode {
		return "int8"
	}
	return "float32"
}
