// Microkernel benchmarks: the simd layer's hot loops measured at the
// shapes the engine drives them at, each with a `dispatch` sub-benchmark
// (whatever internal/simd selected at init — AVX2 on capable x86-64,
// scalar otherwise or under ESTI_NOSIMD=1) and a `scalar` sub-benchmark
// pinned to the exported scalar twins. The dispatch/scalar ratio printed
// by one run IS the measured SIMD speedup on the current machine; the
// regression gate watches the dispatch figures so a kernel or dispatch
// regression fails CI even when the end-to-end engine benchmarks hide it
// behind model-evaluation overhead.
package esti

import (
	"fmt"
	"math"
	"testing"
	"time"

	"esti/internal/kvcache"
	"esti/internal/quant"
	"esti/internal/reference"
	"esti/internal/simd"
	"esti/internal/tensor"
)

// microN is the vector length for the dot/axpy benchmarks: 256 matches
// the contraction depths the engine hits (attention head dims and the
// CI-config FFN widths) and is a multiple of the 16-lane block, so the
// asm path runs block-only with no tail.
const microN = 256

func microFloats(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(i%17)*0.25 - 2
	}
	return v
}

func microInt8s(n int) []int8 {
	v := make([]int8, n)
	for i := range v {
		v[i] = int8(i*37%255 - 127)
	}
	return v
}

var microSink float32

// microRows is how many distinct rows the dot/axpy benchmarks sweep per
// b.N iteration — the score/weigh loops walk a cache segment, not one
// row, and a ~100µs-per-op figure is stable enough for the 20% gate where
// a single 25ns call is not.
const microRows = 64

// BenchmarkDotF32I8 times the mixed-precision dot product at the int8-KV
// attention score shape: a float32 query row against each quantized row
// of a 64-row cache segment. ns/op covers the whole 64-row sweep.
func BenchmarkDotF32I8(b *testing.B) {
	a := microFloats(microN)
	q := microInt8s(microRows * microN)
	b.Run("dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < microRows; r++ {
				microSink = simd.DotF32I8(a, q[r*microN:(r+1)*microN])
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < microRows; r++ {
				microSink = simd.ScalarDotF32I8(a, q[r*microN:(r+1)*microN])
			}
		}
	})
}

// BenchmarkAxpyF32I8 times the quantized weighted accumulate at the
// int8-KV attention value shape: each row of a 64-row quantized V segment
// folded into the float32 output row. ns/op covers the 64-row sweep.
func BenchmarkAxpyF32I8(b *testing.B) {
	dst := microFloats(microN)
	q := microInt8s(microRows * microN)
	b.Run("dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < microRows; r++ {
				simd.AxpyF32I8(dst, 0.25, q[r*microN:(r+1)*microN])
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < microRows; r++ {
				simd.ScalarAxpyF32I8(dst, 0.25, q[r*microN:(r+1)*microN])
			}
		}
	})
	microSink = dst[0]
}

// BenchmarkMatMulMicro times one small dense GEMM — [8,128]·[128,128],
// the per-chip activation-by-weight-panel shape of the CI engine config —
// through tensor.MatMulInto (dispatch) and through simd.ScalarGemm, the
// register tile's pure-Go twin: the same tiles with every element on the
// scalar row kernels (scalar).
func BenchmarkMatMulMicro(b *testing.B) {
	const m, k, n = 8, 128, 128
	a := tensor.FromSlice(microFloats(m*k), m, k)
	w := tensor.FromSlice(microFloats(k*n), k, n)
	dst := tensor.New(m, n)
	b.Run("dispatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(dst, a, w)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			simd.ScalarGemm(dst.Data, n, a.Data, k, simd.GemmB{F32: w.Data, RowStride: n, StripStride: 8}, m, k, n, false)
		}
	})
	microSink = dst.Data[0]
}

// matMulShapes are the per-chip projections of bench/'s four workloads,
// [m,k]·[k,n]: the narrow panels that sharding E and F over the chips
// leaves (chat_mesh8's 8-chip 2D layout, shared_prefix_mix's 4-chip decode
// and 32-row prefill chunks), and the unsharded FFN of the one-chip
// workloads at decode and prefill height, which splits across the pool.
var matMulShapes = [][3]int{
	{8, 64, 8}, {8, 32, 64}, {8, 32, 128}, {32, 128, 32}, {8, 256, 1024}, {64, 256, 1024},
}

// matMulCall returns one [m,k]·[k,n] product through the engine's entry
// points, float32 or int8 weights, and its flop count.
func matMulCall(m, k, n int, int8w bool) (call func(), flops float64) {
	a := tensor.FromSlice(microFloats(m*k), m, k)
	w := tensor.FromSlice(microFloats(k*n), k, n)
	dst := tensor.New(m, n)
	call = func() { tensor.MatMulInto(dst, a, w) }
	if int8w {
		q := quant.Quantize(w)
		call = func() { quant.MatMulInto(dst, a, q) }
	}
	return call, 2 * float64(m) * float64(k) * float64(n)
}

// BenchmarkMatMulShapes is the GEMM at the shapes the engine drives it at,
// each reported as GFLOP/s and as a fraction of what the same kernel does,
// in the same process a moment earlier, on an L1-resident [8,64]·[64,64]
// product — one full-height tile, eight strips, nothing to wait for: the
// rate the register tile itself runs at on this machine at this minute
// (the best of twenty short bursts, since the box's speed drifts). The
// fraction is what a shape loses to short contractions, narrow strips,
// weight rows a page apart and the pool's split, whatever the clock is
// doing. The gate watches allocs/op: zero, split across the pool or not.
func BenchmarkMatMulShapes(b *testing.B) {
	for _, weights := range []string{"f32", "int8"} {
		ref, refFlops := matMulCall(8, 64, 64, weights == "int8")
		for _, sh := range matMulShapes {
			call, flops := matMulCall(sh[0], sh[1], sh[2], weights == "int8")
			b.Run(fmt.Sprintf("%s_%dx%dx%d", weights, sh[0], sh[1], sh[2]), func(b *testing.B) {
				const bursts, perBurst = 20, 200
				best := time.Duration(math.MaxInt64)
				for r := 0; r < bursts; r++ {
					t0 := time.Now()
					for i := 0; i < perBurst; i++ {
						ref()
					}
					best = min(best, time.Since(t0))
				}
				tile := refFlops * perBurst / float64(best.Nanoseconds())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					call()
				}
				rate := flops * float64(b.N) / float64(b.Elapsed().Nanoseconds())
				b.ReportMetric(rate, "GFLOP/s")
				b.ReportMetric(rate/tile, "of-L1-tile")
			})
		}
	}
}

// benchAttendSegment times one decode step of the fused attention walk —
// scores, softmax and weighted V sum — for `heads` query heads over
// `kvHeads` KV heads at the given head dim and cache depth, float32 or
// int8 cache. Dispatch-path only, and allocation-free: the gate pins both
// ns/op and the zero allocs/op figure.
func benchAttendSegment(b *testing.B, int8KV bool, dh, heads, kvHeads, depth int) {
	width := kvHeads * dh
	cache := kvcache.New(1, 1, depth+8, width)
	if int8KV {
		cache = kvcache.NewInt8(1, 1, depth+8, width)
	}
	slot, ok := cache.Alloc()
	if !ok {
		b.Fatal("no cache slot")
	}
	krow := tensor.FromSlice(microFloats(width), 1, width)
	vrow := tensor.FromSlice(microFloats(width), 1, width)
	for s := 0; s < depth-1; s++ {
		cache.AppendSeq(0, slot, krow, vrow, 1)
		cache.AdvanceSeq(slot, 1)
	}
	cache.AppendSeq(0, slot, krow, vrow, 1) // current step's K/V, not yet advanced
	q := tensor.FromSlice(microFloats(heads*dh), 1, heads*dh)
	dst := tensor.New(1, heads*dh)
	var scr reference.AttnScratch
	scr.Reserve(heads / kvHeads * (depth + 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reference.AttendSeqInto(dst, dh, q, cache, 0, slot, 1, &scr)
	}
	microSink = dst.Data[0]
}

// BenchmarkAttendSegmentInt8 is the walk over a quantized cache at a depth
// that stays in L1: 8 query heads sharing one multiquery KV head, head dim
// 64, 256 positions.
func BenchmarkAttendSegmentInt8(b *testing.B) { benchAttendSegment(b, true, 64, 8, 1, 256) }

// The Long benchmarks are the walk at the shape of the end-to-end
// benchmark's longctx_int8kv workload — head dim 32, 1040 positions, 8
// heads — where a slot's K and V no longer sit in L1 next to the score
// scratch: multiquery (all 8 heads on one KV head, each K/V row read once
// for the 8) and multihead (8 KV heads, one query head each), int8 and
// float32 caches. The int8/float32 pairs are ROADMAP hot-path item (b)'s
// number: what the quantized cache costs or saves per walked row.
func BenchmarkAttendSegmentInt8Long(b *testing.B)    { benchAttendSegment(b, true, 32, 8, 1, 1040) }
func BenchmarkAttendSegmentF32Long(b *testing.B)     { benchAttendSegment(b, false, 32, 8, 1, 1040) }
func BenchmarkAttendSegmentInt8LongMHA(b *testing.B) { benchAttendSegment(b, true, 32, 8, 8, 1040) }
func BenchmarkAttendSegmentF32LongMHA(b *testing.B)  { benchAttendSegment(b, false, 32, 8, 8, 1040) }
