// Microkernel benchmarks: the simd layer's hot loops measured at the
// shapes the engine drives them at, each with a `dispatch` sub-benchmark
// (whatever internal/simd selected at init — AVX2 on capable x86-64,
// scalar otherwise or under ESTI_NOSIMD=1) and a `scalar` sub-benchmark
// pinned to the exported scalar twins. The dispatch/scalar ratio printed
// by one run IS the measured SIMD speedup on the current machine. Each
// benchmark's loop body is built by one function that the allocation tests
// below run too, so each microkernel, the GEMM at every benchmarked shape
// and the attention walk at every benchmarked geometry are held to zero
// heap allocations by `go test`.
package esti

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
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
// row, and a ~100µs-per-op figure is steadier than a single 25ns call.
const microRows = 64

// benchPaths runs a microkernel benchmark's dispatch and scalar bodies as
// its two sub-benchmarks.
func benchPaths(b *testing.B, body func(scalar bool) func()) {
	for _, path := range []string{"dispatch", "scalar"} {
		call := body(path == "scalar")
		b.Run(path, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				call()
			}
		})
	}
}

// dotF32I8Sweep is the mixed-precision dot product at the int8-KV
// attention score shape: a float32 query row against each quantized row of
// a 64-row cache segment.
func dotF32I8Sweep(scalar bool) func() {
	dot := simd.DotF32I8
	if scalar {
		dot = simd.ScalarDot
	}
	a := microFloats(microN)
	q := microInt8s(microRows * microN)
	return func() {
		for r := 0; r < microRows; r++ {
			microSink = dot(a, q[r*microN:(r+1)*microN])
		}
	}
}

// BenchmarkDotF32I8 times dotF32I8Sweep; ns/op covers the whole 64-row
// sweep.
func BenchmarkDotF32I8(b *testing.B) { benchPaths(b, dotF32I8Sweep) }

// axpyF32I8Sweep is the quantized weighted accumulate at the int8-KV
// attention value shape: each row of a 64-row quantized V segment folded
// into the float32 output row.
func axpyF32I8Sweep(scalar bool) func() {
	axpy := simd.AxpyF32I8
	if scalar {
		axpy = simd.ScalarAxpy
	}
	dst := microFloats(microN)
	q := microInt8s(microRows * microN)
	return func() {
		for r := 0; r < microRows; r++ {
			axpy(dst, 0.25, q[r*microN:(r+1)*microN])
		}
		microSink = dst[0]
	}
}

// BenchmarkAxpyF32I8 times axpyF32I8Sweep; ns/op covers the 64-row sweep.
func BenchmarkAxpyF32I8(b *testing.B) { benchPaths(b, axpyF32I8Sweep) }

// matMulMicro is one small dense GEMM — [8,128]·[128,128], the per-chip
// activation-by-weight-panel shape of the CI engine config — through
// tensor.MatMulInto (dispatch) or through simd.ScalarGemm, the register
// tile's pure-Go twin: the same tiles with every element on the scalar row
// kernels (scalar).
func matMulMicro(scalar bool) func() {
	const m, k, n = 8, 128, 128
	a := tensor.FromSlice(microFloats(m*k), m, k)
	w := tensor.FromSlice(microFloats(k*n), k, n)
	dst := tensor.New(m, n)
	if scalar {
		return func() {
			simd.ScalarGemm(dst.Data, n, a.Data, k, simd.GemmB{F32: w.Data, RowStride: n, StripStride: 8}, m, k, n, false)
		}
	}
	return func() { tensor.MatMulInto(dst, a, w) }
}

// BenchmarkMatMulMicro times matMulMicro.
func BenchmarkMatMulMicro(b *testing.B) { benchPaths(b, matMulMicro) }

// TestMicrokernelsAllocateNothing: each microkernel benchmark's body, on
// the dispatch path and on the scalar twins, makes no heap allocation.
func TestMicrokernelsAllocateNothing(t *testing.T) {
	for name, body := range map[string]func(bool) func(){
		"DotF32I8": dotF32I8Sweep, "AxpyF32I8": axpyF32I8Sweep, "MatMulMicro": matMulMicro,
	} {
		for _, scalar := range []bool{false, true} {
			if got := testing.AllocsPerRun(20, body(scalar)); got != 0 {
				t.Errorf("%s (scalar %v) allocates %v times a call, want 0", name, scalar, got)
			}
		}
	}
}

// matMulShapes are the per-chip projections of bench/'s four workloads,
// [m,k]·[k,n]: the narrow panels that sharding E and F over the chips
// leaves (chat_mesh8's 8-chip 2D layout, shared_prefix_mix's 4-chip decode
// and 32-row prefill chunks), and the unsharded FFN of the one-chip
// workloads at decode and prefill height, which splits across the pool.
var matMulShapes = [][3]int{
	{8, 64, 8}, {8, 32, 64}, {8, 32, 128}, {32, 128, 32}, {8, 256, 1024}, {64, 256, 1024},
}

// packedShapes are longctx_int8kv's decode projections — the fused
// in-projection [8,256]·[256,2368] and out-projection [8,1280]·[1280,256] —
// over int8 weights strip-packed as the engine stores them.
var packedShapes = [][3]int{{8, 256, 2368}, {8, 1280, 256}}

// matMulCase is one of BenchmarkMatMulShapes' products: a weight format
// (see matMulCall) at one [m,k]·[k,n] shape.
type matMulCase struct {
	weights string
	shape   [3]int
}

func (c matMulCase) String() string {
	return fmt.Sprintf("%s_%dx%dx%d", c.weights, c.shape[0], c.shape[1], c.shape[2])
}

// matMulCases are BenchmarkMatMulShapes' products: float32 and int8
// row-major weights at every matMulShapes shape, packed int8 at the
// packedShapes.
func matMulCases() []matMulCase {
	var cases []matMulCase
	for _, weights := range []string{"f32", "int8", "packed_int8"} {
		shapes := matMulShapes
		if weights == "packed_int8" {
			shapes = packedShapes
		}
		for _, sh := range shapes {
			cases = append(cases, matMulCase{weights, sh})
		}
	}
	return cases
}

// matMulCall returns one [m,k]·[k,n] product through the engine's entry
// points and its flop count: float32 ("f32") or int8 ("int8") row-major
// weights, or int8 weights strip-packed ("packed_int8": eight columns down
// all k rows, strip after strip) through tensor.GemmInto and the column
// scales, as an engine shard multiplies.
func matMulCall(m, k, n int, weights string) (call func(), flops float64) {
	a := tensor.FromSlice(microFloats(m*k), m, k)
	w := tensor.FromSlice(microFloats(k*n), k, n)
	dst := tensor.New(m, n)
	switch weights {
	case "f32":
		call = func() { tensor.MatMulInto(dst, a, w) }
	case "int8":
		q := quant.Quantize(w)
		call = func() { quant.MatMulInto(dst, a, q) }
	case "packed_int8":
		q := quant.Quantize(w)
		panel := make([]int8, (n+7)/8*8*k)
		for kk := 0; kk < k; kk++ {
			for j := 0; j < n; j++ {
				panel[j/8*8*k+kk*8+j%8] = q.Data[kk*n+j]
			}
		}
		b := simd.GemmB{I8: panel, RowStride: 8, StripStride: 8 * k}
		call = func() {
			tensor.GemmInto(dst, a, b, false)
			quant.ScaleColumns(dst, q.Scales)
		}
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
// doing. TestMatMulShapesAllocateNothing holds every shape to zero
// allocations, split across the pool or not.
func BenchmarkMatMulShapes(b *testing.B) {
	for _, c := range matMulCases() {
		ref, refFlops := matMulCall(8, 64, 64, c.weights)
		call, flops := matMulCall(c.shape[0], c.shape[1], c.shape[2], c.weights)
		b.Run(c.String(), func(b *testing.B) {
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

// TestMatMulShapesAllocateNothing: every BenchmarkMatMulShapes product
// makes no heap allocation, measured at GOMAXPROCS 1 and 2; at 2 the
// products that clear the pool's threshold split across it in two.
func TestMatMulShapesAllocateNothing(t *testing.T) {
	for _, c := range matMulCases() {
		call, _ := matMulCall(c.shape[0], c.shape[1], c.shape[2], c.weights)
		for _, procs := range []int{1, 2} {
			if got := allocsAt(procs, 20, call); got != 0 {
				t.Errorf("%v at GOMAXPROCS %d allocates %v times a call, want 0", c, procs, got)
			}
		}
	}
}

// allocsAt is testing.AllocsPerRun at GOMAXPROCS procs, which AllocsPerRun
// pins to 1, where tensor.Parts cuts nothing: f once to warm, then the
// heap allocations of runs calls over runs, rounded down as AllocsPerRun
// rounds. Above one P a split's blocked wait can take the runtime's wait
// record (a sudog) from one P's cache and free it into another's, and the
// runtime allocates records until the caches balance (about 200 waits),
// and again after a GC empties the shared cache. So the GC is off while f
// runs, and spareWaitRecords stocks the caches first.
func allocsAt(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spareWaitRecords(512)
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64((ms.Mallocs - before) / uint64(runs))
}

// spareWaitRecords parks up to n goroutines on one channel at once and
// wakes them all, so the runtime has made that many wait records and holds
// them in its caches, and returns once the goroutines have exited.
func spareWaitRecords(n int) {
	base := runtime.NumGoroutine()
	wake := make(chan struct{})
	var started, woken sync.WaitGroup
	started.Add(n)
	woken.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			started.Done()
			<-wake
			woken.Done()
		}()
	}
	started.Wait() // most are parked by now, and twice the need are started
	close(wake)
	woken.Wait()
	for runtime.NumGoroutine() > base {
		runtime.Gosched()
	}
}

// attendGeometry is one decode step of the fused attention walk — scores,
// softmax and weighted V sum — for heads query heads over kvHeads KV heads
// at head dim dh and cache depth, over a float32 or int8 cache.
type attendGeometry struct {
	int8KV                    bool
	dh, heads, kvHeads, depth int
}

// attendSegments are the BenchmarkAttendSegment* geometries by name suffix.
//
// Int8 is the walk over a quantized cache at a depth that stays in L1: 8
// query heads sharing one multiquery KV head, head dim 64, 256 positions.
//
// The Long geometries are the walk at the shape of the end-to-end
// benchmark's longctx_int8kv workload — head dim 32, 1040 positions, 8
// heads — where a slot's K and V no longer sit in L1 next to the score
// scratch: multiquery (all 8 heads on one KV head, each K/V row read once
// for the 8) and multihead (8 KV heads, one query head each), int8 and
// float32 caches. The int8/float32 pairs are ROADMAP hot-path item (b)'s
// number: what the quantized cache costs or saves per walked row.
//
// F32Head8 is one chip's batch-sharded walk on the end-to-end benchmark's
// chat_mesh8 workload: head dim 8, all 8 query heads on one KV head, 48
// positions. At head dim 8 a dot product has no 16-lane block, so one head
// at a time each score is eight dependent scalar adds; eight heads to a
// vector they are eight vector adds.
var attendSegments = map[string]attendGeometry{
	"Int8":        {true, 64, 8, 1, 256},
	"Int8Long":    {true, 32, 8, 1, 1040},
	"F32Long":     {false, 32, 8, 1, 1040},
	"Int8LongMHA": {true, 32, 8, 8, 1040},
	"F32LongMHA":  {false, 32, 8, 8, 1040},
	"F32Head8":    {false, 8, 8, 1, 48},
}

// attendSegment fills a one-slot cache to g's depth — the current step's
// K/V appended, not yet advanced — and returns the dispatch-path walk over
// it.
func attendSegment(g attendGeometry) func() {
	width := g.kvHeads * g.dh
	cache := kvcache.New(1, 1, g.depth+8, width)
	if g.int8KV {
		cache = kvcache.NewInt8(1, 1, g.depth+8, width)
	}
	const slot = 0
	krow := tensor.FromSlice(microFloats(width), 1, width)
	vrow := tensor.FromSlice(microFloats(width), 1, width)
	for s := 0; s < g.depth-1; s++ {
		cache.AppendSeq(0, slot, krow, vrow, 1)
		cache.AdvanceSeq(slot, 1)
	}
	cache.AppendSeq(0, slot, krow, vrow, 1)
	q := tensor.FromSlice(microFloats(g.heads*g.dh), 1, g.heads*g.dh)
	dst := tensor.New(1, g.heads*g.dh)
	var scr reference.AttnScratch
	scr.Reserve(g.heads / g.kvHeads * (g.depth + 8))
	return func() {
		reference.AttendSeqInto(dst, g.dh, q, cache, 0, slot, 1, &scr)
		microSink = dst.Data[0]
	}
}

func benchAttendSegment(b *testing.B, name string) {
	call := attendSegment(attendSegments[name])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

func BenchmarkAttendSegmentInt8(b *testing.B)        { benchAttendSegment(b, "Int8") }
func BenchmarkAttendSegmentInt8Long(b *testing.B)    { benchAttendSegment(b, "Int8Long") }
func BenchmarkAttendSegmentF32Long(b *testing.B)     { benchAttendSegment(b, "F32Long") }
func BenchmarkAttendSegmentInt8LongMHA(b *testing.B) { benchAttendSegment(b, "Int8LongMHA") }
func BenchmarkAttendSegmentF32LongMHA(b *testing.B)  { benchAttendSegment(b, "F32LongMHA") }
func BenchmarkAttendSegmentF32Head8(b *testing.B)    { benchAttendSegment(b, "F32Head8") }

// TestAttendSegmentsAllocateNothing: the attention walk makes no heap
// allocation at any benchmarked geometry, its softmax scratch reserved
// once up front.
func TestAttendSegmentsAllocateNothing(t *testing.T) {
	for name, g := range attendSegments {
		if got := testing.AllocsPerRun(20, attendSegment(g)); got != 0 {
			t.Errorf("AttendSegment%s allocates %v times a step, want 0", name, got)
		}
	}
}
