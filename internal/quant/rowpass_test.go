package quant

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"esti/internal/simd"
	"esti/internal/tensor"
)

// matMulRowPass is the int8-weight GEMM this package ran before the
// register tile, kept verbatim as the tile's oracle: one output row at a
// time, the contraction four steps at a time through simd.MulAdd4F32I8 —
// which widens the four weight rows again for every output row — all-zero
// activation groups skipped, the last k%4 steps through simd.AxpyF32I8, and
// with scale the column scales applied once at the end.
func matMulRowPass(dst, a *tensor.Mat, q *Int8Mat, clearDst, scale bool) {
	k, n := a.Cols, q.Cols
	ad, qd, od := a.Data, q.Data, dst.Data
	for i := 0; i < a.Rows; i++ {
		arow := ad[i*k : i*k+k]
		orow := od[i*n : i*n+n]
		if clearDst {
			clear(orow)
		}
		if n == 0 {
			continue
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			simd.MulAdd4F32I8(orow,
				qd[kk*n:kk*n+n], qd[(kk+1)*n:(kk+1)*n+n],
				qd[(kk+2)*n:(kk+2)*n+n], qd[(kk+3)*n:(kk+3)*n+n],
				a0, a1, a2, a3)
		}
		for ; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			simd.AxpyF32I8(orow, av, qd[kk*n:kk*n+n])
		}
		if scale {
			for j := range orow {
				orow[j] *= q.Scales[j]
			}
		}
	}
}

// genActivations draws an m×k activation matrix in which some rows — masked
// slots — and some groups of four steps are all zero.
func genActivations(rng *rand.Rand, m, k int) *tensor.Mat {
	a := tensor.New(m, k).FillRand(rng, 1)
	for i := 0; i < m; i++ {
		row := a.Row(i)
		if rng.Intn(4) == 0 {
			clear(row)
		}
		for g := 0; g+4 <= k; g += 4 {
			if rng.Intn(5) == 0 {
				clear(row[g : g+4])
			}
		}
	}
	return a
}

func sameBits(t *testing.T, label string, got, want *tensor.Mat) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %g (%#08x), want %g (%#08x)", label, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// MatMulInto and raw accumulation (accRaw) equal the retained row-pass
// kernel on every bit over the tile contract's generated shapes (the same
// lists as package tensor's float test), serially and — at GOMAXPROCS 2,
// for the shapes past the pool's threshold — split in two; and raw accumulation
// from a cleared dst followed by ScaleColumns still equals MatMulInto. The
// accumulating form starts from an earlier raw product, as in the engine.
func TestMatMulBitIdenticalToRowPass(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33} {
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 64, 130} {
				for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 136} {
					label := fmt.Sprintf("[%d,%d]·[%d,%d] GOMAXPROCS=%d", m, k, k, n, procs)
					a := genActivations(rng, m, k)
					q := Quantize(tensor.New(k, n).FillRand(rng, 1))

					want := tensor.New(m, n)
					matMulRowPass(want, a, q, true, true)
					got := MatMulInto(tensor.New(1, 1), a, q)
					sameBits(t, label, got, want)

					raw := tensor.New(m, n)
					accRaw(raw, a, q)
					ScaleColumns(raw, q.Scales)
					sameBits(t, label+" acc-raw+scale", raw, got)

					a2 := genActivations(rng, m, k)
					want = tensor.New(m, n)
					matMulRowPass(want, a, q, true, false)
					got = want.Clone()
					matMulRowPass(want, a2, q, false, false)
					accRaw(got, a2, q)
					sameBits(t, label+" acc-raw", got, want)
				}
			}
		}
	}
}

// A zero activation row comes out exactly +0, scaled or raw.
func TestMatMulZeroRowsStayPositiveZero(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	const m, k, n = 9, 32, 24
	q := Quantize(tensor.New(k, n).FillRand(rng, 1))
	for masked := 0; masked < m; masked++ {
		a := tensor.New(m, k).FillRand(rng, 1)
		clear(a.Row(masked))
		dst := tensor.New(m, n).FillRand(rng, 1)
		MatMulInto(dst, a, q)
		raw := tensor.New(m, n)
		accRaw(raw, a, q)
		for j := 0; j < n; j++ {
			if math.Float32bits(dst.At(masked, j)) != 0 || math.Float32bits(raw.At(masked, j)) != 0 {
				t.Fatalf("masked row %d col %d: %#08x scaled, %#08x raw, want +0",
					masked, j, math.Float32bits(dst.At(masked, j)), math.Float32bits(raw.At(masked, j)))
			}
		}
	}
}

// A quantized matmul split across the pool allocates nothing: measured at
// GOMAXPROCS 2, where the [8,256]·[256,1024] product, 2 M multiply-adds,
// splits in two by strips.
func TestParallelMatMulAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a := tensor.New(8, 256).FillRand(rng, 1)
	q := Quantize(tensor.New(256, 1024).FillRand(rng, 1))
	dst := tensor.New(8, 1024)
	if avg := allocsAt(2, 50, func() { MatMulInto(dst, a, q) }); avg != 0 {
		t.Errorf("parallel MatMulInto allocates %v times", avg)
	}
	if avg := allocsAt(2, 50, func() { accRaw(dst, a, q) }); avg != 0 {
		t.Errorf("parallel raw accumulation allocates %v times", avg)
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

// BenchmarkTileVsRowPass is package tensor's benchmark of the same name
// over int8 weights: the retained row-pass kernel and the register tile in
// alternating bursts on one worker, each side's best burst as GFLOP/s.
func BenchmarkTileVsRowPass(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(1))
	for _, sh := range [][3]int{
		{8, 64, 8}, {8, 32, 64}, {8, 32, 128}, {8, 128, 32}, {32, 128, 32}, {8, 64, 64},
		{8, 256, 1024}, {64, 256, 1024}, {192, 64, 256}, {1024, 1024, 256},
	} {
		m, k, n := sh[0], sh[1], sh[2]
		a, dst := tensor.New(m, k).FillRand(rng, 1), tensor.New(m, n)
		q := Quantize(tensor.New(k, n).FillRand(rng, 1))
		flops := 2 * float64(m) * float64(k) * float64(n)
		calls := int(4e6/flops) + 1 // a burst is about 4 MFLOP
		b.Run(fmt.Sprintf("int8_%dx%dx%d", m, k, n), func(b *testing.B) {
			old, tile := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for c := 0; c < calls; c++ {
					matMulRowPass(dst, a, q, true, true)
				}
				t1 := time.Now()
				for c := 0; c < calls; c++ {
					MatMulInto(dst, a, q)
				}
				old, tile = min(old, t1.Sub(t0)), min(tile, time.Since(t1))
			}
			b.ReportMetric(flops*float64(calls)/float64(old.Nanoseconds()), "rowpass-GFLOP/s")
			b.ReportMetric(flops*float64(calls)/float64(tile.Nanoseconds()), "tile-GFLOP/s")
			b.ReportMetric(float64(old)/float64(tile), "x")
		})
	}
}
