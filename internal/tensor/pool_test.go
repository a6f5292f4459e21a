package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"esti/internal/simd"
)

// Splits from several goroutines at once — each chip of a mesh splits its
// own GEMMs and walk on the one pool — still run every unit of each split
// once, in ranges numbered in order, and leave no goroutine behind: 4
// callers, as on a 4-chip mesh, each run 200 splits into 0–3 parts, one
// more than the units and one more than GOMAXPROCS, at GOMAXPROCS 1, 2 and 4.
func TestConcurrentSplitsCoverEachUnitOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	Split(&coverTask{part: make([]int, 2)}, 2, 2) // start the pool
	before := runtime.NumGoroutine()
	const callers, splits = 4, 200
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		errs := make(chan string, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < splits; i++ {
					units := 2 + (c+i)%10
					parts := []int{0, 1, 2, 3, units + 1, procs + 1}[(c+i)%6]
					task := &coverTask{part: make([]int, units)}
					for u := range task.part {
						task.part[u] = -1
					}
					Split(task, units, parts)
					if !numberedInOrder(task.part, max(min(parts, units), 1)) {
						errs <- fmt.Sprintf("%d parts: %v", parts, task.part)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("GOMAXPROCS %d: %s, want every unit once in ranges numbered in order", procs, e)
		}
	}
	// A caller may still be exiting after wg.Wait, and the count may also
	// fall below before: the previous test's goroutine may still have been
	// exiting when before was read. Only a count that stays higher leaked.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("concurrent splits left %d goroutines, %d before", after, before)
	}
}

// The pool's goroutines are one per GOMAXPROCS when the first split starts
// them, however many parts that split asks for: the ranges beyond them
// queue, and no goroutine is started that would never exit.
func TestPoolWorkersCappedAtGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	stopPool(t)
	defer stopPool(t) // the next split starts the pool at the restored GOMAXPROCS
	before := runtime.NumGoroutine()
	task := &coverTask{part: make([]int, 8)}
	Split(task, 8, 8)
	if !numberedInOrder(task.part, 8) {
		t.Fatalf("parts %v, want every unit once in 8 ranges numbered in order", task.part)
	}
	if pool.started != 2 {
		t.Errorf("an 8-part split at GOMAXPROCS 2 started %d pool goroutines, want 2", pool.started)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("an 8-part split at GOMAXPROCS 2 raised the goroutines from %d to %d, want at most 2 more", before, after)
	}
}

// stopPool closes the pool's channel, waits for its goroutines to exit and
// leaves it to be started again by the next split.
func stopPool(t *testing.T) {
	pool.mu.Lock()
	n := runtime.NumGoroutine() - pool.started
	if pool.tasks != nil {
		close(pool.tasks)
	}
	pool.tasks, pool.started = nil, 0
	pool.mu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the pool's goroutines did not exit: %d running, want %d", runtime.NumGoroutine(), n)
		}
	}
}

// numberedInOrder reports whether part, the part that ran each unit, is
// ranges numbered 0, 1, … in order, none missing and the last parts-1, or
// no unit at all.
func numberedInOrder(part []int, parts int) bool {
	prev := -1
	for _, p := range part {
		if p < 0 || p >= parts || p < prev || p > prev+1 {
			return false
		}
		prev = p
	}
	return len(part) == 0 || prev == parts-1
}

// spinTask is fixed arithmetic, iters dependent multiply-adds a unit, that
// records when each range started.
type spinTask struct {
	iters int
	start []time.Time // by part
	sink  []float64   // by part, so the loop is not dead code
}

func (s *spinTask) Run(part, lo, hi int) {
	s.start[part] = time.Now()
	s.sink[part] += spin(s.iters * (hi - lo))
}

// spin is n dependent floating-point multiply-adds: the same time for the
// same n on any goroutine.
func spin(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x*0.999999 + 1e-6
	}
	return x
}

// BenchmarkSplitHandoff times what a split itself costs. Each iteration
// runs a fixed serial gap (the caller's work between splits, as between a
// pass's projections) and one fixed-arithmetic range in the caller, then
// the same gap and a two-way split of two such ranges. handoff-us is the
// median over iterations of the split's time minus the serial time just
// before it, so a drifting clock cancels; start-us is the median time from
// entering Split to the worker starting its range. With both ranges
// starting at once, handoff-us is the two channel operations and the
// yield; when the worker waits to be stolen from the caller's P it is that
// wait.
func BenchmarkSplitHandoff(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("a split's handoff needs two Ps")
	}
	const gapIters, rangeIters = 64_000, 192_000 // about 50 and 150 µs
	task := &spinTask{iters: rangeIters, start: make([]time.Time, 2), sink: make([]float64, 2)}
	Split(task, 2, 2) // start the pool
	handoffs := make([]time.Duration, 0, b.N)
	delays := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		task.sink[1] += spin(gapIters)
		task.Run(1, 0, 1)
		t1 := time.Now()
		task.sink[1] += spin(gapIters)
		t2 := time.Now()
		Split(task, 2, 2)
		t3 := time.Now()
		handoffs = append(handoffs, t3.Sub(t1)-t1.Sub(t0))
		delays = append(delays, task.start[0].Sub(t2))
	}
	b.ReportMetric(median(handoffs).Seconds()*1e6, "handoff-us")
	b.ReportMetric(median(delays).Seconds()*1e6, "start-us")
}

func median(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// BenchmarkGemmSplit times a decode-height product (eight rows, the
// engine's strip-packed weights, float32 and int8) cut by column strips
// into one part, in the caller, and into two, whatever its size. Each line
// reports the product's multiply-adds, so where split starts to beat
// serial is the GEMMs' break-even: parallelMinFlops.
func BenchmarkGemmSplit(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	for _, int8W := range []bool{false, true} {
		for _, kn := range [][2]int{{128, 128}, {128, 256}, {256, 256}, {256, 512}, {256, 1024}} {
			const m = 8
			k, n := kn[0], kn[1]
			a, dst := New(m, k).FillRand(rng, 1), New(m, n)
			w, kind := packStrips(New(k, n).FillRand(rng, 1)), "f32"
			if int8W {
				i8 := make([]int8, len(w.F32))
				for i := range i8 {
					i8[i] = int8(rng.Intn(255) - 127)
				}
				w, kind = simd.GemmB{I8: i8, RowStride: w.RowStride, StripStride: w.StripStride}, "int8"
			}
			strips := (n + simd.GemmStrip - 1) / simd.GemmStrip
			op := &rowOp{dst: *dst, a: *a, b: w, strips: true}
			for _, mode := range []struct {
				name  string
				parts int
			}{{"serial", 1}, {"split", 2}} {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", kind, m, k, n, mode.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						Split(op, strips, mode.parts)
					}
					b.ReportMetric(float64(m*k*n), "madds")
				})
			}
		}
	}
}
