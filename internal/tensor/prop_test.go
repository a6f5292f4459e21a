package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Property tests for the tiled/parallel kernels against the retained
// naive oracles, over shapes chosen to stress every block boundary: empty,
// 1×1, single row/column, tall-skinny, wide, and sizes that are not
// multiples of the tile's heights, its 8-column strip or its 4-step group.

var propShapes = []struct{ m, k, n int }{
	{0, 0, 0}, {0, 5, 3}, {3, 5, 0}, {1, 1, 1}, {1, 4, 1}, {2, 3, 2},
	{3, 1, 7}, {5, 5, 5}, {7, 9, 11}, {1, 64, 1}, {64, 1, 64},
	{33, 17, 5}, {2, 128, 2}, {129, 3, 1}, {16, 31, 8}, {8, 64, 8},
}

func randMatZ(rng *rand.Rand, rows, cols int) *Mat {
	m := New(rows, cols)
	for i := range m.Data {
		// Mix in exact zeros so the zero-skip paths are exercised.
		if rng.Intn(5) == 0 {
			continue
		}
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func maxRel(t *testing.T, got, want *Mat) float64 {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	worst := 0.0
	for i := range want.Data {
		d := math.Abs(float64(got.Data[i] - want.Data[i]))
		scale := math.Max(1, math.Abs(float64(want.Data[i])))
		if r := d / scale; r > worst {
			worst = r
		}
	}
	return worst
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range propShapes {
		a := randMatZ(rng, sh.m, sh.k)
		b := randMatZ(rng, sh.k, sh.n)
		got := MatMul(a, b)
		want := matMulNaive(a, b)
		// The tile reassociates sums in groups of four; allow a few ulps
		// of drift, nothing more.
		if r := maxRel(t, got, want); r > 1e-5 {
			t.Errorf("%dx%d·%dx%d: blocked differs from naive by rel %g", sh.m, sh.k, sh.k, sh.n, r)
		}
	}
}

func TestMatMulTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range propShapes {
		a := randMatZ(rng, sh.m, sh.k)
		b := randMatZ(rng, sh.n, sh.k)
		got := MatMulT(a, b)
		want := matMulTNaive(a, b)
		if r := maxRel(t, got, want); r > 1e-5 {
			t.Errorf("%dx%d·(%dx%d)ᵀ: blocked differs from naive by rel %g", sh.m, sh.k, sh.n, sh.k, r)
		}
	}
}

// The parallel path must agree with the serial path exactly — tiles only
// split output rows, never the reduction — and must not leak goroutines.
// GOMAXPROCS 4 forces tiling even on a single-core machine.
func TestParallelMatMulExactAndLeakFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randMatZ(rng, 96, 80)
	b := randMatZ(rng, 80, 64) // 96·80·64 comfortably clears the flops gate

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := MatMul(a, b)

	runtime.GOMAXPROCS(4)
	if p := Parts(a.Rows, a.Rows*a.Cols*b.Cols, parallelMinFlops); p != 4 {
		t.Fatalf("the product is cut into %d parts at GOMAXPROCS 4, want 4", p)
	}
	warm := MatMul(a, b) // first call may start the pool
	if d := MaxAbsDiff(serial, warm); d != 0 {
		t.Fatalf("parallel result differs from serial by %g", d)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		got := MatMul(a, b)
		if d := MaxAbsDiff(serial, got); d != 0 {
			t.Fatalf("parallel run %d differs from serial by %g", i, d)
		}
		MatMulT(a, New(64, 80).FillRand(rng, 1))
	}
	after := runtime.NumGoroutine()
	if after > before {
		t.Errorf("worker pool leaked goroutines: %d before, %d after", before, after)
	}
}

// coverTask records which part ran each unit of a split.
type coverTask struct{ part []int }

func (c *coverTask) Run(part, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.part[i] = part
	}
}

// Split runs every unit exactly once, in exactly min(parts, units)
// contiguous ranges numbered 0, 1, … in order — a task may index per-part
// scratch by the number — and below two of them in the caller, as part 0,
// whatever GOMAXPROCS is: counts 0 to 3, more than the units and more than
// GOMAXPROCS, at GOMAXPROCS 1 and 4.
func TestSplitCoversEachUnitOnceInNumberedRanges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for units := 0; units <= 11; units++ {
			for _, parts := range []int{0, 1, 2, 3, units + 1, runtime.GOMAXPROCS(0) + 1} {
				c := &coverTask{part: make([]int, units)}
				for i := range c.part {
					c.part[i] = -1
				}
				Split(c, units, parts)
				if want := max(min(parts, units), 1); !numberedInOrder(c.part, want) {
					t.Fatalf("GOMAXPROCS %d, %d units, %d parts: parts %v, want every unit once in %d ranges numbered in order", procs, units, parts, c.part, want)
				}
			}
		}
	}
}

// Parts decides every split: 1, the caller's goroutine, below the work's
// break-even or for a single unit, and min(GOMAXPROCS, units) otherwise.
func TestParts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, c := range []struct{ units, flops, minFlops, want int }{
		{8, 99, 100, 1},  // below the threshold
		{0, 100, 100, 1}, // no unit
		{1, 1e9, 100, 1}, // a single unit
		{2, 100, 100, 2}, // at the threshold
		{8, 1e9, 100, 3}, // GOMAXPROCS bounds
		{2, 1e9, 0, 2},   // the units bound
		{5, 0, 0, 3},     // no threshold at all
		{8, 100, 1e9, 1}, // far below
	} {
		if got := Parts(c.units, c.flops, c.minFlops); got != c.want {
			t.Errorf("Parts(%d, %d, %d) = %d at GOMAXPROCS 3, want %d", c.units, c.flops, c.minFlops, got, c.want)
		}
	}
}

// Fully masked softmax rows (all -Inf) must become zero rows, not NaNs —
// the edge a fully-masked attention query produces.
func TestSoftmaxRowsFullyMaskedRowIsZero(t *testing.T) {
	inf := float32(math.Inf(-1))
	a := FromSlice([]float32{
		inf, inf, inf,
		1, 2, inf,
	}, 2, 3)
	SoftmaxRows(a)
	for j, v := range a.Row(0) {
		if v != 0 {
			t.Errorf("masked row[%d] = %g, want 0", j, v)
		}
	}
	var sum float32
	for _, v := range a.Row(1) {
		if math.IsNaN(float64(v)) {
			t.Fatal("partially masked row went NaN")
		}
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Errorf("partially masked row sums to %g", sum)
	}
}

// Arena: same request sequence reuses the same buffers with zero
// allocations; growing a slot replaces only that buffer.
func TestArenaReusesSteadyState(t *testing.T) {
	var ar Arena
	shapes := [][2]int{{4, 8}, {1, 3}, {16, 16}}
	warm := func() []*Mat {
		ar.Reset()
		out := make([]*Mat, len(shapes))
		for i, s := range shapes {
			out[i] = ar.Mat(s[0], s[1])
		}
		return out
	}
	first := warm()
	second := warm()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("slot %d not reused across cycles", i)
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		ar.Reset()
		for _, s := range shapes {
			ar.Mat(s[0], s[1])
		}
	}); avg != 0 {
		t.Errorf("steady-state arena cycle allocates %v times", avg)
	}
	// Growth: a bigger first request replaces slot 0, leaves slot 1 alone.
	ar.Reset()
	grown := ar.Mat(32, 32)
	if len(grown.Data) != 32*32 {
		t.Fatalf("grown mat has %d elements", len(grown.Data))
	}
	if ar.Mat(1, 3) != first[1] {
		t.Error("growth of slot 0 disturbed slot 1")
	}
}

func TestRowsViewSharesStorage(t *testing.T) {
	a := New(4, 3)
	v := RowsView(a, 1, 3)
	if v.Rows != 2 || v.Cols != 3 {
		t.Fatalf("view shape %dx%d", v.Rows, v.Cols)
	}
	v.Set(0, 0, 42)
	if a.At(1, 0) != 42 {
		t.Error("view does not alias parent storage")
	}
	if avg := testing.AllocsPerRun(100, func() {
		w := RowsView(a, 0, 2)
		_ = w.Rows
	}); avg != 0 {
		t.Errorf("RowsView allocates %v times", avg)
	}
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randMatZ(rng, 6, 10)
	b := randMatZ(rng, 6, 10)

	dst := New(1, 1)
	if d := MaxAbsDiff(MulInto(dst, a, b), Mul(a, b)); d != 0 {
		t.Errorf("MulInto differs by %g", d)
	}
	tr := TransposeInto(New(1, 1), a)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if tr.At(j, i) != a.At(i, j) {
				t.Fatalf("TransposeInto [%d,%d] = %g, want %g", j, i, tr.At(j, i), a.At(i, j))
			}
		}
	}
	if d := MaxAbsDiff(CopyInto(New(1, 1), a), a); d != 0 {
		t.Errorf("CopyInto differs by %g", d)
	}
	// SiLUFast tracks SiLU within a couple of ulps.
	f1, f2 := a.Clone(), a.Clone()
	SiLU(f1)
	SiLUFast(f2)
	for i := range f1.Data {
		d := math.Abs(float64(f1.Data[i] - f2.Data[i]))
		if d > 1e-6*math.Max(1, math.Abs(float64(f1.Data[i]))) {
			t.Fatalf("SiLUFast diverges at %d: %g vs %g", i, f2.Data[i], f1.Data[i])
		}
	}
}

func TestReshapeReusesCapacity(t *testing.T) {
	m := New(4, 4)
	data := &m.Data[0]
	m.Reshape(2, 8)
	if &m.Data[0] != data {
		t.Error("reshape within capacity reallocated")
	}
	if m.Rows != 2 || m.Cols != 8 {
		t.Errorf("shape %dx%d after reshape", m.Rows, m.Cols)
	}
	m.Reshape(8, 8)
	if len(m.Data) != 64 {
		t.Errorf("grown reshape has %d elements", len(m.Data))
	}
}
