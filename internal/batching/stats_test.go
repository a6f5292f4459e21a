package batching

import (
	"math"
	"testing"
)

// The percentile helper is shared by request-latency stats, the fleet's
// RecoveryP99, and the autoscaler's per-tick backlog percentiles — so its
// edge handling is pinned by table, not by whichever caller trips first.
func TestPercentileTable(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 0.99, 0},
		{"empty-zero-p", []float64{}, 0, 0},
		{"single", []float64{7}, 0.99, 7},
		{"single-p0", []float64{7}, 0, 7},
		{"two-p50", []float64{1, 3}, 0.50, 1},
		// floor(0.99 × 1) = 0: the scheme floors, it does not round up.
		{"two-p99", []float64{1, 3}, 0.99, 1},
		{"unsorted", []float64{9, 1, 5}, 0.50, 5},
		{"p0-is-min", []float64{4, 2, 8}, 0, 2},
		{"p1-is-max", []float64{4, 2, 8}, 1, 8},
		{"clamp-low", []float64{4, 2, 8}, -0.5, 2},
		{"clamp-high", []float64{4, 2, 8}, 1.5, 8},
		{"nearest-rank-floor", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 9},
		{"median-odd", []float64{5, 1, 9, 3, 7}, 0.50, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Percentile(c.xs, c.p); got != c.want {
				t.Errorf("Percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
			}
		})
	}
	if got := Percentile([]float64{1, 2}, math.NaN()); !math.IsNaN(got) {
		t.Errorf("NaN p returned %g, want NaN", got)
	}
	// The input is not mutated: an unsorted caller slice stays unsorted.
	xs := []float64{9, 1, 5}
	Percentile(xs, 0.5)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

// Snapshot prices the backlog the way EstimateFinish does, and stepping
// until idle realizes it: the snapshot's drain estimate must be positive
// exactly when the scheduler is busy, fall as work completes, and hit zero
// once the drain has flushed everything.
func TestSnapshotAndDrainToEmpty(t *testing.T) {
	s, err := NewScheduler(palm540bConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b := s.Snapshot(); b.DrainTime != 0 || b.Pending != 0 || b.Active != 0 {
		t.Fatalf("idle snapshot %+v, want all zero", b)
	}
	reqs := []Request{
		{ID: 0, Arrival: 0, Context: 256, Gen: 32, Slot: -1},
		{ID: 1, Arrival: 0, Context: 512, Gen: 64, Slot: -1},
		{ID: 2, Arrival: 0, Context: 128, Gen: 16, Slot: -1},
	}
	for i := range reqs {
		s.Enqueue(&reqs[i])
	}
	b := s.Snapshot()
	if b.Pending != 3 || b.Active != 0 {
		t.Fatalf("queued snapshot %+v, want 3 pending", b)
	}
	if b.DrainTime <= 0 || b.PrefillWork <= 0 {
		t.Fatalf("queued snapshot prices nothing: %+v", b)
	}
	if b.RemainingTokens != 32+64+16 {
		t.Fatalf("remaining tokens %d, want %d", b.RemainingTokens, 32+64+16)
	}
	s.Step()
	mid := s.Snapshot()
	if mid.DrainTime <= 0 || mid.DrainTime >= b.DrainTime {
		t.Errorf("after one step drain %.4f, want in (0, %.4f)", mid.DrainTime, b.DrainTime)
	}
	// The straggler slowdown stretches the estimate like it stretches steps.
	s.SetSlowdown(3)
	slow := s.Snapshot()
	if slow.DrainTime <= 2*mid.DrainTime {
		t.Errorf("3x slowdown drain %.4f, want > 2x of %.4f", slow.DrainTime, mid.DrainTime)
	}
	s.SetSlowdown(1)
	pre := completedBefore(reqs)
	var done []*Request
	for s.Busy() {
		_, d := s.Step()
		done = append(done, d...)
	}
	if len(done)+pre != 3 {
		t.Fatalf("drain-to-empty finished %d + %d already done, want 3 total", len(done), pre)
	}
	if s.Busy() {
		t.Error("scheduler busy after the drain")
	}
	if b := s.Snapshot(); b.DrainTime != 0 || b.RemainingTokens != 0 {
		t.Errorf("drained snapshot %+v, want empty", b)
	}
	for i := range reqs {
		if reqs[i].Done <= 0 {
			t.Errorf("request %d never completed (drain dropped resident KV?)", i)
		}
	}
}

// completedBefore counts requests that already finished before the drain
// ran (the first Step may complete short requests).
func completedBefore(reqs []Request) int {
	n := 0
	for i := range reqs {
		if reqs[i].Done > 0 {
			n++
		}
	}
	return n
}
