package main

import (
	"os"
	"path/filepath"
	"testing"
)

// The claim rule: ten or more pairs, the change better on at least nine in
// ten, and its median better than the parent's by more than the parent's
// interquartile range — in the metric's own direction.
func TestJudge(t *testing.T) {
	parent := []float64{2.2, 2.3, 2.4, 2.5, 2.6, 2.2, 2.3, 2.4, 2.5, 2.6} // median 2.4, IQR 0.2
	shift := func(v []float64, d float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x + d
		}
		return out
	}
	nineWins := shift(parent, -0.3)
	nineWins[4] = parent[4] + 0.1

	cases := []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		wins           int
		holds          bool
	}{
		{"ten wins, gap 0.3 > IQR 0.2", parent, shift(parent, -0.3), true, 10, true},
		{"nine wins of ten", parent, nineWins, true, 9, true},
		{"eight wins of ten", parent, func() []float64 { v := append([]float64(nil), nineWins...); v[0] = 9; return v }(), true, 8, false},
		{"ten wins, gap 0.1 inside IQR 0.2", parent, shift(parent, -0.1), true, 10, false},
		{"higher is better", parent, shift(parent, 0.3), false, 10, true},
		{"a drop when higher is better", parent, shift(parent, -0.3), false, 0, false},
		{"too few pairs", parent[:9], shift(parent[:9], -1), true, 9, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := judge(tc.parent, tc.change, tc.lowerBetter)
			if v.wins != tc.wins || v.holds != tc.holds {
				t.Errorf("wins %d, holds %v; want %d, %v (gap %g, parent %+v)", v.wins, v.holds, tc.wins, tc.holds, v.gap, v.parent)
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s != (summary{q1: 2, median: 3, q3: 4}) {
		t.Errorf("summarize = %+v, want q1 2, median 3, q3 4", s)
	}
	if s := summarize([]float64{1, 2}); s.median != 1.5 || s.q1 != 1.25 || s.q3 != 1.75 {
		t.Errorf("summarize of two = %+v, want interpolated 1.25/1.5/1.75", s)
	}
}

func TestLowerIsBetter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	spec := `{"end_to_end": [{"name": "itl_ms_p50", "better": "lower"}, {"name": "out_tokens_per_s", "better": "higher"}],
	"per_layer": [{"name": "mesh.overlap_frac", "better": "higher"}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for metric, want := range map[string]bool{"itl_ms_p50": true, "out_tokens_per_s": false, "mesh.overlap_frac": false} {
		if got, err := lowerIsBetter(path, metric); err != nil || got != want {
			t.Errorf("%s: lowerIsBetter = %v, %v; want %v", metric, got, err, want)
		}
	}
	if _, err := lowerIsBetter(path, "no_such_metric"); err == nil {
		t.Error("an undeclared metric must be an error")
	}
}
