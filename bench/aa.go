package main

import (
	"fmt"
	"math"
	"os"
)

// endToEnd is the benchmark's contract with its users, repeated in
// BENCHMARK.json (a test keeps the two equal): what is reported, which
// direction is better, and by what share of the parent's median a change
// may worsen it. Every timing has the widest bound the driver allows,
// because the spread between ten runs of one commit on the runner is 3 % in
// a calm hour and up to 24 % in a stormy one (README.md, Noise); memory
// repeats to a thousandth.
var endToEnd = []struct {
	name, unit string
	lower      bool // lower is better
	bound      float64
}{
	{"setup_s", "s", true, 0.25},
	{"ttft_ms_p50", "ms", true, 0.25},
	{"itl_ms_p50", "ms", true, 0.25},
	{"out_tokens_per_s", "1/s", false, 0.25},
	{"cpu_s_per_ktok", "s", true, 0.25},
	{"live_heap_mb", "MiB", true, 0.05},
}

// runAA checks the benchmark against itself: two sets of n runs of every
// workload of BENCHMARK.json, interleaved A, B, A, B, … on seeds 1..n, must agree on every
// metric within its bound. It prints both medians, how much worse B is than
// A, and each set's (max − min) / median, and returns 1 if the two medians
// of any metric of any workload differ, in either direction, by more than
// the bound: the sets are the same code, so neither is the better one.
func runAA(n int, opt runOpts) int {
	code := 0
	for _, w := range gated() {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for _, set := range sets {
				o := opt
				o.seed = int64(i + 1)
				rep, err := run(w, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				if rep.RequestsFailed > 0 {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d requests failed\n", w.name, o.seed, rep.RequestsFailed)
					code = 1
				}
				for k, v := range rep.Metrics {
					set[k] = append(set[k], v.Value)
				}
			}
		}
		fmt.Printf("%s\n  %-18s %12s %12s %8s %8s %8s %6s\n", w.name, "metric", "median A", "median B", "B worse", "range A", "range B", "bound")
		for _, e := range endToEnd {
			a, b := sortedCopy(sets[0][e.name]), sortedCopy(sets[1][e.name])
			ma, mb := quantile(a, 0.5), quantile(b, 0.5)
			worse := (mb - ma) / ma
			if !e.lower {
				worse = -worse
			}
			verdict := ""
			if math.Abs(ma-mb)/math.Min(ma, mb) > e.bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("  %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n", e.name, ma, mb,
				100*worse, 100*(a[len(a)-1]-a[0])/ma, 100*(b[len(b)-1]-b[0])/mb, 100*e.bound, verdict)
		}
	}
	return code
}
