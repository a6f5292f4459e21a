// Command bench is the repository's end-to-end benchmark: it serves seeded
// request traces on the real engine through a fixed continuous-batching
// loop, checks every token, and reports what a user of the serving stack
// would feel (README.md has the tables and the reasoning).
//
//	go run ./bench -workload chat_mesh8 [-seed N] [-seconds S | -reps R] [-trace 1]
//	go run ./bench -all
//	go run ./bench -aa 5
//
// BENCHMARK.json's command is bench/run.sh, which builds this package into
// .bench_build and runs it with the same flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 38

func main() {
	// The runner class has two cores; pinning makes a larger box measure
	// the same program.
	runtime.GOMAXPROCS(2)

	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the request tokens")
	seconds := flag.Float64("seconds", defaultSeconds, "how long to measure: repetitions run until this much time has passed")
	reps := flag.Int("reps", 0, "quick look: exactly this many timed repetitions instead of -seconds, no floors")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes a Chrome trace")
	traceOut := flag.String("trace-out", "", "where the traced run writes its trace (default .bench_build/trace_<workload>.json)")
	all := flag.Bool("all", false, "run every workload in turn, those BENCHMARK.json leaves out too")
	aa := flag.Int("aa", 0, "A/A check: two interleaved sets of this many runs per workload of BENCHMARK.json, compared against the bounds")
	flag.Parse()

	opt := runOpts{seed: *seed, seconds: *seconds, reps: *reps, traced: *trace != 0, traceOut: *traceOut}
	switch {
	case *aa > 0:
		os.Exit(runAA(*aa, opt))
	case *all:
		code := 0
		for _, w := range workloads {
			if c := runOne(w, opt); c != 0 {
				code = c
			}
		}
		os.Exit(code)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q, want one of %s\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		os.Exit(runOne(w, opt))
	}
}

// runOne runs one workload, prints its report and returns the process exit
// code.
func runOne(w spec, opt runOpts) int {
	rep, err := run(w, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return printReport(os.Stdout, rep)
}

// printReport writes the full report on one line and the driver's summary
// on the next, and returns the exit code: a run with a failed request
// exits non-zero, after printing.
func printReport(w io.Writer, rep *report) int {
	out := json.NewEncoder(w)
	// Encoding these plain structs cannot fail, and a closed stdout has no
	// one left to tell.
	_ = out.Encode(rep)
	_ = out.Encode(rep.summary())
	if rep.RequestsFailed > 0 {
		return 1
	}
	return 0
}
