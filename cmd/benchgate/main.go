// Command benchgate is the regression gate on the benchmark trajectory: it
// compares gated benchmarks between two BENCH_ci.json documents (the
// committed baseline and a freshly generated run) and exits nonzero if any
// gated benchmark's allocs/op grew.
//
//	benchgate -baseline BENCH_baseline.json -new BENCH_ci.json \
//	    -bench BenchmarkEngineDecodeStep,BenchmarkContinuousBatching
//
// CI runs it after regenerating BENCH_ci.json (see .github/workflows/ci.yml)
// and `make bench-compare` mirrors it locally. It gates allocs/op because
// that number is machine-independent and deterministic: a zero baseline
// must stay exactly zero, and a non-zero one may not rise by more than
// maxAllocRegressPct. ns/op is printed beside it for information and never
// fails the gate — one sample per name on a runner whose own speed drifts
// ±15% from hour to hour (bench/README.md) cannot tell a regression from
// the weather; timing claims are made with bench/'s repeated, alternating
// runs. A gated benchmark missing from either file, or recorded without
// allocs/op, is an error — silently skipping a renamed benchmark would make
// the gate vacuous.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// Benchmark mirrors cmd/benchjson's output schema (the fields the gate
// reads).
type Benchmark struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	// Values is the fallback for baselines written before the hoisted
	// fields existed.
	Values map[string]float64 `json:"values"`
}

type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

func (b Benchmark) ns() float64 {
	if b.NsPerOp > 0 {
		return b.NsPerOp
	}
	return b.Values["ns/op"]
}

// allocs returns allocs/op and whether the run recorded it.
func (b Benchmark) allocs() (float64, bool) {
	if b.AllocsPerOp != nil {
		return *b.AllocsPerOp, true
	}
	v, ok := b.Values["allocs/op"]
	return v, ok
}

// metrics is one benchmark's gated readings.
type metrics struct {
	ns        float64
	allocs    float64
	hasAllocs bool
}

func load(path string) (map[string]metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]metrics, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		m := metrics{ns: b.ns()}
		m.allocs, m.hasAllocs = b.allocs()
		out[b.Name] = m
	}
	return out, nil
}

// maxAllocRegressPct is the slack a non-zero allocs/op baseline gets: the
// multi-chip steps allocate in the Go runtime (goroutines, wait-groups) as
// well as in this repository's code, and that part moves by a few counts
// between toolchains.
const maxAllocRegressPct = 10

// check compares one gated benchmark, returning the report line and whether
// it passes.
func check(name string, b, n metrics) (string, bool) {
	ok := n.allocs <= b.allocs*(1+maxAllocRegressPct/100.0)
	status := "ok"
	if !ok {
		status = "REGRESSED"
	}
	return fmt.Sprintf("%-40s %10.0f -> %10.0f allocs/op  %-9s  (%.0f -> %.0f ns/op, not gated)",
		name, b.allocs, n.allocs, status, b.ns, n.ns), ok
}

func main() {
	baselinePath := flag.String("baseline", "", "committed BENCH_ci.json to compare against")
	newPath := flag.String("new", "", "freshly generated BENCH_ci.json")
	benches := flag.String("bench", "BenchmarkEngineDecodeStep,BenchmarkContinuousBatching",
		"comma-separated benchmark names to gate")
	flag.Parse()
	if *baselinePath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -new are required")
		os.Exit(2)
	}

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fresh, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	failed := false
	for _, name := range strings.Split(*benches, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, okB := base[name]
		n, okN := fresh[name]
		if !okB || !okN || !b.hasAllocs || !n.hasAllocs {
			fmt.Fprintf(os.Stderr, "benchgate: %s missing or without allocs/op (baseline: %v, new: %v)\n",
				name, okB && b.hasAllocs, okN && n.hasAllocs)
			failed = true
			continue
		}
		line, ok := check(name, b, n)
		fmt.Println(line)
		failed = failed || !ok
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchgate: allocs/op gate failed")
		os.Exit(1)
	}
}
