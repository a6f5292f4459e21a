// Command benchpairs measures a speed claim the way this repository settles
// one: alternating runs of a parent revision's end-to-end benchmark and the
// working tree's, on fresh seeds, compared pair by pair.
//
//	benchpairs -parent HEAD~1 -workload chat_mesh8 -pairs 10
//	make bench-pairs PARENT=HEAD~1 WORKLOAD=chat_mesh8 PAIRS=10
//
// It exports the parent revision with `git archive` into
// .bench_build/parent-<commit>/ (no worktree is registered, so there is
// nothing to prune afterwards) and runs that tree's bench/run.sh and the
// working tree's in turn, each run `-workload W -seed N -trace 0` at the
// benchmark's own run length. run.sh builds its tree's bench before it
// starts timing, from that tree's build cache, so after the first run of a
// side the build is a no-op. Both sides of the i-th pair (from 0) run seed
// -seed plus i, and the side that goes first alternates from pair to pair
// so that drift of the machine falls on both equally.
//
// It prints every run, each side's median and quartiles, and the number of
// pairs the change won, then checks the claim rule: the change must be
// better on at least nine in ten of ten or more pairs, and its median better
// than the parent's by more than the parent's interquartile range. Which
// direction is better comes from the working tree's BENCHMARK.json. With
// -log FILE every run's
// full report (every metric, the counters, the token hash) is kept, one
// JSON line each. The exit status is 1 when the rule does not hold, 2 on an
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// report is the part of a bench run's first output line that a pair reads.
type report struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	TokensSHA256   string `json:"tokens_sha256"`
	RequestsFailed int    `json:"requests_failed"`
}

// summary is one side's median and quartiles, linearly interpolated between
// ranks as bench reports them.
type summary struct{ q1, median, q3 float64 }

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	return summary{q(0.25), q(0.5), q(0.75)}
}

// verdict is the claim rule applied to paired runs.
type verdict struct {
	wins, pairs    int
	parent, change summary
	// gap is how much better the change's median is than the parent's, in
	// the metric's unit (negative when it is worse).
	gap   float64
	holds bool
}

// minPairs and winShare are the claim rule: ten or more pairs, the change
// better on at least nine in ten of them.
const (
	minPairs = 10
	winShare = 0.9
)

// better reports whether reading a beats reading b.
func better(a, b float64, lowerBetter bool) bool {
	if lowerBetter {
		return a < b
	}
	return a > b
}

// judge applies the claim rule to parent[i], change[i] pairs of one metric.
func judge(parent, change []float64, lowerBetter bool) verdict {
	v := verdict{pairs: len(parent)}
	if v.pairs == 0 {
		return v
	}
	for i := range parent {
		if better(change[i], parent[i], lowerBetter) {
			v.wins++
		}
	}
	v.parent, v.change = summarize(parent), summarize(change)
	v.gap = v.change.median - v.parent.median
	if lowerBetter {
		v.gap = -v.gap
	}
	v.holds = v.pairs >= minPairs && float64(v.wins) >= winShare*float64(v.pairs) &&
		v.gap > v.parent.q3-v.parent.q1
	return v
}

// lowerIsBetter looks the metric up in BENCHMARK.json's metric lists.
func lowerIsBetter(benchmarkJSON, metric string) (bool, error) {
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return false, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if m.Name == metric {
			return m.Better == "lower", nil
		}
	}
	return false, fmt.Errorf("%s names no metric %q", benchmarkJSON, metric)
}

// run executes a command in dir, passing its stderr through, and returns
// its stdout.
func run(dir string, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return out, nil
}

// exportParent exports rev into .bench_build/parent-<commit>/ (once) and
// returns that directory.
func exportParent(rev string) (string, error) {
	out, err := run(".", "git", "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return "", err
	}
	commit := strings.TrimSpace(string(out))
	dir := filepath.Join(".bench_build", "parent-"+commit)
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp" // what an interrupted export left behind goes
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", commit)
	untar := exec.Command("tar", "-x", "-C", tmp)
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return "", err
	}
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %w", commit, err)
	}
	if err := untar.Wait(); err != nil {
		return "", fmt.Errorf("tar: %w", err)
	}
	return dir, os.Rename(tmp, dir)
}

// reading is one run's value of the claimed metric, its token hash, and
// its whole report line.
type reading struct {
	value  float64
	tokens string
	raw    json.RawMessage
}

// measure runs one tree's bench/run.sh on one seed.
func measure(tree, workload string, seed int64, metric string) (reading, error) {
	script := filepath.Join(tree, "bench", "run.sh")
	out, err := run(".", "bash", script, "-workload", workload, "-seed", fmt.Sprint(seed), "-trace", "0")
	if err != nil {
		return reading{}, err
	}
	line, _, _ := strings.Cut(string(out), "\n")
	var r report
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return reading{}, fmt.Errorf("%s: %w", script, err)
	}
	m, ok := r.Metrics[metric]
	if !ok {
		return reading{}, fmt.Errorf("%s reports no metric %q", script, metric)
	}
	if r.RequestsFailed != 0 {
		return reading{}, fmt.Errorf("%s: %d requests failed on seed %d", script, r.RequestsFailed, seed)
	}
	return reading{m.Value, r.TokensSHA256, json.RawMessage(line)}, nil
}

func main() {
	parentRev := flag.String("parent", "", "the parent revision to compare the working tree against")
	workload := flag.String("workload", "", "the bench workload to run")
	pairs := flag.Int("pairs", minPairs, "how many parent/change pairs to run")
	seed := flag.Int64("seed", 1, "the first pair's seed; pair i uses seed+i")
	metric := flag.String("metric", "itl_ms_p50", "the metric the claim is about")
	logPath := flag.String("log", "", "if set, write every run's full report here, one JSON line each: {pair, seed, side, report}")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(2)
	}
	if *parentRev == "" || *workload == "" || *pairs < 1 {
		fail(fmt.Errorf("-parent, -workload and a positive -pairs are required"))
	}
	lower, err := lowerIsBetter("BENCHMARK.json", *metric)
	if err != nil {
		fail(err)
	}
	// Side 0 is the parent, side 1 the change.
	var trees [2]string
	if trees[0], err = exportParent(*parentRev); err != nil {
		fail(err)
	}
	trees[1] = "."
	var logFile *os.File
	var log *json.Encoder
	if *logPath != "" {
		if logFile, err = os.Create(*logPath); err != nil {
			fail(err)
		}
		log = json.NewEncoder(logFile)
	}

	var parent, change []float64
	sides := [2]string{"parent", "change"}
	fmt.Printf("%-4s  %-6s  %-6s  %10s  %10s  %-5s  %s\n", "pair", "seed", "first", "parent", "change", "win", "tokens")
	for i := 0; i < *pairs; i++ {
		s := *seed + int64(i)
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		var got [2]reading
		for _, side := range order {
			if got[side], err = measure(trees[side], *workload, s, *metric); err != nil {
				fail(err)
			}
			if log != nil {
				entry := struct {
					Pair   int             `json:"pair"`
					Seed   int64           `json:"seed"`
					Side   string          `json:"side"`
					Report json.RawMessage `json:"report"`
				}{i + 1, s, sides[side], got[side].raw}
				if err := log.Encode(entry); err != nil {
					fail(err)
				}
			}
		}
		parent, change = append(parent, got[0].value), append(change, got[1].value)
		tokens := "equal"
		if got[0].tokens != got[1].tokens {
			tokens = "DIFFER"
		}
		fmt.Printf("%-4d  %-6d  %-6s  %10.4g  %10.4g  %-5v  %s\n",
			i+1, s, sides[order[0]], got[0].value, got[1].value, better(got[1].value, got[0].value, lower), tokens)
	}
	if logFile != nil {
		if err := logFile.Close(); err != nil {
			fail(err)
		}
	}

	v := judge(parent, change, lower)
	for _, side := range []struct {
		name string
		s    summary
	}{{"parent", v.parent}, {"change", v.change}} {
		fmt.Printf("%s %s: median %.4g, q1 %.4g, q3 %.4g\n", side.name, *metric, side.s.median, side.s.q1, side.s.q3)
	}
	fmt.Printf("change wins %d of %d pairs; median better by %.4g, parent IQR %.4g\n",
		v.wins, v.pairs, v.gap, v.parent.q3-v.parent.q1)
	if !v.holds {
		fmt.Printf("claim does not hold: needs %d or more pairs, wins on %.0f%% of them, and a median gap wider than the parent's IQR\n",
			minPairs, 100*winShare)
		os.Exit(1)
	}
	fmt.Println("claim holds")
}
