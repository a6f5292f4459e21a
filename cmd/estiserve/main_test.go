package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"esti/internal/golden"
)

// estiserve runs the command with args and returns its exit status and
// output streams.
func estiserve(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// number extracts the first capture of re from out as a float.
func number(t *testing.T, re, out string) float64 {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no match for %q in:\n%s", re, out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// Numeric flags no run can use are refused with status 2 before any work.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-load", "0"}, {"-overlap", "2"}, {"-no-such-flag"}} {
		code, stdout, stderr := estiserve(t, args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: status %d, stdout %q, stderr %q; want 2, no report, an error", args, code, stdout, stderr)
		}
	}
}

// Unequal tiers replay as a two-pool fleet.
func TestUnequalTierReplay(t *testing.T) {
	code, stdout, stderr := estiserve(t, "-prefill-chips", "32", "-decode-chips", "64", "-requests", "50")
	if code != 0 {
		t.Fatalf("status %d: %s", code, stderr)
	}
	for _, want := range []string{"32-chip prefill", "64-chip decode", "simulated 50 requests", "latency p50/p95/p99", "tier busy"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

// Continuous batching beats the tuned static pipeline on the mixed trace.
func TestContinuousSpeedup(t *testing.T) {
	code, stdout, stderr := estiserve(t, "-continuous", "-requests", "100")
	if code != 0 {
		t.Fatalf("status %d: %s", code, stderr)
	}
	if x := number(t, `static two-tier \(([0-9.]+)x\)`, stdout); x <= 1 {
		t.Errorf("continuous speedup %.2fx, want > 1:\n%s", x, stdout)
	}
}

// -prefix-hit reaches the replay: cached template prefixes shorten the
// prefill tier's batches, so the median request finishes sooner.
func TestPrefixHitShortensReplay(t *testing.T) {
	p50 := func(hit string) float64 {
		code, stdout, stderr := estiserve(t, "-prefix-hit", hit, "-requests", "200")
		if code != 0 {
			t.Fatalf("-prefix-hit %s: status %d: %s", hit, code, stderr)
		}
		return number(t, `simulated [\s\S]*?latency p50/p95/p99: ([0-9.]+)s`, stdout)
	}
	if hot, cold := p50("0.9"), p50("0"); hot >= cold {
		t.Errorf("replay p50 %.2fs at -prefix-hit 0.9, not below %.2fs at 0", hot, cold)
	}
}

// Every estiserve line CI has run, byte for byte: the static pipeline
// replays, the continuous and prefix-cache comparisons, the fleet's routing,
// fault, autoscale and pool runs, and the wire comparison; then each flag
// value that would be misread or would panic, refused with status 2.
func TestGolden(t *testing.T) {
	palm := func(args ...string) []string { return append([]string{"-model", "palm540b"}, args...) }
	golden.Run(t, run, []golden.Case{
		{Name: "replicas", Args: palm("-replicas", "4", "-requests", "200")},
		{Name: "disagg", Args: palm("-replicas", "4", "-disaggregated", "-requests", "200")},
		{Name: "faults", Args: palm("-replicas", "4", "-requests", "200", "-fault-plan", "crash:1@2+4,slow:0@1-3x2.5")},
		{Name: "disagg-faults", Args: palm("-replicas", "4", "-disaggregated", "-requests", "200", "-fault-plan", "link:1-2,drain:0@3")},
		{Name: "autoscale", Args: palm("-replicas", "4", "-autoscale", "-requests", "200", "-load", "1.2", "-fault-plan", "crash:1@2+4")},
		{Name: "disagg-autoscale", Args: palm("-replicas", "4", "-disaggregated", "-autoscale", "-requests", "200", "-load", "1.2", "-fault-plan", "crash:3@1")},
		// The prefill pool's scale-in.
		{Name: "disagg-autoscale-load4", Args: palm("-replicas", "4", "-disaggregated", "-autoscale", "-requests", "400", "-load", "4")},
		{Name: "prefix-cache", Args: palm("-prefix-cache", "-prefill-chunk", "256", "-requests", "200")},
		{Name: "continuous", Args: palm("-continuous", "-requests", "200")},
		{Name: "unequal-tiers", Args: palm("-prefill-chips", "32", "-decode-chips", "64", "-decode-batch", "128", "-requests", "200")},
		{Name: "int8-wire", Args: palm("-int8-wire", "-overlap", "1", "-decode-batch", "8", "-requests", "0")},

		{Name: "bad-prefill-chips", Args: palm("-prefill-chips", "3")},
		{Name: "bad-decode-chips", Args: palm("-decode-chips", "48")},
		{Name: "bad-pool-chips", Args: palm("-prefill-chips", "32", "-continuous")},
		{Name: "bad-context", Args: palm("-context", "0")},
		{Name: "bad-replicas", Args: palm("-replicas", "-2")},
		{Name: "bad-requests", Args: palm("-requests", "-5")},
		{Name: "bad-templates", Args: palm("-templates", "0", "-prefix-cache")},
	})
}
