package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tiny shrinks a workload to test size: same code paths, a fraction of the
// tokens.
func (s spec) tiny() spec {
	div := func(n int) int {
		if n == 0 {
			return 0
		}
		n = n / 8 / 4 * 4
		if n < 4 {
			n = 4
		}
		return n
	}
	s.requests = 2 * s.slots
	s.outMin, s.outMax = 3, 6
	s.tailMin, s.tailMax = div(s.tailMin), div(s.tailMax)
	s.tmplMin, s.tmplMax = div(s.tmplMin), div(s.tmplMax)
	s.coldLen, s.chunk = div(s.coldLen), div(s.chunk)
	return s
}

func tinyRun(t *testing.T, w spec, seed int64) *report {
	t.Helper()
	rep, err := run(w.tiny(), runOpts{seed: seed, reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RequestsFailed != 0 || rep.RequestsOK != rep.RequestsSent || rep.RequestsSent == 0 {
		t.Fatalf("seed %d: sent %d ok %d failed %d", seed, rep.RequestsSent, rep.RequestsOK, rep.RequestsFailed)
	}
	return rep
}

// Every workload, shrunk: tokens equal the oracle (run fails requests that
// differ), the same seed reproduces tokens and counters exactly, another
// seed gives other tokens and still passes, and every end-to-end metric is
// reported and non-zero.
func TestWorkloadsMatchOracleAndRepeat(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			a, b, c := tinyRun(t, w, 1), tinyRun(t, w, 1), tinyRun(t, w, 2)
			if a.TokensSHA256 != b.TokensSHA256 {
				t.Errorf("same seed, tokens %s then %s", a.TokensSHA256, b.TokensSHA256)
			}
			if !reflect.DeepEqual(a.Counters, b.Counters) {
				t.Errorf("same seed, counters %v then %v", a.Counters, b.Counters)
			}
			if a.TokensSHA256 == c.TokensSHA256 {
				t.Errorf("seeds 1 and 2 produced the same tokens")
			}
			if !reflect.DeepEqual(a.Counters, c.Counters) {
				t.Errorf("seed changed the amount of work: %v then %v", a.Counters, c.Counters)
			}
			for _, e := range endToEnd {
				m, ok := a.Metrics[e.name]
				if !ok || m.Value <= 0 || m.Unit != e.unit {
					t.Errorf("metric %s: %+v", e.name, m)
				}
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(a.Metrics), len(endToEnd))
			}
		})
	}
}

// Every full-size repetition must give the percentiles enough samples, and
// every run enough repetitions; run enforces both, this shows the request
// lists as generated meet them with no run at all.
func TestWorkloadsMeetSampleFloors(t *testing.T) {
	for _, w := range workloads {
		ttft, itl := 0, 0
		for _, r := range w.generate(1).requests {
			ttft++
			itl += r.out - 1
		}
		if ttft < minTTFT || itl < minITL {
			t.Errorf("%s: %d TTFT and %d ITL samples per repetition, want at least %d and %d", w.name, ttft, itl, minTTFT, minITL)
		}
		want := 30
		if w.name == "longctx_int8kv" {
			want = 15
		}
		if w.minReps < want {
			t.Errorf("%s: at least %d repetitions, want %d", w.name, w.minReps, want)
		}
		if w.setups < 3 || w.setups > w.minReps {
			t.Errorf("%s: %d set-ups, want 3 to %d so that they spread over the repetitions", w.name, w.setups, w.minReps)
		}
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json and the program must name the same workloads and metrics:
// the driver looks each name up in the program's output.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(gated()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the program", len(bf.Workloads), len(gated()))
	}
	for i, w := range gated() {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		better := "higher"
		if e.lower {
			better = "lower"
		}
		got := bf.EndToEnd[i]
		if got.Name != e.name || got.Unit != e.unit || got.Better != better || got.Bound != e.bound {
			t.Errorf("end-to-end metric %d: %+v, program has %+v", i, got, e)
		}
	}

	w, _ := findWorkload("shared_prefix_mix")
	rep, err := run(w.tiny(), runOpts{seed: 1, traced: true, traceOut: filepath.Join(t.TempDir(), "trace.json")})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, p := range bf.PerLayer {
		want[p.Name] = p.Unit
		if p.Better != "lower" && p.Better != "higher" {
			t.Errorf("per-layer metric %s: better = %q", p.Name, p.Better)
		}
	}
	got := map[string]string{}
	for name, m := range rep.Metrics {
		got[name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics differ:\nprogram: %v\nBENCHMARK.json: %v", sortedKeys(got), sortedKeys(want))
	}
}

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k, u := range m {
		ks = append(ks, k+" "+u)
	}
	sort.Strings(ks)
	return ks
}

// oneChip returns a small single-chip server with its oracle filled in. A
// panic inside a single-chip pass unwinds the caller's goroutine and leaves
// no half-run peers, so it is where recovery can be promised.
func oneChip(t *testing.T) *server {
	t.Helper()
	w, _ := findWorkload("prefill_1chip")
	w = w.tiny()
	sv, err := newServer(w, w.generate(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.oracle(sv.w, sv.reqs); err != nil {
		t.Fatal(err)
	}
	return sv
}

func TestWrongTokenFailsItsRequest(t *testing.T) {
	sv := oneChip(t)
	sv.reqs[3].expect[1] ^= 1
	st := sv.repetition()
	if st.failed != 1 || st.ok != len(sv.reqs)-1 || st.sent != len(sv.reqs) {
		t.Errorf("sent %d ok %d failed %d, want one failure", st.sent, st.ok, st.failed)
	}
}

func TestOverCapacityPromptFailsAlone(t *testing.T) {
	sv := oneChip(t)
	good := sv.reqs[2].prompt
	sv.reqs[2].prompt = make([]int, sv.spec.maxLen()+1)
	st := sv.repetition()
	if st.failed != 1 || st.ok != len(sv.reqs)-1 {
		t.Fatalf("sent %d ok %d failed %d, want one failure", st.sent, st.ok, st.failed)
	}
	// The slot was released and the engine still serves: a clean
	// repetition passes.
	sv.reqs[2].prompt = good
	if st = sv.repetition(); st.failed != 0 || st.ok != len(sv.reqs) {
		t.Errorf("after recovery: ok %d failed %d", st.ok, st.failed)
	}
}

func TestFailedRunPrintsThenExitsNonZero(t *testing.T) {
	rep := &report{Workload: "x", RequestsSent: 3, RequestsOK: 2, RequestsFailed: 1,
		Metrics: map[string]metric{"ttft_ms_p50": {Value: 1, Unit: "ms"}}}
	var out bytes.Buffer
	if code := printReport(&out, rep); code == 0 {
		t.Errorf("exit code 0 for a run with a failed request")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Correct || sum.Failed != 1 || sum.Attempted != 3 {
		t.Errorf("summary %+v", sum)
	}
}

// Spans must form a forest rooted at repetitions, children inside parents
// and not overlapping, and a repetition's self times must add up to the
// wall time the untraced clock measured for it.
func TestTraceSpansNestAndAddUp(t *testing.T) {
	for _, name := range []string{"chat_mesh8", "shared_prefix_mix"} {
		w, _ := findWorkload(name)
		w = w.tiny()
		sv, err := newServer(w, w.generate(1))
		if err != nil {
			t.Fatal(err)
		}
		sv.tr = newTracer()
		var walls []float64
		for i := 0; i < 3; i++ {
			walls = append(walls, ms(sv.repetition().wall))
		}
		self := sv.tr.selfTimes()
		root := make([]spanID, len(sv.tr.spans)) // each span's repetition
		perRoot := map[spanID]float64{}
		var roots []spanID
		for i, s := range sv.tr.spans {
			id := spanID(i)
			if s.end < s.start {
				t.Fatalf("%s: span %d %s ends before it starts", name, i, s.name)
			}
			if self[i] < 0 {
				t.Errorf("%s: span %d %s has negative self time: children overlap", name, i, s.name)
			}
			if s.parent == noSpan {
				if s.name != "repetition" {
					t.Errorf("%s: span %d %s has no parent", name, i, s.name)
				}
				root[i] = id
				roots = append(roots, id)
			} else {
				p := sv.tr.spans[s.parent]
				if s.parent >= id || s.start < p.start || s.end > p.end {
					t.Errorf("%s: span %d %s [%v,%v] not inside parent %s [%v,%v]", name, i, s.name, s.start, s.end, p.name, p.start, p.end)
				}
				root[i] = root[s.parent]
			}
			perRoot[root[i]] += ms(self[i])
		}
		if len(roots) != len(walls) {
			t.Fatalf("%s: %d repetition roots for %d repetitions", name, len(roots), len(walls))
		}
		for i, r := range roots {
			if d := perRoot[r]/walls[i] - 1; d > 0.02 || d < -0.02 {
				t.Errorf("%s: repetition %d self times sum to %.3f ms, wall %.3f ms", name, i, perRoot[r], walls[i])
			}
		}
	}
}

func TestTraceOverheadIsSmall(t *testing.T) {
	w, _ := findWorkload("chat_mesh8")
	w = w.tiny()
	sv, err := newServer(w, w.generate(1))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sv.tracePairs(&report{}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if pr.overhead > 0.05 {
		t.Errorf("tracing costs %.1f%% of throughput, want at most 5%%", 100*pr.overhead)
	}
}
