package main

import (
	"fmt"
	"runtime"
	"time"

	"esti/internal/reference"
	"esti/internal/simd"
)

type runOpts struct {
	seed    int64
	seconds float64
	// reps > 0 is a quick look: exactly this many timed repetitions, and
	// neither the repetition floor nor the sample floors apply.
	reps     int
	traced   bool
	traceOut string
}

const (
	warmups = 2 // discarded repetitions before timing starts
	// A repetition must yield this many samples of each latency, so that a
	// median of TTFT is of at least 20 and p95 of ITL has at least 10
	// samples beyond it.
	minTTFT = 20
	minITL  = 200
)

// metric is one reported number. For a timing measured once per repetition
// (or once per set-up) Value is the median across them, Q1 and Q3 their
// quartiles and N how many there were.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// report is everything one run of one workload prints.
type report struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Reps           int     `json:"reps"`
	Metrics        metrics `json:"metrics"`
	RequestsSent   int     `json:"requests_sent"`
	RequestsOK     int     `json:"requests_ok"`
	RequestsFailed int     `json:"requests_failed"`
	TokensSHA256   string  `json:"tokens_sha256"`
	// Counters are the last repetition's exact counts: the same seed, and
	// for these workloads any seed, must reproduce them.
	Counters counters          `json:"counters"`
	Env      map[string]string `json:"env"`
}

// summary is the line the benchmark driver reads.
type summary struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r *report) summary() summary {
	m := make(metrics, len(r.Metrics))
	for k, v := range r.Metrics {
		m[k] = metric{Value: v.Value, Unit: v.Unit}
	}
	return summary{Correct: r.RequestsFailed == 0, Attempted: r.RequestsSent, Failed: r.RequestsFailed, Metrics: m}
}

func (r *report) count(st repStats) {
	r.RequestsSent += st.sent
	r.RequestsOK += st.ok
	r.RequestsFailed += st.failed
	r.TokensSHA256 = st.hash
	r.Counters = st.counters()
}

// metrics are a run's reported numbers by name.
type metrics map[string]metric

// put records a single measured value.
func (m metrics) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// across summarises one value per repetition (or per set-up) as a metric.
func across(values []float64, unit string) metric {
	v := sortedCopy(values)
	return metric{Value: quantile(v, 0.5), Unit: unit, Q1: quantile(v, 0.25), Q3: quantile(v, 0.75), N: len(v)}
}

// run executes one workload: oracle (untimed), set-up (timed), warm-up,
// then timed repetitions of the same request list until opt.seconds have
// passed and the workload's repetition floor is met.
func run(s spec, opt runOpts) (*report, error) {
	tr := s.generate(opt.seed)

	rep := &report{
		Workload: s.name, Seed: opt.seed, Metrics: metrics{},
		Env: map[string]string{
			"simd": simd.Kind(), "go": runtime.Version(),
			"nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		},
	}
	// Correctness, untimed: expected tokens from the batch-1 oracle where
	// one exists, else from the second warm-up repetition (below); then
	// the reference model's opinion of them where it has one.
	t0 := time.Now()
	if s.exact() {
		if err := s.oracle(reference.NewWeights(s.cfg, weightSeed), tr.requests); err != nil {
			return nil, err
		}
	}
	oracle := time.Since(t0)

	// Set-up, timed: the stack is built cold s.setups times, the first to
	// serve the run and the rest, thrown away, between repetitions — spread
	// over the run like every other measurement, because builds taken back
	// to back within one second all see the same second of the machine.
	var setupS []float64
	build := func() (*server, error) {
		runtime.GC()
		t0 := time.Now()
		sv, err := newServer(s, tr)
		setupS = append(setupS, time.Since(t0).Seconds())
		return sv, err
	}
	sv, err := build()
	if err != nil {
		return nil, err
	}

	for i := 0; i < warmups; i++ {
		rep.count(sv.repetition())
	}
	if !s.exact() {
		sv.adoptExpected()
	}
	t0 = time.Now()
	if tol := s.refTolerance(); tol > 0 {
		if err := checkReference(sv.w, s.maxLen(), sv.reqs, tol); err != nil {
			return nil, fmt.Errorf("workload %s: %w", s.name, err)
		}
	}
	oracleS := (oracle + time.Since(t0)).Seconds()

	if opt.traced {
		return rep, sv.tracedRun(rep, opt, oracleS)
	}

	var ttft, itl50, tokS, cpuK, heap []float64
	var mem runtime.MemStats
	begin := time.Now()
	more := func(n int) bool {
		if opt.reps > 0 {
			return n < opt.reps
		}
		return n < s.minReps || time.Since(begin).Seconds() < opt.seconds
	}
	for n := 0; more(n); n++ {
		if n > 0 && n%(s.minReps/s.setups) == 0 && len(setupS) < s.setups {
			if _, err := build(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&mem)
		heap = append(heap, float64(mem.HeapAlloc)/(1<<20))
		st := sv.repetition()
		rep.count(st)
		if opt.reps == 0 && (len(st.ttftMS) < minTTFT || len(st.itlMS) < minITL) {
			return nil, fmt.Errorf("workload %s: repetition %d gave %d TTFT and %d ITL samples, want at least %d and %d",
				s.name, n, len(st.ttftMS), len(st.itlMS), minTTFT, minITL)
		}
		ttft = append(ttft, percentile(st.ttftMS, 0.5))
		itl50 = append(itl50, percentile(st.itlMS, 0.5))
		tokS = append(tokS, float64(st.tokens)/st.wall.Seconds())
		cpuK = append(cpuK, st.cpu.Seconds()/float64(st.tokens)*1000)
	}
	rep.Reps = len(tokS)
	rep.Metrics["setup_s"] = across(setupS, "s")
	rep.Metrics["ttft_ms_p50"] = across(ttft, "ms")
	rep.Metrics["itl_ms_p50"] = across(itl50, "ms")
	rep.Metrics["out_tokens_per_s"] = across(tokS, "1/s")
	rep.Metrics["cpu_s_per_ktok"] = across(cpuK, "s")
	// The largest, not the median: memory is a ceiling.
	rep.Metrics["live_heap_mb"] = metric{Value: maxOf(heap), Unit: "MiB", N: len(heap)}
	return rep, nil
}
