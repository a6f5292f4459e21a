package serve_test

// Analyze's steady-state predictions, checked against a replay of the same
// two tiers: the paper's pipeline as a 1 + 1 static-batching fleet
// (fleet.Pipeline). The replay's decode replica prices Gen-1 steps (the
// prefill replica produced the first token) and each request's KV crosses
// the interconnect between the tiers, so its latencies sit within a few
// percent of Analyze's.

import (
	"errors"
	"math"
	"testing"

	"esti/internal/batching"
	"esti/internal/fleet"
	"esti/internal/serve"
)

// replay sends n requests of the configured shape, one every interarrival
// seconds, through the pipeline fleet.
func replay(c serve.Config, n int, interarrival float64) (fleet.Result, error) {
	var trace batching.Trace
	for i := 0; i < n; i++ {
		trace.Requests = append(trace.Requests, batching.Request{
			ID: i, Arrival: float64(i) * interarrival, Context: c.Context, Gen: c.Gen})
	}
	return fleet.Simulate(fleet.Pipeline(c), trace)
}

func TestSimulateLightLoad(t *testing.T) {
	c := serve.PaperConfig()
	m, err := serve.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals slower than a full pipeline traversal: each request
	// completes before the next arrives, so latency ≈ MinLatency with no
	// queueing and no batch-formation delay.
	slow := 2 * (m.PrefillService + m.DecodeService)
	res, err := replay(c, 20, slow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 20 {
		t.Fatalf("completed %d", res.Completed)
	}
	if math.Abs(res.MeanLatency-m.MinLatency) > 0.05*m.MinLatency {
		t.Errorf("light-load mean latency %.3fs not within 5%% of min %.3fs", res.MeanLatency, m.MinLatency)
	}
	if res.P99 < res.P50 {
		t.Error("percentiles out of order")
	}
}

func TestSimulateHeavyLoadQueues(t *testing.T) {
	c := serve.PaperConfig()
	m, err := serve.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals 3x faster than sustainable: latency must grow well beyond
	// MinLatency and throughput must cap near the bottleneck rate.
	fast := 1 / (3 * m.Throughput)
	res, err := replay(c, 200, fast)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLatency < 2*m.MinLatency {
		t.Errorf("overloaded mean latency %.2fs should be >> min %.2fs", res.MeanLatency, m.MinLatency)
	}
	if thr := float64(res.Completed) / res.Makespan; thr > m.Throughput*1.15 {
		t.Errorf("simulated throughput %.3f exceeds analytical cap %.3f", thr, m.Throughput)
	}
	if res.P99 < res.MeanLatency {
		t.Errorf("p99 %.2f below mean %.2f under overload", res.P99, res.MeanLatency)
	}
}

// Latencies must be non-negative and causally ordered for every request:
// its decode admission follows its arrival by at least one prefill batch,
// and it completes after that.
func TestSimulateCausality(t *testing.T) {
	c := serve.PaperConfig()
	m, err := serve.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay(c, 50, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		r := o.Req
		if o.Err != nil || r.Admitted < r.Arrival+m.PrefillService-1e-9 || r.Done <= r.Admitted {
			t.Fatalf("request %d violates causality (err %v): %+v", r.ID, o.Err, *r)
		}
	}
}

// Utilizations are sane fractions, and the bottleneck tier is busier under
// load.
func TestSimulateUtilization(t *testing.T) {
	c := serve.PaperConfig()
	m, err := serve.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay(c, 100, 1/(2*m.Throughput))
	if err != nil {
		t.Fatal(err)
	}
	busy := map[string]float64{}
	for _, r := range res.PerReplica {
		busy[r.Role] = r.Busy / res.Makespan
	}
	for name, u := range busy {
		if u < 0 || u > 1 {
			t.Errorf("%s utilization %.2f out of range", name, u)
		}
	}
	// Under sustained load the bottleneck tier saturates. (The decode
	// tier can also read near-busy while running mostly-empty batches, so
	// only the bottleneck's absolute utilization is asserted.)
	if busy[m.Bottleneck] < 0.7 {
		t.Errorf("%s (bottleneck) utilization %.2f, want >= 0.7 under load", m.Bottleneck, busy[m.Bottleneck])
	}
}

// Degenerate run parameters never panic or divide by zero: a malformed
// arrival stream is ErrInvalidTrace, an empty one serves nothing, a tier
// that can never run is ErrInvalidConfig, and requests no slot can hold
// are refused one by one.
func TestSimulateErrorPaths(t *testing.T) {
	cases := []struct {
		name         string
		mutate       func(*serve.Config)
		nRequests    int
		interarrival float64
		want         error // nil: the run succeeds and completes nothing
	}{
		{"zero requests", nil, 0, 1.0, nil},
		{"negative requests", nil, -3, 1.0, nil},
		{"negative interarrival", nil, 10, -0.5, batching.ErrInvalidTrace},
		{"NaN interarrival", nil, 10, math.NaN(), batching.ErrInvalidTrace},
		// Every arrival after the first at +Inf, the first at 0·Inf = NaN.
		{"infinite interarrival", nil, 5, math.Inf(1), batching.ErrInvalidTrace},
		{"zero gen config", func(c *serve.Config) { c.Gen = 0 }, 10, 1.0, nil},
		{"zero decode batch", func(c *serve.Config) { c.Decode.Batch = 0 }, 10, 1.0, batching.ErrInvalidConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := serve.PaperConfig()
			if tc.mutate != nil {
				tc.mutate(&c)
			}
			res, err := replay(c, tc.nRequests, tc.interarrival)
			switch {
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Errorf("err %v, want %v", err, tc.want)
			case tc.want == nil && (err != nil || res.Completed != 0):
				t.Errorf("err %v, completed %d; want a run that serves nothing", err, res.Completed)
			}
		})
	}
}

// A single request and zero interarrival are valid edge shapes: one batch
// through each tier, latency within 5% of MinLatency.
func TestSimulateSingleRequest(t *testing.T) {
	c := serve.PaperConfig()
	m, err := serve.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay(c, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed %d", res.Completed)
	}
	if math.Abs(res.MeanLatency-m.MinLatency) > 0.05*m.MinLatency {
		t.Errorf("single-request latency %.3f not within 5%% of min latency %.3f", res.MeanLatency, m.MinLatency)
	}
	if res.P50 != res.P99 {
		t.Error("percentiles of one sample must coincide")
	}
}
