package batching

import (
	"math"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
)

// palm540bConfig is the paper's chatbot serving target: PaLM 540B, int8
// weights, a 64-chip slice, 2D weight-stationary FFN with batch-sharded
// multiquery attention — the decode configuration of Table 2 — run as one
// continuous-batching pool.
func palm540bConfig() Config {
	return Config{
		Model:   model.PaLM540BPadded(),
		Weights: model.Int8,
		System:  hardware.TPUv4Slice(4, 4, 4),
		FFN:     partition.FFN2DWeightStationary,
		Attn:    partition.AttnShardBatch,
		Slots:   64,
		MaxLen:  2048 + 256,
		Knobs:   perf.DefaultKnobs(),
	}
}

func TestChatbotTraceDeterministic(t *testing.T) {
	a := ChatbotTrace(50, 0.1, 7)
	b := ChatbotTrace(50, 0.1, 7)
	if len(a.Requests) != 50 {
		t.Fatalf("trace length %d", len(a.Requests))
	}
	distinctCtx := map[int]bool{}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if ra.Context != rb.Context || ra.Gen != rb.Gen || ra.Arrival != rb.Arrival {
			t.Fatalf("request %d differs between identical seeds", i)
		}
		if ra.Context < 128 || ra.Context > 2048 || ra.Gen < 16 || ra.Gen > 256 {
			t.Errorf("request %d out of range: ctx %d gen %d", i, ra.Context, ra.Gen)
		}
		distinctCtx[ra.Context] = true
	}
	if len(distinctCtx) < 3 {
		t.Errorf("trace not mixed-length: %d distinct contexts", len(distinctCtx))
	}
	if ChatbotTrace(50, 0.1, 8).Requests[3].Context == 0 {
		t.Error("different seed produced empty request")
	}
}

func TestSimulateAccounting(t *testing.T) {
	c := palm540bConfig()
	trace := ChatbotTrace(80, 0.2, 3)
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 80 || res.Rejected != 0 {
		t.Fatalf("completed %d rejected %d, want 80/0", res.Completed, res.Rejected)
	}
	if res.GenTokens != trace.TotalGen() {
		t.Errorf("GenTokens %d != trace total %d", res.GenTokens, trace.TotalGen())
	}
	if res.GenTokensPerSec <= 0 || res.Makespan <= 0 || res.Iterations <= 0 {
		t.Errorf("degenerate aggregates: %+v", res)
	}
	if res.MeanOccupancy <= 0 || res.MeanOccupancy > 1 {
		t.Errorf("occupancy %.3f out of (0,1]", res.MeanOccupancy)
	}
	if res.P99 < res.P50 {
		t.Error("percentiles out of order")
	}
	for _, r := range res.PerRequest {
		if r.Slot < 0 || r.Slot >= c.Slots {
			t.Fatalf("request %d in slot %d", r.ID, r.Slot)
		}
		if r.Admitted < r.Arrival || r.Done <= r.Admitted {
			t.Fatalf("request %d violates causality: %+v", r.ID, r)
		}
	}
}

func TestSimulateRejectsOversized(t *testing.T) {
	c := palm540bConfig()
	trace := Trace{Requests: []Request{
		{ID: 0, Arrival: 0, Context: 512, Gen: 32},
		{ID: 1, Arrival: 0.1, Context: c.MaxLen, Gen: 64}, // ctx+gen > MaxLen
		{ID: 2, Arrival: 0.2, Context: 256, Gen: 0},       // degenerate gen
	}}
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Rejected != 2 {
		t.Fatalf("completed %d rejected %d, want 1/2", res.Completed, res.Rejected)
	}
	if res.GenTokens != 32 {
		t.Errorf("GenTokens %d, want 32", res.GenTokens)
	}
}

func TestSimulateInfeasibleConfig(t *testing.T) {
	c := palm540bConfig()
	c.System = hardware.TPUv4Slice(1, 1, 1) // 540B on one chip: OOM
	if _, err := Simulate(c, ChatbotTrace(5, 1, 1)); err == nil {
		t.Error("540B continuous pool on one chip should be infeasible")
	}
	c = palm540bConfig()
	c.Slots = 0
	if _, err := Simulate(c, ChatbotTrace(5, 1, 1)); err == nil {
		t.Error("zero slots should be rejected")
	}
}

// Non-finite arrivals (e.g. from an infinite interarrival upstream) must be
// an error, not an infinite event loop.
func TestSimulateRejectsInvalidArrivals(t *testing.T) {
	c := palm540bConfig()
	for name, arrival := range map[string]float64{
		"NaN":      math.NaN(),
		"Inf":      math.Inf(1),
		"negative": -1,
	} {
		trace := Trace{Requests: []Request{{ID: 0, Arrival: arrival, Context: 256, Gen: 32}}}
		if _, err := Simulate(c, trace); err == nil {
			t.Errorf("%s arrival accepted", name)
		}
	}
	if _, err := Simulate(c, ChatbotTrace(5, math.Inf(1), 1)); err == nil {
		t.Error("infinite interarrival trace accepted")
	}
}

// Under sparse arrivals every request should be served essentially alone:
// latency ≈ its own prefill + its own decode steps, no queueing.
func TestSimulateLightLoad(t *testing.T) {
	c := palm540bConfig()
	trace := ChatbotTrace(10, 60, 2) // one request a minute
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanOccupancy > 0.2 {
		t.Errorf("light-load occupancy %.2f suspiciously high", res.MeanOccupancy)
	}
	// No request should wait: admission happens at (or just after) arrival.
	for _, r := range res.PerRequest {
		if r.Admitted-r.Arrival > 1 {
			t.Errorf("request %d queued %.2fs under light load", r.ID, r.Admitted-r.Arrival)
		}
	}
}

// MaxAdmit bounds per-iteration prefill work; with a cap of 1 the scheduler
// needs at least one iteration per admitted request.
func TestMaxAdmitCap(t *testing.T) {
	c := palm540bConfig()
	c.MaxAdmit = 1
	trace := ChatbotTrace(30, 0.01, 4) // all arrive essentially at once
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 30 {
		t.Errorf("%d iterations for 30 capped admissions", res.Iterations)
	}
	if res.Completed != 30 {
		t.Errorf("completed %d", res.Completed)
	}
}

// Scheduler edge: more simultaneous arrivals than slots. Later requests
// must queue (zero slots available at their arrival) and be admitted only
// as earlier ones complete — nothing is dropped and causality holds.
func TestZeroAvailableSlotsQueues(t *testing.T) {
	c := palm540bConfig()
	c.Slots = 2
	trace := Trace{}
	for i := 0; i < 6; i++ {
		trace.Requests = append(trace.Requests, Request{
			ID: i, Arrival: 0, Context: 256, Gen: 8, Slot: -1,
		})
	}
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 || res.Rejected != 0 {
		t.Fatalf("completed %d rejected %d, want 6/0", res.Completed, res.Rejected)
	}
	queued := 0
	for _, r := range res.PerRequest {
		if r.Slot < 0 || r.Slot >= 2 {
			t.Fatalf("request %d in slot %d with 2 slots", r.ID, r.Slot)
		}
		if r.Admitted > r.Arrival {
			queued++
		}
		if r.Done <= r.Admitted {
			t.Fatalf("request %d: done %.3f <= admitted %.3f", r.ID, r.Done, r.Admitted)
		}
	}
	// With 2 slots and 6 simultaneous arrivals, at least 4 waited for a
	// completion to free a slot.
	if queued < 4 {
		t.Errorf("only %d requests queued; expected at least 4 to wait for slots", queued)
	}
}

// Scheduler edge: a prompt longer than the context window (per-slot KV
// capacity) is rejected at admission, with and without chunked prefill —
// chunking bounds per-iteration work, it does not create capacity.
func TestPromptLongerThanWindowRejected(t *testing.T) {
	for _, chunk := range []int{0, 128} {
		c := palm540bConfig()
		c.PrefillChunk = chunk
		trace := Trace{Requests: []Request{
			{ID: 0, Arrival: 0, Context: c.MaxLen + 1, Gen: 4, Slot: -1},
			{ID: 1, Arrival: 0, Context: 256, Gen: 8, Slot: -1},
		}}
		res, err := Simulate(c, trace)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if res.Completed != 1 || res.Rejected != 1 {
			t.Fatalf("chunk %d: completed %d rejected %d, want 1/1", chunk, res.Completed, res.Rejected)
		}
		if res.PerRequest[0].Slot != -1 {
			t.Errorf("chunk %d: oversized request got slot %d", chunk, res.PerRequest[0].Slot)
		}
	}
}

// Scheduler edge: every sequence finishes in the same iteration. The batch
// drains completely in one step, all slots free at once, and a later wave
// is admitted into the emptied batch without stalling or double-freeing.
func TestAllSequencesFinishSameIteration(t *testing.T) {
	c := palm540bConfig()
	c.Slots = 4
	c.MaxAdmit = 0 // admit the whole wave in one iteration
	trace := Trace{}
	// Wave 1: four identical requests admitted together decode in lockstep
	// and complete in the same iteration.
	for i := 0; i < 4; i++ {
		trace.Requests = append(trace.Requests, Request{
			ID: i, Arrival: 0, Context: 128, Gen: 8, Slot: -1,
		})
	}
	// Wave 2 arrives long after wave 1 completed.
	for i := 4; i < 8; i++ {
		trace.Requests = append(trace.Requests, Request{
			ID: i, Arrival: 1e6, Context: 128, Gen: 8, Slot: -1,
		})
	}
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 {
		t.Fatalf("completed %d/8", res.Completed)
	}
	wave1 := res.PerRequest[:4]
	done := wave1[0].Done
	slots := map[int]bool{}
	for _, r := range wave1 {
		if r.Done != done {
			t.Errorf("wave-1 request %d finished at %.4f, others at %.4f", r.ID, r.Done, done)
		}
		slots[r.Slot] = true
	}
	if len(slots) != 4 {
		t.Errorf("wave 1 used %d distinct slots, want 4", len(slots))
	}
	for _, r := range res.PerRequest[4:] {
		if r.Admitted < 1e6 {
			t.Errorf("wave-2 request %d admitted at %.2f, before its arrival", r.ID, r.Admitted)
		}
		if r.Slot < 0 {
			t.Errorf("wave-2 request %d rejected", r.ID)
		}
	}
}
