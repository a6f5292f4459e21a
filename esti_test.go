package esti

import (
	"errors"
	"math"
	"testing"

	"esti/internal/batching"
	"esti/internal/faults"
	"esti/internal/fleet"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/planner"
)

// End-to-end checks of the module's top-level claims, each made across the
// packages a caller combines: model presets, the torus system, the perf
// model, the planner, and the fleet with its fault vocabulary.

// The paper's headline: 540B int8 batch-64 decode at ~29 ms/token on 64
// chips.
func TestFacadeHeadline(t *testing.T) {
	res := perf.Decode(perf.Request{
		Model: model.PaLM540BPadded(), System: hardware.TPUv4Slice(4, 4, 4), Weights: model.Int8,
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Batch: 64, Context: 2048, Gen: 64,
	}, perf.DefaultKnobs())
	if !res.Feasible {
		t.Fatalf("infeasible: %s", res.Reason)
	}
	ms := res.StepTime * 1000
	if ms < 22 || ms > 38 {
		t.Errorf("headline decode = %.1f ms/token, want ~29", ms)
	}
}

func TestFacadePresets(t *testing.T) {
	for _, tc := range []struct {
		cfg   model.Config
		wantB float64
	}{
		{model.PaLM8B(), 8.6}, {model.PaLM62B(), 62.5}, {model.PaLM540BPadded(), 558}, {model.MTNLG530B(), 530},
	} {
		gotB := tc.cfg.Params() / 1e9
		if math.Abs(gotB-tc.wantB)/tc.wantB > 0.05 {
			t.Errorf("%s params = %.1fB, want ~%.0fB", tc.cfg.Name, gotB, tc.wantB)
		}
	}
}

func TestFacadeMakePlan(t *testing.T) {
	p := planner.Make(model.PaLM62B(), hardware.TPUv4Slice(2, 2, 2), model.BF16,
		planner.Workload{Batch: 32, Context: 512, Gen: 32}, planner.MinLatency, perf.DefaultKnobs())
	if !p.Feasible {
		t.Fatalf("plan infeasible: %s", p.Reason)
	}
	if p.TotalLatency <= 0 {
		t.Error("non-positive latency")
	}
	if p.Decode.FFN != partition.FFN2DWeightStationary && p.Decode.FFN != partition.FFN1DWeightStationary {
		t.Errorf("decode picked %v, want a weight-stationary layout", p.Decode.FFN)
	}
}

// fleetReplica is the 540B int8 replica both fleet checks stamp out.
func fleetReplica() batching.Config {
	return batching.Config{
		Model: model.PaLM540BPadded(), Weights: model.Int8, System: hardware.TPUv4Slice(4, 4, 4),
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Slots: 64, MaxLen: 2048 + 256, PrefixCache: true, Knobs: perf.DefaultKnobs(),
	}
}

// A Zipf trace routed across two replicas with affinity, plus the sentinel
// vocabulary via errors.Is.
func TestFacadeFleet(t *testing.T) {
	c := fleet.Config{Replica: fleetReplica(), Replicas: 2, Policy: fleet.Affinity}
	trace := batching.WithSLO(batching.ZipfPrefixTrace(60, 0.05, 512, 8, 1.3, 1), 60, 0.25, 2)
	res, err := fleet.Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 60 || res.Shed != 0 {
		t.Fatalf("completed %d shed %d, want 60/0", res.Completed, res.Shed)
	}
	if res.AffinityHits == 0 || res.GoodputPerChip <= 0 {
		t.Errorf("degenerate fleet result: hits %d goodput %.3f", res.AffinityHits, res.GoodputPerChip)
	}
	if _, err := fleet.Simulate(fleet.Config{Replica: c.Replica}, trace); !errors.Is(err, batching.ErrInvalidConfig) {
		t.Errorf("zero replicas: got %v, want ErrInvalidConfig", err)
	}
}

func TestFacadePrefill(t *testing.T) {
	res := perf.Prefill(perf.Request{
		Model: model.PaLM62B(), System: hardware.TPUv4Slice(4, 2, 2), Weights: model.Int8,
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads,
		Batch: 1, Context: 2048,
	}, perf.DefaultKnobs())
	if !res.Feasible {
		t.Fatalf("infeasible: %s", res.Reason)
	}
	// Table 3: 0.16s.
	if res.Time < 0.10 || res.Time > 0.25 {
		t.Errorf("62B batch-1 prefill = %.3fs, want ~0.16s", res.Time)
	}
}

// A parsed fault plan injects a crash, the fleet recovers with retries, and
// the sentinel family identifies what happened to each request.
func TestFacadeFaults(t *testing.T) {
	plan, err := faults.Parse("crash:1@0.5+4, slow:0@1-3x2")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(plan.Events))
	}
	c := fleet.Config{
		Replica: fleetReplica(), Replicas: 2, Policy: fleet.Affinity, Faults: plan,
		Recovery: fleet.RecoveryPolicy{BrownoutBelow: 0.4},
	}
	trace := batching.ZipfPrefixTrace(80, 0.02, 512, 8, 1.3, 1)
	res, err := fleet.Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Shed+res.ShedRetry+res.Failed != 80 {
		t.Fatalf("outcome partition broken: %+v", res)
	}
	if res.Retries == 0 {
		t.Error("a crash with in-flight work should force retries")
	}
	for _, o := range res.Outcomes {
		if o.Err != nil && !errors.Is(o.Err, batching.ErrReplicaDown) && !errors.Is(o.Err, batching.ErrDeadline) &&
			!errors.Is(o.Err, batching.ErrOverloaded) {
			t.Errorf("outcome error outside the sentinel family: %v", o.Err)
		}
	}
	for _, w := range res.Wasted {
		if !errors.Is(w.Cause, batching.ErrReplicaDown) && !errors.Is(w.Cause, batching.ErrHedged) {
			t.Errorf("wasted-work cause outside the sentinel family: %v", w.Cause)
		}
	}
	if rp := faults.RandomPlan(7, 4, 10); rp.Validate(4) != nil || len(rp.Events) == 0 {
		t.Errorf("RandomPlan invalid or empty: %+v", rp)
	}
	if _, err := faults.Parse("crash:x@2"); err == nil {
		t.Error("malformed DSL accepted")
	}
}
