package planner

import (
	"math"
	"testing"

	"esti/internal/model"
	"esti/internal/perf"
)

// The caller's OverlapFrac reaches candidate costing — and because only the
// bandwidth component overlaps, the chosen decode layout's comm term pins to
// its hop floor instead of vanishing, keeping the predicted latency honest
// at small batch.
func TestWorkloadOverlapAppliedAndFloored(t *testing.T) {
	k := perf.DefaultKnobs()
	cfg := model.PaLM540BPadded()
	base := Workload{Batch: 8, Context: 2048, Gen: 64}

	plain, ok := ChooseDecode(cfg, sys64(), model.Int8, base, MinLatency, k)
	if !ok {
		t.Fatal("no feasible decode layout")
	}
	kFull := k
	kFull.OverlapFrac = 1
	full, ok := ChooseDecode(cfg, sys64(), model.Int8, base, MinLatency, kFull)
	if !ok {
		t.Fatal("no feasible decode layout with overlap")
	}
	if full.Result.Time >= plain.Result.Time {
		t.Errorf("full overlap did not reduce predicted decode time: %g vs %g",
			full.Result.Time, plain.Result.Time)
	}
	b := full.Result.Breakdown
	if b.Comm <= 0 || b.CommFloor <= 0 {
		t.Fatalf("overlapped candidate lost its comm floor: Comm %g, CommFloor %g", b.Comm, b.CommFloor)
	}
	if math.Abs(b.Comm-b.CommFloor)/b.CommFloor > 1e-9 {
		t.Errorf("full overlap should pin the winning candidate's Comm (%g) to its floor (%g)",
			b.Comm, b.CommFloor)
	}
}

// Make threads the caller's overlap into both phases.
func TestMakeAppliesWorkloadOverlap(t *testing.T) {
	k := perf.DefaultKnobs()
	cfg := model.PaLM540BPadded()
	w := Workload{Batch: 8, Context: 2048, Gen: 64}
	plain := Make(cfg, sys64(), model.Int8, w, MinLatency, k)
	k.OverlapFrac = 1
	over := Make(cfg, sys64(), model.Int8, w, MinLatency, k)
	if !plain.Feasible || !over.Feasible {
		t.Fatalf("plans infeasible: %v / %v", plain.Reason, over.Reason)
	}
	if over.TotalLatency >= plain.TotalLatency {
		t.Errorf("overlap 1.0 did not reduce total latency: %g vs %g",
			over.TotalLatency, plain.TotalLatency)
	}
	if over.Decode.Result.Breakdown.CommFloor <= 0 {
		t.Error("decode choice lost its hop floor under overlap")
	}
}
