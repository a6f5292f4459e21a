package perf

import (
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
)

// The int8 wire's analytic effect: at a communication-exposed decode
// point, the exposed comm component halves against the bf16 baseline
// (every activation collective's bytes halve; the fixed hop latency
// stays), and everything else is untouched.
func TestInt8WireDTypeHalvesCommTime(t *testing.T) {
	base := Request{
		Model: model.PaLM540BPadded(), System: hardware.TPUv4Slice(4, 4, 4),
		Weights: model.Int8,
		FFN:     partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Batch: 64, Context: 2048, Gen: 64,
	}
	k := DefaultKnobs()
	k.HopLatency = 0 // isolate the bandwidth term the wire dtype scales

	bf := Decode(base, k)
	if !bf.Feasible {
		t.Fatalf("bf16-wire baseline infeasible: %s", bf.Reason)
	}
	q := base
	q.WireDType = model.Int8
	q8 := Decode(q, k)
	if !q8.Feasible {
		t.Fatalf("int8-wire point infeasible: %s", q8.Reason)
	}
	if bf.Breakdown.Comm <= 0 {
		t.Fatal("baseline has no exposed comm; test point mischosen")
	}
	if ratio := q8.Breakdown.Comm / bf.Breakdown.Comm; ratio < 0.49 || ratio > 0.51 {
		t.Errorf("int8 wire comm time is %.3fx bf16 (%.6fs vs %.6fs), want 0.5x",
			ratio, q8.Breakdown.Comm, bf.Breakdown.Comm)
	}
	for _, cmp := range []struct {
		name     string
		bf16, q8 float64
	}{
		{"compute", bf.Breakdown.Compute, q8.Breakdown.Compute},
		{"weight-mem", bf.Breakdown.WeightMem, q8.Breakdown.WeightMem},
		{"kv-mem", bf.Breakdown.KVMem, q8.Breakdown.KVMem},
	} {
		if cmp.bf16 != cmp.q8 {
			t.Errorf("%s changed under int8 wire: %g vs %g", cmp.name, cmp.q8, cmp.bf16)
		}
	}

	// Prefill's activation collectives halve the same way.
	bfP := Prefill(base, k)
	q8P := Prefill(q, k)
	if ratio := q8P.Breakdown.Comm / bfP.Breakdown.Comm; ratio < 0.49 || ratio > 0.51 {
		t.Errorf("int8 wire prefill comm is %.3fx bf16, want 0.5x", ratio)
	}
}

// Weight-gathered staging follows the wire dtype too, matching the
// functional engine (whose int8 wire quantizes the WG layout's per-layer
// weight all-gathers like any other chunk): with bf16 at-rest weights an
// int8 wire halves the WG layout's comm, while weights already at-rest
// int8 ship as-is — no further shrink, and never an *expansion* from a
// wider wire.
func TestInt8WireCoversWeightGatheredStaging(t *testing.T) {
	base := Request{
		Model: model.PaLM540BPadded(), System: hardware.TPUv4Slice(4, 4, 4),
		Weights: model.BF16,
		FFN:     partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch,
		Batch: 64, Context: 2048,
	}
	k := DefaultKnobs()
	k.HopLatency = 0

	bf := Prefill(base, k)
	q := base
	q.WireDType = model.Int8
	q8 := Prefill(q, k)
	if !bf.Feasible || !q8.Feasible {
		t.Fatalf("infeasible: %s / %s", bf.Reason, q8.Reason)
	}
	// XYZ-gathered comm is all weight staging; bf16 at-rest → int8 wire
	// halves it exactly.
	if ratio := q8.Breakdown.Comm / bf.Breakdown.Comm; ratio < 0.49 || ratio > 0.51 {
		t.Errorf("int8 wire WG comm is %.3fx bf16-at-rest, want 0.5x", ratio)
	}

	// At-rest int8 weights: the staging already moves 1 B/element, so
	// neither an int8 wire nor the wider fp32 wire changes it.
	i8 := base
	i8.Weights = model.Int8
	ref := Prefill(i8, k)
	for _, wd := range []model.DType{model.Int8, model.FP32} {
		w := i8
		w.WireDType = wd
		got := Prefill(w, k)
		if got.Breakdown.Comm != ref.Breakdown.Comm {
			t.Errorf("%v wire changed int8-at-rest WG comm: %g vs %g",
				wd, got.Breakdown.Comm, ref.Breakdown.Comm)
		}
	}
}

// FP32 wire (the functional engine's exact format) doubles the bf16
// baseline's comm term — the dtype knob is linear in bytes per element.
func TestWireDTypeLinearInBytes(t *testing.T) {
	base := Request{
		Model: model.PaLM62B(), System: hardware.TPUv4Slice(4, 4, 2),
		Weights: model.Int8,
		FFN:     partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads,
		Batch: 32, Context: 1024, Gen: 16,
	}
	k := DefaultKnobs()
	k.HopLatency = 0
	bf := Decode(base, k)
	f32 := base
	f32.WireDType = model.FP32
	fp := Decode(f32, k)
	if !bf.Feasible || !fp.Feasible {
		t.Fatalf("infeasible: %s / %s", bf.Reason, fp.Reason)
	}
	if ratio := fp.Breakdown.Comm / bf.Breakdown.Comm; ratio < 1.99 || ratio > 2.01 {
		t.Errorf("fp32 wire comm is %.3fx bf16, want 2x", ratio)
	}
}
