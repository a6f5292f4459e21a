package planner

import (
	"math"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
)

func sys64() hardware.System { return hardware.TPUv4Slice(4, 4, 4) }

// Section 4.1's selection rule must emerge from the planner: prefill picks
// weight-stationary at small token counts and weight-gathered at large ones;
// decode always lands on 2D weight-stationary.
func TestPrefillLayoutSwitchesWithBatch(t *testing.T) {
	k := perf.DefaultKnobs()
	cfg := model.PaLM540BPadded()

	small, ok := ChoosePrefill(cfg, sys64(), model.BF16,
		Workload{Batch: 1, Context: 2048}, MinLatency, k)
	if !ok {
		t.Fatal("no feasible prefill layout at batch 1")
	}
	if small.FFN.WeightGathered() {
		t.Errorf("batch 1 prefill chose %v, want weight-stationary", small.FFN)
	}

	large, ok := ChoosePrefill(cfg, sys64(), model.BF16,
		Workload{Batch: 512, Context: 2048}, MinLatency, k)
	if !ok {
		t.Fatal("no feasible prefill layout at batch 512")
	}
	if !large.FFN.WeightGathered() {
		t.Errorf("batch 512 prefill chose %v, want weight-gathered", large.FFN)
	}
}

func TestDecodeChooses2DWS(t *testing.T) {
	k := perf.DefaultKnobs()
	dec, ok := ChooseDecode(model.PaLM540BPadded(), sys64(), model.BF16,
		Workload{Batch: 512, Context: 2048, Gen: 64}, MinLatency, k)
	if !ok {
		t.Fatal("no feasible decode layout")
	}
	if dec.FFN != partition.FFN2DWeightStationary {
		t.Errorf("decode chose %v, want WS 2D on 64 chips", dec.FFN)
	}
	if dec.Attn != partition.AttnShardBatch {
		t.Errorf("decode attention chose %v, want shard-batch for multiquery", dec.Attn)
	}
}

// For the multihead MT-NLG model, head sharding is the natural choice (KV
// already shards over its 128 heads, no all-to-all needed).
func TestDecodeMultiheadPrefersHeadSharding(t *testing.T) {
	k := perf.DefaultKnobs()
	dec, ok := ChooseDecode(model.MTNLG530B(), sys64(), model.BF16,
		Workload{Batch: 64, Context: 60, Gen: 20}, MinLatency, k)
	if !ok {
		t.Fatal("no feasible decode layout for MT-NLG")
	}
	if dec.Attn != partition.AttnShardHeads {
		t.Errorf("MT-NLG decode attention = %v, want shard-heads", dec.Attn)
	}
}

func TestMakePlanFeasibleAndConsistent(t *testing.T) {
	k := perf.DefaultKnobs()
	// Section 1's headline scenario: "process 64 tokens of text from a
	// user, consult a cached conversation history of 1920 tokens, and
	// generate a 64-token response in a total of 1.9 seconds" — batch 64,
	// 64 chips, int8, incremental prefill.
	p := Make(model.PaLM540BPadded(), sys64(), model.Int8,
		Workload{Batch: 64, Context: 64, Past: 1920, Gen: 64}, MinLatency, k)
	if !p.Feasible {
		t.Fatalf("plan infeasible: %s", p.Reason)
	}
	if got := p.Prefill.Result.Time + p.Decode.Result.Time; math.Abs(got-p.TotalLatency) > 1e-12 {
		t.Errorf("TotalLatency %g != prefill+decode %g", p.TotalLatency, got)
	}
	if p.TotalLatency < 1.2 || p.TotalLatency > 3.0 {
		t.Errorf("chatbot scenario total = %.2fs, want ~1.9s (1.2-3.0)", p.TotalLatency)
	}
}

func TestMakeInfeasibleWorkload(t *testing.T) {
	k := perf.DefaultKnobs()
	// 540B cannot fit on one chip.
	p := Make(model.PaLM540BPadded(), hardware.TPUv4Slice(1, 1, 1), model.BF16,
		Workload{Batch: 1, Context: 128, Gen: 8}, MinLatency, k)
	if p.Feasible {
		t.Error("540B on 1 chip should be infeasible")
	}
	if p.Reason == "" {
		t.Error("infeasible plan should carry a reason")
	}
}

func TestPrefillOnlyWorkload(t *testing.T) {
	k := perf.DefaultKnobs()
	p := Make(model.PaLM62B(), hardware.TPUv4Slice(2, 2, 2), model.BF16,
		Workload{Batch: 16, Context: 512}, MinLatency, k)
	if !p.Feasible {
		t.Fatalf("prefill-only plan infeasible: %s", p.Reason)
	}
	if p.Decode.Result.Time != 0 {
		t.Error("prefill-only workload should have zero decode time")
	}
}

func TestMinCostPrefersLargerEffectiveBatchEfficiency(t *testing.T) {
	k := perf.DefaultKnobs()
	w := Workload{Batch: 256, Context: 2048, Gen: 64}
	lat := Make(model.PaLM540BPadded(), sys64(), model.BF16, w, MinLatency, k)
	cost := Make(model.PaLM540BPadded(), sys64(), model.BF16, w, MinCost, k)
	if !lat.Feasible || !cost.Feasible {
		t.Fatal("plans infeasible")
	}
	if cost.Decode.Result.Cost > lat.Decode.Result.Cost+1e-12 {
		t.Error("min-cost plan has higher decode cost than min-latency plan")
	}
}

func TestBestSystemPicksReasonableTorus(t *testing.T) {
	k := perf.DefaultKnobs()
	p, ok := BestSystem(model.PaLM540BPadded(), hardware.TPUv4(), 64, model.Int8,
		Workload{Batch: 64, Context: 2048, Gen: 64}, MinLatency, k)
	if !ok {
		t.Fatal("no feasible system at 64 chips")
	}
	if p.System.Chips() != 64 {
		t.Errorf("system has %d chips, want 64", p.System.Chips())
	}
	// The analytic optimum for 2D WS has X ≈ sqrt(n)/2 = 4 at F = 4E;
	// accept X in {2,4,8} (the efficiency curve shifts it slightly).
	x := p.System.Torus.X
	if x != 2 && x != 4 && x != 8 {
		t.Errorf("chosen torus %v, want X near sqrt(64)/2", p.System.Torus)
	}
}

// Table 1: maximum context lengths at 30% HBM reserved for KV cache,
// 64 chips. Paper values: multihead 1320/330, baseline multiquery 660/165,
// optimized multiquery 43000/10700 (batch 128 / batch 512).
func TestTable1MaxContext(t *testing.T) {
	sys := sys64()
	cases := []struct {
		name   string
		cfg    model.Config
		layout partition.AttnLayout
		batch  int
		want   int
	}{
		{"multihead b128", model.PaLM540BMHA(), partition.AttnShardHeads, 128, 1320},
		{"multihead b512", model.PaLM540BMHA(), partition.AttnShardHeads, 512, 330},
		{"baseline MQ b128", model.PaLM540BPadded(), partition.AttnShardHeads, 128, 660},
		{"baseline MQ b512", model.PaLM540BPadded(), partition.AttnShardHeads, 512, 165},
		{"optimized MQ b128", model.PaLM540BPadded(), partition.AttnShardBatch, 128, 43000},
		{"optimized MQ b512", model.PaLM540BPadded(), partition.AttnShardBatch, 512, 10700},
	}
	for _, c := range cases {
		got := MaxContextKV(c.cfg, sys, c.layout, c.batch, 0.30, model.BF16)
		if math.Abs(float64(got-c.want))/float64(c.want) > 0.05 {
			t.Errorf("%s: max context = %d, want %d ± 5%%", c.name, got, c.want)
		}
	}
}

// The headline: optimized multiquery supports 32x the context of multihead
// and 64x the baseline multiquery layout.
func TestTable1Ratios(t *testing.T) {
	sys := sys64()
	opt := MaxContextKV(model.PaLM540BPadded(), sys, partition.AttnShardBatch, 512, 0.30, model.BF16)
	mha := MaxContextKV(model.PaLM540BMHA(), sys, partition.AttnShardHeads, 512, 0.30, model.BF16)
	base := MaxContextKV(model.PaLM540BPadded(), sys, partition.AttnShardHeads, 512, 0.30, model.BF16)
	if r := float64(opt) / float64(mha); r < 28 || r > 36 {
		t.Errorf("optimized/multihead context ratio = %.1f, want ~32", r)
	}
	if r := float64(opt) / float64(base); r < 56 || r > 72 {
		t.Errorf("optimized/baseline context ratio = %.1f, want ~64", r)
	}
}

func TestMaxContextDegenerate(t *testing.T) {
	if got := MaxContextKV(model.PaLM8B(), sys64(), partition.AttnShardBatch, 0, 0.3, model.BF16); got != 0 {
		t.Errorf("batch 0 max context = %d, want 0", got)
	}
}

func TestObjectiveString(t *testing.T) {
	if MinLatency.String() != "min-latency" || MinCost.String() != "min-cost" {
		t.Error("objective strings wrong")
	}
}

// The int8 KV cache doubles the servable context at every operating point
// — Table 1 with the cache quantized.
func TestMaxContextKVInt8Doubles(t *testing.T) {
	sys := sys64()
	for _, batch := range []int{128, 512} {
		bf := MaxContextKV(model.PaLM540BPadded(), sys, partition.AttnShardBatch, batch, 0.30, model.BF16)
		q8 := MaxContextKV(model.PaLM540BPadded(), sys, partition.AttnShardBatch, batch, 0.30, model.Int8)
		if bf < 1 {
			t.Fatalf("batch %d: degenerate bf16 max context %d", batch, bf)
		}
		if r := float64(q8) / float64(bf); r < 1.99 || r > 2.01 {
			t.Errorf("batch %d: int8/bf16 max context ratio = %.3f (%d vs %d), want 2",
				batch, r, q8, bf)
		}
	}
}
