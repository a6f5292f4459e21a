package perf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
)

func req540(dt model.DType, batch int) Request {
	return Request{
		Model: model.PaLM540BPadded(), System: sys64(), Weights: dt,
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Batch: batch, Context: 2048, Gen: 64,
	}
}

func TestMFUBounds(t *testing.T) {
	k := DefaultKnobs()
	for _, b := range []int{1, 8, 64, 256, 512} {
		r := Decode(req540(model.BF16, b), k)
		if !r.Feasible {
			continue
		}
		if r.MFU <= 0 || r.MFU > 1 {
			t.Errorf("batch %d: MFU = %g out of (0,1]", b, r.MFU)
		}
	}
}

// cost ≡ nchips·time/tokens by definition (Section 4.4).
func TestCostIdentity(t *testing.T) {
	k := DefaultKnobs()
	f := func(bRaw uint8) bool {
		b := 1 << (bRaw % 9)
		r := Decode(req540(model.BF16, b), k)
		if !r.Feasible {
			return true
		}
		want := 64 * r.Time / r.Tokens
		return math.Abs(r.Cost-want)/want < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The breakdown must sum to the reported time.
func TestBreakdownSumsToTime(t *testing.T) {
	k := DefaultKnobs()
	r := Decode(req540(model.Int8, 64), k)
	if math.Abs(r.Breakdown.Total()-r.Time)/r.Time > 1e-12 {
		t.Errorf("breakdown %v sums to %g, time %g", r.Breakdown, r.Breakdown.Total(), r.Time)
	}
	p := Prefill(req540(model.Int8, 1), k)
	if math.Abs(p.Breakdown.Total()-p.Time)/p.Time > 1e-12 {
		t.Errorf("prefill breakdown sums to %g, time %g", p.Breakdown.Total(), p.Time)
	}
}

// Section 2.1: more chips reduce per-step latency for a fixed 2D WS layout
// (compute and weight memory shrink; communication shrinks as 1/sqrt(n)).
func TestDecodeLatencyDropsWithChips(t *testing.T) {
	k := DefaultKnobs()
	prev := math.Inf(1)
	for _, sys := range []hardware.System{
		hardware.TPUv4Slice(4, 4, 4), // 64
		hardware.TPUv4Slice(4, 4, 8), // 128
		hardware.TPUv4Slice(4, 8, 8), // 256
	} {
		r := req540(model.BF16, 512)
		r.System = sys
		res := Decode(r, k)
		if !res.Feasible {
			t.Fatalf("%d chips infeasible: %s", sys.Chips(), res.Reason)
		}
		if res.StepTime >= prev {
			t.Errorf("%d chips: step %.4f did not improve on %.4f", sys.Chips(), res.StepTime, prev)
		}
		prev = res.StepTime
	}
}

// Smaller batches improve decode latency but worsen cost per token
// (Section 2.1, Figure 1 left).
func TestBatchLatencyCostTradeoff(t *testing.T) {
	k := DefaultKnobs()
	small := Decode(req540(model.BF16, 16), k)
	large := Decode(req540(model.BF16, 512), k)
	if small.StepTime >= large.StepTime {
		t.Errorf("batch 16 step %.4f not faster than batch 512 step %.4f",
			small.StepTime, large.StepTime)
	}
	if small.Cost <= large.Cost {
		t.Errorf("batch 16 cost %.4g not higher than batch 512 cost %.4g",
			small.Cost, large.Cost)
	}
}

// Section 4.4: int8 weights roughly halve low-batch decode latency-dominating
// weight-load time (paper: cost improved "just over a factor of 2" at low
// latency) but are nearly neutral at large batch.
func TestInt8Effect(t *testing.T) {
	k := DefaultKnobs()
	lowI8 := Decode(req540(model.Int8, 8), k)
	lowBF := Decode(req540(model.BF16, 8), k)
	gainLow := lowBF.StepTime / lowI8.StepTime
	if gainLow < 1.2 {
		t.Errorf("int8 low-batch speedup = %.2fx, want > 1.2x", gainLow)
	}
	hiI8 := Decode(req540(model.Int8, 512), k)
	hiBF := Decode(req540(model.BF16, 512), k)
	gainHi := hiBF.StepTime / hiI8.StepTime
	if gainHi > gainLow {
		t.Errorf("int8 speedup at batch 512 (%.2fx) should be below batch-8 (%.2fx)",
			gainHi, gainLow)
	}
	if gainHi > 1.35 {
		t.Errorf("int8 high-batch speedup = %.2fx, want near-neutral (<1.35x)", gainHi)
	}
}

// Section 4.3: the serial block formulation is ~14% slower per decode step
// than the parallel formulation at batch 512 on 64 chips.
func TestSerialBlockPenalty(t *testing.T) {
	k := DefaultKnobs()
	par := Decode(req540(model.BF16, 512), k)
	serialModel := model.PaLM540BPadded()
	serialModel.ParallelBlock = false
	r := req540(model.BF16, 512)
	r.Model = serialModel
	ser := Decode(r, k)
	penalty := ser.StepTime/par.StepTime - 1
	if penalty < 0.03 || penalty > 0.30 {
		t.Errorf("serial penalty = %.1f%%, want 3-30%% (paper: 14%%)", penalty*100)
	}
}

// Figure 8's driver: with batch-sharded multiquery attention, per-step time
// barely grows with context; head-sharded multiquery blows up because the
// replicated KV cache must be streamed by every chip.
func TestContextScalingByAttentionLayout(t *testing.T) {
	k := DefaultKnobs()
	cfg := model.PaLM540BPadded().WithLayers(8)
	mk := func(attn partition.AttnLayout, ctx int) Result {
		return Decode(Request{
			Model: cfg, System: sys64(), Weights: model.BF16,
			FFN: partition.FFN2DWeightStationary, Attn: attn,
			Batch: 256, Context: ctx, Gen: 1,
		}, k)
	}
	optShort := mk(partition.AttnShardBatch, 128)
	optLong := mk(partition.AttnShardBatch, 8192)
	baseShort := mk(partition.AttnShardHeads, 128)
	baseLong := mk(partition.AttnShardHeads, 8192)
	if !optLong.Feasible || !baseLong.Feasible {
		t.Fatal("8-layer variants should fit")
	}
	optGrowth := optLong.StepTime / optShort.StepTime
	baseGrowth := baseLong.StepTime / baseShort.StepTime
	if optGrowth > 2.0 {
		t.Errorf("optimized layout grew %.2fx from ctx 128→8192, want < 2x", optGrowth)
	}
	if baseGrowth < 2*optGrowth {
		t.Errorf("baseline growth %.2fx should far exceed optimized %.2fx", baseGrowth, optGrowth)
	}
}

// Figure 8's dotted line: on the full 118-layer model, context beyond ~512
// does not fit with multihead or baseline multiquery partitioning, while the
// optimized layout keeps fitting.
func TestLongContextOOM(t *testing.T) {
	k := DefaultKnobs()
	mk := func(cfg model.Config, attn partition.AttnLayout) Result {
		return Decode(Request{
			Model: cfg, System: sys64(), Weights: model.BF16,
			FFN: partition.FFN2DWeightStationary, Attn: attn,
			Batch: 512, Context: 2048, Gen: 1,
		}, k)
	}
	if r := mk(model.PaLM540BMHA(), partition.AttnShardHeads); r.Feasible {
		t.Error("multihead at B=512 ctx=2048 should OOM on 64 chips")
	}
	if r := mk(model.PaLM540BPadded(), partition.AttnShardHeads); r.Feasible {
		t.Error("baseline (head-sharded) multiquery at B=512 ctx=2048 should OOM")
	}
	if r := mk(model.PaLM540BPadded(), partition.AttnShardBatch); !r.Feasible {
		t.Errorf("optimized multiquery should fit: %s", r.Reason)
	}
}

// Decode per-step time must be monotone non-decreasing in context length
// (more KV bytes per step).
func TestStepTimeMonotoneInContext(t *testing.T) {
	k := DefaultKnobs()
	prev := 0.0
	for _, ctx := range []int{128, 512, 2048, 8192} {
		r := req540(model.BF16, 256)
		r.Context = ctx
		res := Decode(r, k)
		if !res.Feasible {
			t.Fatalf("ctx %d infeasible: %s", ctx, res.Reason)
		}
		if res.StepTime < prev {
			t.Errorf("ctx %d: step time %.5f decreased from %.5f", ctx, res.StepTime, prev)
		}
		prev = res.StepTime
	}
}

// Raising the overlap fraction can only hide communication, never add time.
func TestOverlapMonotone(t *testing.T) {
	base := DefaultKnobs()
	over := base
	over.OverlapFrac = 1
	a := Decode(req540(model.BF16, 512), base)
	b := Decode(req540(model.BF16, 512), over)
	if b.Time > a.Time {
		t.Errorf("full overlap (%.4f) slower than none (%.4f)", b.Time, a.Time)
	}
	if b.Breakdown.Comm > a.Breakdown.Comm {
		t.Error("overlap increased exposed communication")
	}
}

// Prefill at batch 512 is about 2x cheaper per token than decode at batch
// 512 thanks to the weight-gathered layout (Section 4.4).
func TestPrefillCheaperThanDecode(t *testing.T) {
	k := DefaultKnobs()
	pre := Prefill(Request{
		Model: model.PaLM540BPadded(), System: sys64(), Weights: model.BF16,
		FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch,
		Batch: 512, Context: 2048,
	}, k)
	dec := Decode(req540(model.BF16, 512), k)
	ratio := dec.Cost / pre.Cost
	if ratio < 1.5 || ratio > 4 {
		t.Errorf("decode/prefill cost ratio = %.2f, want ~2x (1.5-4)", ratio)
	}
}

func TestValidation(t *testing.T) {
	k := DefaultKnobs()
	r := req540(model.BF16, 0)
	if res := Decode(r, k); res.Feasible {
		t.Error("batch 0 should be infeasible")
	}
	r = req540(model.BF16, 8)
	r.Gen = 0
	if res := Decode(r, k); res.Feasible {
		t.Error("decode with Gen=0 should be infeasible")
	}
	r = req540(model.BF16, 8)
	r.Context = -1
	if res := Prefill(r, k); res.Feasible {
		t.Error("negative context should be infeasible")
	}
	bad := req540(model.BF16, 8)
	bad.Model.Layers = 0
	if res := Prefill(bad, k); res.Feasible {
		t.Error("invalid model should be infeasible")
	}
	// What the model cannot price is infeasible in every entry point, not a
	// panic and not a price.
	for name, mut := range map[string]func(*Request){
		"unknown FFN layout":       func(r *Request) { r.FFN = partition.FFNLayout(42) },
		"unknown attention layout": func(r *Request) { r.Attn = partition.AttnLayout(42) },
		"zero torus":               func(r *Request) { r.System.Torus = hardware.Torus{} },
		"unknown weight dtype":     func(r *Request) { r.Weights = model.DType(42) },
		"unknown KV dtype":         func(r *Request) { r.KVDType = model.DType(42) },
		"unknown wire dtype":       func(r *Request) { r.WireDType = model.DType(42) },
	} {
		r := req540(model.BF16, 8)
		mut(&r)
		if res := Prefill(r, k); res.Feasible {
			t.Errorf("%s: Prefill is feasible", name)
		}
		if res := Decode(r, k); res.Feasible || !strings.HasPrefix(res.Reason, "perf: ") {
			t.Errorf("%s: Decode feasible %v, reason %q; want a perf: rejection", name, res.Feasible, res.Reason)
		}
		if prof := DecodeProfile(r, k); prof != nil {
			t.Errorf("%s: DecodeProfile returned %d steps", name, len(prof))
		}
	}
}

func TestInfeasibleResultShape(t *testing.T) {
	r := infeasible(PhaseDecode, "why")
	if r.Feasible || r.Reason != "why" || !math.IsInf(r.Time, 1) || !math.IsInf(r.Cost, 1) {
		t.Errorf("infeasible result malformed: %+v", r)
	}
}

func TestPhaseString(t *testing.T) {
	if PhasePrefill.String() != "prefill" || PhaseDecode.String() != "decode" {
		t.Error("phase strings wrong")
	}
}

// DecodeProfile: per-step times are monotone in step (KV growth), and their
// sum matches Decode's chunk-integrated total closely.
func TestDecodeProfile(t *testing.T) {
	k := DefaultKnobs()
	r := req540(model.BF16, 256)
	r.Gen = 32
	prof := DecodeProfile(r, k)
	if len(prof) != 32 {
		t.Fatalf("profile has %d steps, want 32", len(prof))
	}
	var sum float64
	for i, p := range prof {
		if i > 0 && p.Time < prof[i-1].Time-1e-12 {
			t.Errorf("step %d time decreased: %g < %g", i, p.Time, prof[i-1].Time)
		}
		sum += p.Time
	}
	total := Decode(r, k)
	if math.Abs(sum-total.Time)/total.Time > 0.01 {
		t.Errorf("profile sum %.4f vs Decode total %.4f (>1%% apart)", sum, total.Time)
	}
	// Invalid requests return nil.
	bad := r
	bad.Gen = 0
	if DecodeProfile(bad, k) != nil {
		t.Error("Gen=0 should return nil profile")
	}
	oom := r
	oom.Batch = 4096
	oom.Context = 8192
	if DecodeProfile(oom, k) != nil {
		t.Error("OOM request should return nil profile")
	}
}

// Sub-linear latency growth with model size at the low-latency frontier
// (Section 4.4: "approximately square-root relationship").
func TestSublinearLatencyInModelSize(t *testing.T) {
	k := DefaultKnobs()
	mk := func(cfg model.Config, sys hardware.System) float64 {
		r := Decode(Request{
			Model: cfg, System: sys, Weights: model.Int8,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
			Batch: 64, Context: 2048, Gen: 64,
		}, k)
		return r.StepTime
	}
	t62 := mk(model.PaLM62B(), hardware.TPUv4Slice(4, 2, 2))
	t540 := mk(model.PaLM540BPadded(), sys64())
	sizeRatio := model.PaLM540BPadded().Params() / model.PaLM62B().Params() // ~8.9x
	latRatio := t540 / t62
	if latRatio > sizeRatio*0.7 {
		t.Errorf("latency ratio %.2fx vs size ratio %.2fx: not sublinear", latRatio, sizeRatio)
	}
	if latRatio < 1 {
		t.Errorf("bigger model came out faster (%.2fx)", latRatio)
	}
}

// The prefix-hit-rate knob: expected prefill cost shrinks monotonically
// with hit rate, hits cost the suffix-only pass, and invalid knob values
// are infeasible rather than silently wrong.
func TestPrefillExpectedPrefixKnob(t *testing.T) {
	r := req540(model.Int8, 1)
	k := DefaultKnobs()
	const prefix = 1792

	cold := Prefill(r, k)
	zero := PrefillExpected(r, k, 0, prefix)
	half := PrefillExpected(r, k, 0.5, prefix)
	full := PrefillExpected(r, k, 1, prefix)
	for name, res := range map[string]Result{"zero": zero, "half": half, "full": full} {
		if !res.Feasible {
			t.Fatalf("%s: infeasible: %s", name, res.Reason)
		}
	}
	if zero.Time != cold.Time {
		t.Errorf("hitRate 0 time %g != cold %g", zero.Time, cold.Time)
	}
	if !(full.Time < half.Time && half.Time < cold.Time) {
		t.Errorf("times not monotone in hit rate: full %g, half %g, cold %g",
			full.Time, half.Time, cold.Time)
	}
	// An all-hit workload prefills Context-prefix tokens against a cached
	// past; its time must match that request costed directly.
	hot := r
	hot.Context = r.Context - prefix
	hot.Past = prefix
	direct := Prefill(hot, k)
	if math.Abs(full.Time-direct.Time) > 1e-12 {
		t.Errorf("full-hit time %g != direct suffix prefill %g", full.Time, direct.Time)
	}
	if math.Abs(half.Time-(0.5*cold.Time+0.5*direct.Time)) > 1e-9*cold.Time {
		t.Errorf("half-hit time %g not the blend of %g and %g", half.Time, cold.Time, direct.Time)
	}

	for name, bad := range map[string]struct {
		rate float64
		pl   int
	}{
		"rate>1":     {1.5, prefix},
		"rate<0":     {-0.1, prefix},
		"rateNaN":    {math.NaN(), prefix},
		"prefix>ctx": {0.5, r.Context},
		"prefix<0":   {0.5, -5},
	} {
		if res := PrefillExpected(r, k, bad.rate, bad.pl); res.Feasible {
			t.Errorf("%s: accepted", name)
		}
	}
}
