// Package perf is the paper's analytical inference-cost model (Section 2,
// Appendix A): given a model architecture, a hardware system, a partitioning
// assignment and a workload (batch, context length, tokens to generate), it
// predicts latency, per-token cost in chip-seconds, and model FLOPS
// utilization (MFU) for the prefill and decode phases, with a per-component
// breakdown (matmul compute, weight memory, KV-cache memory, communication).
//
// The model is a roofline extended with an empirical matmul-efficiency
// curve,
//
//	eff(M,K,N) = e0 · M/(M+Ms) · K/(K+Ks) · N/(N+Ns),
//
// over the *per-chip* matmul shapes each layout induces: sharded decode
// matmuls are small and narrow, which is exactly why decode MFU is low. The
// default constants are calibrated once against the paper's published
// anchors (Tables 2-3 and D.2-D.4); cmd/esticalib prints the residuals
// (cmd/esticalib/testdata/defaults.golden).
// Communication uses the closed forms in package commcost; weight and
// KV-cache memory time use HBM bandwidth directly.
//
// The comm term splits into a bandwidth component and a latency floor:
// bytes-over-bandwidth per collective (which Looped-CollectiveEinsum
// overlap, Knobs.OverlapFrac, can hide behind compute) plus
// CollectiveHops × HopLatency of serial ring-step latency (which no
// overlap can hide — each step's link traversal is on the critical path).
// Breakdown.CommFloor reports the floor inside Breakdown.Comm; at high
// chip counts and small batches the floor dominates, which is why decode
// latency stops improving with more chips and why wire-format savings
// (int8 vs bf16) pin to ~1x there.
package perf

import (
	"fmt"
	"math"

	"esti/internal/commcost"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
)

// Knobs are the tunable constants of the cost model. Zero value is not
// useful; start from DefaultKnobs.
type Knobs struct {
	// MatmulEffMax (e0) is the peak fraction of hardware FLOPS a large,
	// well-shaped matmul achieves.
	MatmulEffMax float64
	// MSat, KSat, NSat are the half-saturation points of the efficiency
	// curve in the per-chip M (rows = tokens), K (contraction) and N
	// (output) dimensions.
	MSat, KSat, NSat float64
	// AttnEff is the FLOPS fraction achieved by the attention einsums
	// (small batched matmuls; decode attention is memory-bound anyway).
	AttnEff float64
	// OverlapFrac is the fraction of per-layer matmul time that can hide
	// communication (Looped CollectiveEinsum, Section 3.5). Overlap
	// applies only to the bandwidth component of the comm term: the
	// hop-latency floor (CollectiveHops × HopLatency) is charged
	// unconditionally, because chunk-streamed compute hides bytes in
	// flight but cannot remove the serial link traversals of the ring.
	// The functional counterpart is mesh.MeasuredOverlapFrac on a
	// Streamed engine session. The published MFU anchors already absorb
	// the overlap the authors achieved, so the calibrated default is 0
	// (communication fully exposed on top of the calibrated compute
	// time); raise it to ablate.
	OverlapFrac float64
	// HopLatency is the fixed per-ring-step latency of a collective
	// (link/switch latency), independent of message size. A K-chip ring
	// all-gather or reduce-scatter takes K-1 steps; this is what floors
	// the minimum achievable decode latency at high chip counts.
	HopLatency float64
	// HBMBudget is the fraction of per-chip HBM usable for weights plus
	// KV cache before a configuration is declared infeasible.
	HBMBudget float64
	// Roofline, if true, overlaps weight loading with matmul compute
	// (per-layer time = max(compute, weight mem) + ...). The calibrated
	// default is additive, which matches the published anchors better.
	Roofline bool
}

// DefaultKnobs returns the calibrated constants; their residuals against
// the paper's anchors are cmd/esticalib/testdata/defaults.golden.
func DefaultKnobs() Knobs {
	return Knobs{
		MatmulEffMax: 0.88,
		MSat:         100,
		KSat:         1400,
		NSat:         1400,
		AttnEff:      0.70,
		OverlapFrac:  0,
		HopLatency:   0.5e-6,
		HBMBudget:    0.9,
	}
}

// Phase distinguishes the two inference phases, which the paper analyzes
// separately because prefill parallelizes over the input length while decode
// is sequential.
type Phase int

const (
	// PhasePrefill processes all input tokens in one forward pass.
	PhasePrefill Phase = iota
	// PhaseDecode generates tokens autoregressively, one step at a time.
	PhaseDecode
)

func (p Phase) String() string {
	if p == PhaseDecode {
		return "decode"
	}
	return "prefill"
}

// Request describes one inference configuration to cost.
type Request struct {
	Model   model.Config
	System  hardware.System
	Weights model.DType
	// KVDType is the KV-cache storage format. The default (BF16) is the
	// paper's baseline; Int8 models the quantize-at-append cache: half the
	// attention phase's KV memory traffic and half the cache bytes against
	// the HBM budget, so roughly twice the feasible context or batch.
	KVDType model.DType
	// WireDType is the element format of the collective payloads on the
	// interconnect — the activation all-gathers, reduce-scatters and
	// all-to-alls each layout induces, and the weight-gathered layouts'
	// per-layer staging. The default (BF16) is the paper's baseline;
	// Int8 models per-chunk-quantized collective payloads
	// (engine.Options.WireDType functionally), halving exposed
	// communication time in every activation-bound layout. Weight-gather
	// traffic moves at the cheaper of the at-rest and wire formats:
	// at-rest int8 shards ship as-is over a wider wire, and an int8 wire
	// quantizes wider at-rest shards at the fabric boundary — matching
	// the functional engine, whose int8 wire quantizes the
	// weight-gathered staging like any other chunk. The per-chunk scale
	// overhead (4 bytes per message) is negligible at analytic scales
	// and ignored here; commcost's *WireVolume forms account it exactly.
	WireDType model.DType
	// FFN and Attn are the partitioning layouts for the phase being
	// evaluated.
	FFN  partition.FFNLayout
	Attn partition.AttnLayout
	// Batch is the number of sequences.
	Batch int
	// Context is the number of input/context tokens per sequence
	// processed by this pass.
	Context int
	// Past is the number of tokens per sequence already present in the KV
	// cache before this pass — the paper's "incremental processing of
	// sequences during prefill" (Section 3.5): a chatbot turn prefills
	// only the new user tokens against a cached conversation history.
	Past int
	// Gen is the number of tokens to generate (decode steps).
	Gen int
}

// Validate sanity-checks the request: a valid model, batch and lengths,
// layouts and dtypes this package can price, and a torus of at least one
// chip per axis.
func (r Request) Validate() error {
	if err := r.Model.Validate(); err != nil {
		return err
	}
	if r.Batch < 1 {
		return fmt.Errorf("perf: batch %d < 1", r.Batch)
	}
	if r.Context < 0 || r.Gen < 0 || r.Past < 0 {
		return fmt.Errorf("perf: negative context, past or gen")
	}
	if !r.FFN.Known() {
		return fmt.Errorf("perf: unknown FFN layout %v", r.FFN)
	}
	if !r.Attn.Known() {
		return fmt.Errorf("perf: unknown attention layout %v", r.Attn)
	}
	if !r.System.Torus.Valid() {
		return fmt.Errorf("perf: invalid torus %v", r.System.Torus)
	}
	for _, d := range []model.DType{r.Weights, r.KVDType, r.WireDType} {
		if !d.Known() {
			return fmt.Errorf("perf: unknown dtype %d", d)
		}
	}
	return nil
}

// Breakdown is the additive decomposition of a phase's time.
type Breakdown struct {
	Compute   float64 // matmul time (efficiency-adjusted)
	WeightMem float64 // weight HBM traffic time
	KVMem     float64 // KV-cache HBM traffic time
	Comm      float64 // exposed interconnect time (bandwidth + hop floor)
	// CommFloor is the serial hop-latency portion of Comm — the
	// CollectiveHops × HopLatency term no compute overlap can hide (one
	// link traversal per ring step on the critical path). Comm - CommFloor
	// is the exposed bandwidth component, the only part OverlapFrac
	// shrinks. Informational: CommFloor is already inside Comm, so Total
	// does not add it again.
	CommFloor float64
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.Compute + b.WeightMem + b.KVMem + b.Comm
}

func (b *Breakdown) add(o Breakdown) {
	b.Compute += o.Compute
	b.WeightMem += o.WeightMem
	b.KVMem += o.KVMem
	b.Comm += o.Comm
	b.CommFloor += o.CommFloor
}

func (b Breakdown) scale(f float64) Breakdown {
	return Breakdown{
		Compute:   b.Compute * f,
		WeightMem: b.WeightMem * f,
		KVMem:     b.KVMem * f,
		Comm:      b.Comm * f,
		CommFloor: b.CommFloor * f,
	}
}

// Result is the costed outcome of a phase.
type Result struct {
	Phase Phase
	// Time is the wall-clock for the whole phase in seconds.
	Time float64
	// StepTime is Time per decode step (== Time for prefill).
	StepTime float64
	// Tokens is the token count the phase processed (prefill: B·Context)
	// or produced (decode: B·Gen).
	Tokens float64
	// MFU is model FLOPS utilization per Section 2.
	MFU float64
	// Cost is chip-seconds per token: nchips·Time/Tokens (Section 4.4).
	Cost float64
	// Breakdown decomposes Time.
	Breakdown Breakdown
	// Feasible is false when the configuration does not fit in memory (or
	// violates a layout constraint); Reason says why.
	Feasible bool
	Reason   string
}

func infeasible(phase Phase, reason string) Result {
	return Result{Phase: phase, Feasible: false, Reason: reason,
		Time: math.Inf(1), StepTime: math.Inf(1), Cost: math.Inf(1)}
}

// matmulEff is the empirical efficiency curve over per-chip matmul dims.
func (k Knobs) matmulEff(m, kd, n float64) float64 {
	if m <= 0 || kd <= 0 || n <= 0 {
		return 1e-9
	}
	return k.MatmulEffMax * (m / (m + k.MSat)) * (kd / (kd + k.KSat)) * (n / (n + k.NSat))
}

// stage is one fused matmul of a Transformer layer.
type stage struct {
	params float64 // weight elements
	inIsE  bool    // true: contracts the E dim (input projection); false: contracts the F-like dim
}

// stages decomposes a layer into its matmuls. The parallel formulation fuses
// everything into two big matmuls (Section 3.4); the serial formulation runs
// four separate, narrower ones, which both doubles the activation
// aggregation and lowers matmul efficiency — the two effects behind the
// paper's 14% serial penalty.
func stages(c model.Config) []stage {
	e := float64(c.DModel)
	f := float64(c.DFF)
	hq := float64(c.Heads * c.HeadDim)
	kvq := float64(c.KVHeads * c.HeadDim)
	gm := float64(c.FFNMatrices() - 1) // input-side FFN matrices
	if c.ParallelBlock {
		return []stage{
			{params: e * (gm*f + hq + 2*kvq), inIsE: true},
			{params: (f + hq) * e, inIsE: false},
		}
	}
	return []stage{
		{params: e * gm * f, inIsE: true},       // FFN in
		{params: f * e, inIsE: false},           // FFN out
		{params: e * (hq + 2*kvq), inIsE: true}, // QKV
		{params: hq * e, inIsE: false},          // attention out
	}
}

// layerStep costs one forward pass of `tokens` logical tokens through one
// layer at attention context `ctx`, returning the per-layer breakdown.
func layerStep(r Request, k Knobs, plan partition.FFNPlan, attn partition.AttnPlan,
	tokens, ctx float64, phase Phase) Breakdown {

	c := r.Model
	sys := r.System
	n := float64(sys.Chips())
	peak := sys.Chip.PeakFLOPS
	hbm := sys.Chip.HBMBandwidth
	e := float64(c.DModel)

	var b Breakdown

	// Matmul compute with per-stage per-chip shapes.
	m := tokens / float64(plan.TokenSplit)
	for _, s := range stages(c) {
		width := s.params / e // the F-like logical width of this matmul
		var kd, nd float64
		if s.inIsE {
			kd = e / float64(plan.ESplit)
			nd = width / float64(plan.FSplit)
		} else {
			kd = width / float64(plan.FSplit)
			nd = e / float64(plan.ESplit)
		}
		flops := 2 * s.params * tokens
		b.Compute += flops / (n * peak * k.matmulEff(m, kd, nd))
	}

	// Weight memory: every chip streams the layer's weights once per pass.
	// Weight-gathered layouts stream the gathered (larger) working set.
	layerBytes := c.WeightBytesPerLayer(r.Weights)
	gathered := layerBytes * float64(plan.GatherFactor()) / n
	wm := gathered / hbm
	if k.Roofline {
		// Weight loads overlap with compute; only the excess is exposed.
		if wm > b.Compute {
			b.WeightMem = wm - b.Compute
		}
	} else {
		b.WeightMem = wm
	}

	// Attention: KV-cache memory traffic and attention einsum compute.
	kvLogical := float64(r.Batch) * ctx * c.KVBytesPerTokenPerLayerAs(r.KVDType)
	kvPerChip := kvLogical * kvShardFactor(attn, r.Batch)
	tKV := kvPerChip / hbm
	attnFLOPs := 2 * 2 * tokens * ctx * float64(c.Heads*c.HeadDim)
	tAttn := attnFLOPs / (n * peak * k.AttnEff)
	// The attention einsum streams the KV cache while computing; the
	// larger of the two binds.
	if tKV > tAttn {
		b.KVMem = tKV
	} else {
		b.KVMem = tAttn
	}

	// Communication: FFN activation/weight collectives (+ attention's own
	// pair when the block is serial) and the batch-sharding all-to-alls,
	// at the wire dtype's bytes per activation element. Weight-gathered
	// staging travels at the cheaper of the at-rest and wire formats
	// (see Request.WireDType).
	actBytes := r.WireDType.Bytes()
	commWeights := r.Weights
	if r.WireDType.Bytes() < commWeights.Bytes() {
		commWeights = r.WireDType
	}
	layerCommBytes := c.WeightBytesPerLayer(commWeights)
	// A parallel block fuses its projections into one in- and one
	// out-projection and pays one set of collectives (Section 3.4); a
	// serial block pays a set for its attention and another for its FFN,
	// each moving half the layer's weights under a weight-gathered layout.
	// Every set carries the norm statistic (commcost.NormStatVolume).
	attnIn, ffnIn, attnOut, ffnOut := commcost.BlockWidths(c)
	set := func(fIn, fOut, weightBytes float64) float64 {
		v := commcost.FFNLayerComm(plan, tokens, e, fIn, fOut, actBytes, weightBytes).Total() + commcost.NormStatVolume(plan, tokens)
		return commcost.Time(v, sys.Chip.NetworkBandwidth)
	}
	var comm float64
	if c.ParallelBlock {
		comm = set(attnIn+ffnIn, attnOut+ffnOut, layerCommBytes)
	} else {
		comm = set(ffnIn, ffnOut, layerCommBytes*0.5) + set(attnIn, attnOut, layerCommBytes*0.5)
	}
	if phase == PhaseDecode {
		comm += commcost.Time(commcost.AttnAllToAllBytes(attn, tokens, c.HeadDim, actBytes), sys.Chip.NetworkBandwidth)
	}
	// Looped CollectiveEinsum (Section 3.5) hides up to OverlapFrac of
	// compute time — but only from the bandwidth component above: chunking
	// the matmul into the ring schedule streams bytes behind compute, yet
	// every ring step's link traversal stays serial on the critical path.
	// The hop-latency floor is therefore charged unconditionally, never
	// reduced by overlap. (An earlier form subtracted the overlap from the
	// combined term, letting OverlapFrac ≈ 1 erase the floor entirely and
	// report zero comm — the mis-pricing behind the former 0.92x 64-chip
	// int8-wire decode ratio; the hop-floor regression test pins the fix.)
	exposed := comm - k.OverlapFrac*b.Compute
	if exposed < 0 {
		exposed = 0
	}
	// Fixed per-step latency of the ring collectives: bandwidth terms
	// shrink with more chips, but step counts grow, flooring the minimum
	// latency at high chip counts.
	floor := float64(CollectiveHops(plan, attn, c.ParallelBlock, phase)) * k.HopLatency
	b.Comm = exposed + floor
	b.CommFloor = floor
	return b
}

// CollectiveHops counts the ring steps of one layer's collectives under a
// plan (its axis groups come from the layout table in package partition):
// each all-gather or reduce-scatter over a K-chip group is K-1 steps. A
// block body is an all-gather over Outer, a reduce-scatter over Inner, an
// all-gather over Inner and a reduce-scatter over Outer; a parallel block
// runs one body, a serial block two. The weight all-gather over Gather
// stages the layer once. The batch-sharding all-to-alls are counted as one
// torus-diameter traversal, X+Y+Z hops, not as ring steps: they are direct
// pairwise messages, 2·(n-1) of them a chip a layer on the functional mesh,
// sent at once rather than relayed.
func CollectiveHops(plan partition.FFNPlan, attn partition.AttnPlan, parallel bool, phase Phase) int {
	t := plan.Torus
	g, o, i := plan.TokenSplit, plan.FSplit, plan.ESplit // |Gather|, |Outer|, |Inner|
	sets := 2
	if parallel {
		sets = 1
	}
	hops := sets*(2*(o-1)+2*(i-1)) + (g - 1)
	if phase == PhaseDecode && attn.NeedsAllToAll() {
		hops += t.X + t.Y + t.Z
	}
	return hops
}

// ChipMessages is the messages a chip sends a layer on the functional mesh
// (package engine) running the program CollectiveHops prices for a decode
// step: one a ring step, and in place of the all-to-alls' diameter term
// their 2·(n-1) direct messages over the n-chip activation group — none
// under a weight-gathered layout, whose chips hold their own sequences and
// attend locally.
func ChipMessages(plan partition.FFNPlan, attn partition.AttnPlan, parallel bool) int {
	msgs := CollectiveHops(plan, attn, parallel, PhaseDecode)
	if attn.NeedsAllToAll() {
		t := plan.Torus
		msgs -= t.X + t.Y + t.Z
		if n := t.Chips() / plan.TokenSplit; n > 1 {
			msgs += 2 * (n - 1)
		}
	}
	return msgs
}

// kvShardFactor returns the fraction of the logical KV cache each chip
// holds, accounting for partial batch sharding when batch < nchips.
func kvShardFactor(attn partition.AttnPlan, batch int) float64 {
	n := attn.Torus.Chips()
	switch attn.Layout {
	case partition.AttnShardBatch:
		ways := n
		if batch < ways {
			ways = batch
		}
		if ways < 1 {
			ways = 1
		}
		return 1 / float64(ways)
	case partition.AttnShardHeads:
		return attn.KVReplication() / float64(n)
	}
	panic("perf: unknown attention layout")
}

// embedStep costs the unembedding matmul (logits) plus its weight traffic
// for one pass of `tokens` tokens. The input lookup is free; the output
// projection is a real [tokens, E] × [E, vocab] matmul sharded over all
// chips.
func embedStep(r Request, k Knobs, plan partition.FFNPlan, tokens float64) Breakdown {
	c := r.Model
	sys := r.System
	n := float64(sys.Chips())
	params := c.EmbeddingParams()
	m := tokens / float64(plan.TokenSplit)
	eff := k.matmulEff(m, float64(c.DModel), params/float64(c.DModel)/n)
	var b Breakdown
	b.Compute = 2 * params * tokens / (n * sys.Chip.PeakFLOPS * eff)
	b.WeightMem = params * r.Weights.Bytes() / n / sys.Chip.HBMBandwidth
	return b
}

// checkMemory verifies weights plus the KV cache at maximum context fit in
// the HBM budget.
func checkMemory(r Request, k Knobs, attn partition.AttnPlan, maxCtx float64) (ok bool, reason string) {
	c := r.Model
	sys := r.System
	n := float64(sys.Chips())
	weights := c.WeightBytes(r.Weights) / n
	kv := float64(r.Batch) * maxCtx * c.KVBytesPerTokenAs(r.KVDType) * kvShardFactor(attn, r.Batch)
	budget := k.HBMBudget * sys.Chip.HBMBytes
	if weights+kv > budget {
		return false, fmt.Sprintf("OOM: weights %.1f GiB + KV %.1f GiB > budget %.1f GiB/chip",
			weights/(1<<30), kv/(1<<30), budget/(1<<30))
	}
	return true, ""
}

// Prefill costs processing Batch·Context input tokens in one forward pass.
func Prefill(r Request, k Knobs) Result {
	if err := r.Validate(); err != nil {
		return infeasible(PhasePrefill, err.Error())
	}
	plan := partition.PlanFFN(r.FFN, r.System.Torus)
	attn := partition.PlanAttn(r.Attn, r.System.Torus, r.Model.Heads, r.Model.KVHeads)
	if ok, reason := checkMemory(r, k, attn, float64(r.Past+r.Context)); !ok {
		return infeasible(PhasePrefill, reason)
	}
	tokens := float64(r.Batch) * float64(r.Context)
	// Causal attention over the new tokens sees the cached history plus an
	// average of half the new tokens.
	b := layerStep(r, k, plan, attn, tokens, float64(r.Past)+float64(r.Context)/2, PhasePrefill)
	b = b.scale(float64(r.Model.Layers))
	b.add(embedStep(r, k, plan, tokens))
	return finish(r, PhasePrefill, b, tokens, 1)
}

// PrefillExpected costs a prefill whose leading prefixLen tokens may be
// served from a shared-prefix KV cache: with probability hitRate the pass
// prefills only Context-prefixLen suffix tokens against prefixLen cached
// positions (the Past mechanism above), and with probability 1-hitRate it
// pays the full cold prefill. The returned Result blends the two outcomes'
// time, breakdown and processed-token count — the expected admission cost
// of a template-heavy workload, which is what lets Analyze/Tune size a
// deployment by its prefix hit rate instead of assuming every prompt is
// cold. hitRate 0 or prefixLen 0 degrade to a plain Prefill.
func PrefillExpected(r Request, k Knobs, hitRate float64, prefixLen int) Result {
	if hitRate == 0 || prefixLen == 0 {
		return Prefill(r, k)
	}
	if math.IsNaN(hitRate) || hitRate < 0 || hitRate > 1 {
		return infeasible(PhasePrefill, fmt.Sprintf("perf: prefix hit rate %g outside [0,1]", hitRate))
	}
	if prefixLen < 0 || prefixLen >= r.Context {
		return infeasible(PhasePrefill, fmt.Sprintf("perf: prefix length %d outside [0, context %d)", prefixLen, r.Context))
	}
	cold := Prefill(r, k)
	if !cold.Feasible {
		return cold
	}
	hot := r
	hot.Past = r.Past + prefixLen
	hot.Context = r.Context - prefixLen
	warm := Prefill(hot, k)
	if !warm.Feasible {
		return warm
	}
	b := warm.Breakdown.scale(hitRate)
	b.add(cold.Breakdown.scale(1 - hitRate))
	tokens := hitRate*warm.Tokens + (1-hitRate)*cold.Tokens
	return finish(r, PhasePrefill, b, tokens, 1)
}

// Decode costs generating Gen tokens autoregressively on top of an existing
// Context. The KV cache grows by one token per step; the per-step cost is
// integrated over steps.
func Decode(r Request, k Knobs) Result {
	if err := r.Validate(); err != nil {
		return infeasible(PhaseDecode, err.Error())
	}
	if r.Gen < 1 {
		return infeasible(PhaseDecode, "perf: decode needs Gen >= 1")
	}
	plan := partition.PlanFFN(r.FFN, r.System.Torus)
	attn := partition.PlanAttn(r.Attn, r.System.Torus, r.Model.Heads, r.Model.KVHeads)
	maxCtx := float64(r.Past + r.Context + r.Gen)
	if ok, reason := checkMemory(r, k, attn, maxCtx); !ok {
		return infeasible(PhaseDecode, reason)
	}
	tokens := float64(r.Batch) // one token per sequence per step
	var total Breakdown
	// Integrate KV growth in a few representative chunks rather than
	// per-step: context changes slowly relative to step cost.
	const chunks = 8
	steps := r.Gen
	for i := 0; i < chunks; i++ {
		lo := steps * i / chunks
		hi := steps * (i + 1) / chunks
		if hi == lo {
			continue
		}
		midCtx := float64(r.Past+r.Context) + float64(lo+hi)/2
		b := layerStep(r, k, plan, attn, tokens, midCtx, PhaseDecode)
		b = b.scale(float64(r.Model.Layers))
		b.add(embedStep(r, k, plan, tokens))
		total.add(b.scale(float64(hi - lo)))
	}
	return finish(r, PhaseDecode, total, float64(r.Batch)*float64(r.Gen), r.Gen)
}

// DecodeProfile returns the per-step cost of each decode step individually
// (exact per-step context, no chunked integration) — the step-time growth a
// serving system sees as the KV cache fills. The sum of the profile is
// within the chunking error of Decode's Time.
func DecodeProfile(r Request, k Knobs) []Result {
	if err := r.Validate(); err != nil || r.Gen < 1 {
		return nil
	}
	plan := partition.PlanFFN(r.FFN, r.System.Torus)
	attn := partition.PlanAttn(r.Attn, r.System.Torus, r.Model.Heads, r.Model.KVHeads)
	if ok, _ := checkMemory(r, k, attn, float64(r.Past+r.Context+r.Gen)); !ok {
		return nil
	}
	out := make([]Result, r.Gen)
	for step := 0; step < r.Gen; step++ {
		ctx := float64(r.Past+r.Context) + float64(step)
		b := layerStep(r, k, plan, attn, float64(r.Batch), ctx, PhaseDecode)
		b = b.scale(float64(r.Model.Layers))
		b.add(embedStep(r, k, plan, float64(r.Batch)))
		out[step] = finish(r, PhaseDecode, b, float64(r.Batch), 1)
	}
	return out
}

func finish(r Request, phase Phase, b Breakdown, tokens float64, steps int) Result {
	t := b.Total()
	n := float64(r.System.Chips())
	ideal := r.Model.MatmulFLOPsPerToken() * tokens / (n * r.System.Chip.PeakFLOPS)
	res := Result{
		Phase:     phase,
		Time:      t,
		StepTime:  t / float64(steps),
		Tokens:    tokens,
		MFU:       ideal / t,
		Cost:      n * t / tokens,
		Breakdown: b,
		Feasible:  true,
	}
	return res
}
