// Package planner implements the paper's layout-selection procedure
// (Section 4.1): pick the feedforward and attention partitioning per phase
// by analytically costing the candidates — weight-stationary versus
// weight-gathered for prefill depending on tokens per batch, 2D
// weight-stationary for decode, head- versus batch-sharded attention
// depending on the attention variant and memory feasibility — and pick the
// torus slice shape for a chip count the same way.
//
// Unlike a black-box search (Alpa, GSPMD autosharding), the candidate set is
// the paper's small structured family, so the planner is exhaustive over it
// and the result is explainable: every choice comes with its predicted cost.
package planner

import (
	"fmt"
	"math"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
)

// Workload is the application-level request the plan optimizes for.
type Workload struct {
	Batch   int
	Context int // new input tokens per sequence this turn
	Past    int // tokens already in the KV cache (cached conversation history)
	Gen     int // output tokens per sequence
}

// Objective selects what the planner minimizes.
type Objective int

const (
	// MinLatency minimizes phase wall-clock.
	MinLatency Objective = iota
	// MinCost minimizes chip-seconds per token.
	MinCost
)

func (o Objective) String() string {
	if o == MinCost {
		return "min-cost"
	}
	return "min-latency"
}

// Choice is one phase's selected layouts with its predicted performance.
type Choice struct {
	FFN    partition.FFNLayout
	Attn   partition.AttnLayout
	Result perf.Result
}

// Plan is the planner's output for a workload.
type Plan struct {
	Model   model.Config
	System  hardware.System
	Weights model.DType
	Prefill Choice
	Decode  Choice
	// TotalLatency is prefill time plus decode time for the workload.
	TotalLatency float64
	Feasible     bool
	Reason       string
}

// attnCandidates returns the attention layouts worth trying for a model.
// Multiquery models choose between head sharding (no all-to-all, but KV
// replication) and batch sharding; multihead models shard KV over heads
// naturally but may still batch-shard.
func attnCandidates(c model.Config) []partition.AttnLayout {
	return []partition.AttnLayout{partition.AttnShardHeads, partition.AttnShardBatch}
}

// decodeFFNCandidates: the paper always decodes weight-stationary (the batch
// in tokens is small); both 1D and 2D are costed.
var decodeFFNCandidates = []partition.FFNLayout{
	partition.FFN1DWeightStationary,
	partition.FFN2DWeightStationary,
}

func pick(obj Objective, r perf.Result) float64 {
	if obj == MinCost {
		return r.Cost
	}
	return r.Time
}

// ChoosePrefill selects the prefill layouts for a request by exhaustive
// costing over all FFN layouts and attention candidates.
func ChoosePrefill(cfg model.Config, sys hardware.System, dt model.DType,
	w Workload, obj Objective, k perf.Knobs) (Choice, bool) {

	best := Choice{}
	bestVal := math.Inf(1)
	found := false
	for _, ffn := range partition.FFNLayouts {
		for _, attn := range attnCandidates(cfg) {
			r := perf.Prefill(perf.Request{
				Model: cfg, System: sys, Weights: dt,
				FFN: ffn, Attn: attn,
				Batch: w.Batch, Context: w.Context, Past: w.Past, Gen: w.Gen,
			}, k)
			if !r.Feasible {
				continue
			}
			if v := pick(obj, r); v < bestVal {
				best = Choice{FFN: ffn, Attn: attn, Result: r}
				bestVal = v
				found = true
			}
		}
	}
	return best, found
}

// ChooseDecode selects the decode layouts for a request.
func ChooseDecode(cfg model.Config, sys hardware.System, dt model.DType,
	w Workload, obj Objective, k perf.Knobs) (Choice, bool) {

	best := Choice{}
	bestVal := math.Inf(1)
	found := false
	for _, ffn := range decodeFFNCandidates {
		for _, attn := range attnCandidates(cfg) {
			r := perf.Decode(perf.Request{
				Model: cfg, System: sys, Weights: dt,
				FFN: ffn, Attn: attn,
				Batch: w.Batch, Context: w.Context, Past: w.Past, Gen: w.Gen,
			}, k)
			if !r.Feasible {
				continue
			}
			if v := pick(obj, r); v < bestVal {
				best = Choice{FFN: ffn, Attn: attn, Result: r}
				bestVal = v
				found = true
			}
		}
	}
	return best, found
}

// Make builds a full plan (prefill + decode) for a workload on a system.
func Make(cfg model.Config, sys hardware.System, dt model.DType,
	w Workload, obj Objective, k perf.Knobs) Plan {

	p := Plan{Model: cfg, System: sys, Weights: dt}
	pre, okP := ChoosePrefill(cfg, sys, dt, w, obj, k)
	dec, okD := ChooseDecode(cfg, sys, dt, w, obj, k)
	if w.Gen == 0 {
		okD, dec = true, Choice{}
	}
	if !okP || !okD {
		p.Feasible = false
		p.Reason = fmt.Sprintf("no feasible layout for %s on %d chips (batch %d, ctx %d)",
			cfg.Name, sys.Chips(), w.Batch, w.Context)
		return p
	}
	p.Prefill, p.Decode = pre, dec
	p.TotalLatency = pre.Result.Time + dec.Result.Time
	p.Feasible = true
	return p
}

// BestSystem picks the torus shape for a chip count that minimizes the
// objective over the whole workload, trying every enumerable slice shape.
func BestSystem(cfg model.Config, chip hardware.Chip, chips int, dt model.DType,
	w Workload, obj Objective, k perf.Knobs) (Plan, bool) {

	bestVal := math.Inf(1)
	var best Plan
	found := false
	for _, shape := range hardware.SliceShapes(chips) {
		// Degenerate pencils (1x1xN) duplicate the 2D algebra of flatter
		// shapes and are never preferable on a real torus; still costed,
		// just rarely winners.
		sys := hardware.NewSystem(chip, shape)
		p := Make(cfg, sys, dt, w, obj, k)
		if !p.Feasible {
			continue
		}
		v := p.TotalLatency
		if obj == MinCost {
			v = p.Prefill.Result.Cost + p.Decode.Result.Cost
		}
		if v < bestVal {
			best, bestVal = p, v
			found = true
		}
	}
	return best, found
}

// MaxContextKV computes the longest context a (model, attention layout,
// batch) supports on a system when `kvBudget` of total HBM is reserved for a
// KV cache stored as kv — the calculation behind Table 1 (at BF16).
// Head-sharded multiquery replicates KV per chip, so the *per-chip* budget
// binds; otherwise the aggregate budget binds. The int8 KV cache (1 byte per
// element instead of bf16's 2) doubles the servable context under the same
// budget.
func MaxContextKV(cfg model.Config, sys hardware.System, attnLayout partition.AttnLayout,
	batch int, kvBudget float64, kv model.DType) int {

	attn := partition.PlanAttn(attnLayout, sys.Torus, cfg.Heads, cfg.KVHeads)
	perChipBudget := kvBudget * sys.Chip.HBMBytes
	bytesPerCtxTokenPerChip := float64(batch) * cfg.KVBytesPerTokenAs(kv) *
		attn.KVReplication() / float64(sys.Chips())
	if bytesPerCtxTokenPerChip <= 0 {
		return 0
	}
	return int(perChipBudget / bytesPerCtxTokenPerChip)
}
