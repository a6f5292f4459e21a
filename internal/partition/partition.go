// Package partition implements the paper's multi-axis tensor-partitioning
// framework (Section 3): the five feedforward-layer layouts (1D
// weight-stationary, 2D weight-stationary, and the X / XY / XYZ
// weight-gathered variants) and the attention-layer sharding choices
// (sharded over heads vs sharded over batch), together with the per-chip
// shard algebra each layout induces — how the E (d_model), F (d_ff), token,
// head, and batch dimensions split across the physical torus axes.
//
// The numeric cost of the communication these layouts require lives in
// package commcost; the wall-clock model lives in package perf. This package
// is pure shape algebra.
package partition

import (
	"fmt"

	"esti/internal/hardware"
)

// FFNLayout enumerates the feedforward partitioning strategies of
// Sections 3.2.1-3.2.3.
type FFNLayout int

const (
	// FFN1DWeightStationary shards each weight matrix along d_ff over all
	// chips (Megatron-style); activations are aggregated over all chips
	// between every pair of matmuls.
	FFN1DWeightStationary FFNLayout = iota
	// FFN2DWeightStationary shards weights along both d_model (over the
	// torus X axis) and d_ff (over Y·Z); activation aggregation alternates
	// between the two axes, so communication scales as 1/sqrt(nchips).
	FFN2DWeightStationary
	// FFNWeightGatheredX keeps activations batch-sharded over X and
	// all-gathers weights over X just before each matmul.
	FFNWeightGatheredX
	// FFNWeightGatheredXY gathers weights over X and Y; activations are
	// batch-sharded over X·Y.
	FFNWeightGatheredXY
	// FFNWeightGatheredXYZ fully gathers weights over all chips;
	// activations stay batch-sharded over all chips and need no
	// aggregation at all.
	FFNWeightGatheredXYZ
)

// FFNLayouts lists all feedforward layouts in presentation order.
var FFNLayouts = []FFNLayout{
	FFN1DWeightStationary,
	FFN2DWeightStationary,
	FFNWeightGatheredX,
	FFNWeightGatheredXY,
	FFNWeightGatheredXYZ,
}

func (l FFNLayout) String() string {
	switch l {
	case FFN1DWeightStationary:
		return "WS 1D"
	case FFN2DWeightStationary:
		return "WS 2D"
	case FFNWeightGatheredX:
		return "WG X"
	case FFNWeightGatheredXY:
		return "WG XY"
	case FFNWeightGatheredXYZ:
		return "WG XYZ"
	}
	return fmt.Sprintf("FFNLayout(%d)", int(l))
}

// WeightGathered reports whether the layout transfers weights rather than
// keeping them stationary.
func (l FFNLayout) WeightGathered() bool {
	switch l {
	case FFNWeightGatheredX, FFNWeightGatheredXY, FFNWeightGatheredXYZ:
		return true
	}
	return false
}

// AttnLayout enumerates the attention sharding strategies of Section 3.3.
type AttnLayout int

const (
	// AttnShardHeads partitions Q/K/V activations and the KV cache over
	// the heads dimension. For multiquery models the single K/V head must
	// then be replicated on every chip, forfeiting the memory saving.
	AttnShardHeads AttnLayout = iota
	// AttnShardBatch partitions the KV cache over the batch dimension
	// (the paper's optimized multiquery layout), at the price of a pair
	// of all-to-all reshards of the small per-step Q/K/V tensors.
	AttnShardBatch
)

func (l AttnLayout) String() string {
	switch l {
	case AttnShardHeads:
		return "shard-heads"
	case AttnShardBatch:
		return "shard-batch"
	}
	return fmt.Sprintf("AttnLayout(%d)", int(l))
}

// FFNPlan is the shard algebra a feedforward layout induces on a given
// torus. All splits are counts of equal parts; dimensions must be divisible
// by their split in a functional execution (the analytical model works with
// real-valued shard sizes).
type FFNPlan struct {
	Layout FFNLayout
	Torus  hardware.Torus

	// ESplit and FSplit are the number of ways the d_model and d_ff
	// dimensions are split at *compute* time (after any weight gathering).
	ESplit, FSplit int
	// TokenSplit is the number of ways the token (batch·sequence)
	// dimension is split at compute time. Weight-stationary layouts keep
	// tokens replicated (split 1); weight-gathered layouts shard tokens
	// over the gather group.
	TokenSplit int
	// GatherGroup is the set of torus axes weights are all-gathered over
	// (nil for weight-stationary layouts).
	GatherGroup hardware.AxisGroup
	// StoredESplit and StoredFSplit describe the at-rest weight sharding,
	// which is ExFyz for every layout except 1D weight-stationary (the
	// paper keeps storage identical so prefill and decode can switch
	// layouts without resharding weights).
	StoredESplit, StoredFSplit int
}

// PlanFFN computes the shard algebra for a layout on a torus.
func PlanFFN(l FFNLayout, t hardware.Torus) FFNPlan {
	n := t.Chips()
	yz := t.Y * t.Z
	p := FFNPlan{Layout: l, Torus: t}
	switch l {
	case FFN1DWeightStationary:
		p.ESplit, p.FSplit, p.TokenSplit = 1, n, 1
		p.StoredESplit, p.StoredFSplit = 1, n
	case FFN2DWeightStationary:
		p.ESplit, p.FSplit, p.TokenSplit = t.X, yz, 1
		p.StoredESplit, p.StoredFSplit = t.X, yz
	case FFNWeightGatheredX:
		p.ESplit, p.FSplit, p.TokenSplit = 1, yz, t.X
		p.GatherGroup = hardware.GroupX
		p.StoredESplit, p.StoredFSplit = t.X, yz
	case FFNWeightGatheredXY:
		p.ESplit, p.FSplit, p.TokenSplit = 1, t.Z, t.X*t.Y
		p.GatherGroup = hardware.GroupXY
		p.StoredESplit, p.StoredFSplit = t.X, yz
	case FFNWeightGatheredXYZ:
		p.ESplit, p.FSplit, p.TokenSplit = 1, 1, n
		p.GatherGroup = hardware.GroupXYZ
		p.StoredESplit, p.StoredFSplit = t.X, yz
	default:
		panic(fmt.Sprintf("partition: unknown FFN layout %d", int(l)))
	}
	return p
}

// GatherFactor is the number of chips weights are all-gathered over
// (the paper's N; 1 for weight-stationary layouts).
func (p FFNPlan) GatherFactor() int {
	if p.GatherGroup == nil {
		return 1
	}
	return p.GatherGroup.Size(p.Torus)
}

// AttnPlan is the shard algebra for the attention KV cache and the per-step
// attention tensors.
type AttnPlan struct {
	Layout AttnLayout
	Torus  hardware.Torus
	// Heads and KVHeads mirror the model config.
	Heads, KVHeads int
}

// PlanAttn builds an attention plan.
func PlanAttn(l AttnLayout, t hardware.Torus, heads, kvHeads int) AttnPlan {
	return AttnPlan{Layout: l, Torus: t, Heads: heads, KVHeads: kvHeads}
}

// KVReplication is the number of chips each KV-cache element is stored on.
// Sharded-over-batch keeps exactly one copy. Sharded-over-heads keeps one
// copy while chips ≤ KV heads, and replicates KV heads across chip groups
// beyond that — which for multiquery (1 KV head) means full replication,
// the pathology Figure 4(b) illustrates.
func (p AttnPlan) KVReplication() float64 {
	n := p.Torus.Chips()
	switch p.Layout {
	case AttnShardBatch:
		return 1
	case AttnShardHeads:
		if n <= p.KVHeads {
			return 1
		}
		return float64(n) / float64(p.KVHeads)
	}
	panic(fmt.Sprintf("partition: unknown attention layout %d", int(p.Layout)))
}

// NeedsAllToAll reports whether the layout reshards per-step activations
// with all-to-all collectives (the batch-sharded layout does, Figure 5(b)).
func (p AttnPlan) NeedsAllToAll() bool { return p.Layout == AttnShardBatch }
