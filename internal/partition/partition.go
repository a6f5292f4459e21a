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
// Sections 3.2.1-3.2.3; the layout table below gives each one's torus axes.
type FFNLayout int

const (
	// FFN1DWeightStationary is Megatron-style: weights split along d_ff
	// over every chip.
	FFN1DWeightStationary FFNLayout = iota
	// FFN2DWeightStationary splits weights along d_model and d_ff, so
	// communication scales as 1/sqrt(nchips).
	FFN2DWeightStationary
	// FFNWeightGatheredX, FFNWeightGatheredXY and FFNWeightGatheredXYZ
	// all-gather the weights over the named axes just before each matmul
	// and shard the tokens over them.
	FFNWeightGatheredX
	FFNWeightGatheredXY
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

// ffnTable is the paper's sharding annotation of each layout (Section 3.2,
// Figure 2: E_x F_yz, weights gathered over x, xy or xyz) as three torus
// axis groups. It is the one place a layout maps to torus axes; FFNPlan,
// commcost, perf and the functional engine all read it.
//
//	layout  Gather  Outer  Inner
//	WS 1D   ∅       XYZ    ∅      (3.2.1: d_ff over every chip)
//	WS 2D   ∅       YZ     X      (3.2.2: communication ∝ 1/√n)
//	WG X    X       YZ     ∅      (3.2.3: weights gathered over X)
//	WG XY   XY      Z      ∅
//	WG XYZ  XYZ     ∅      ∅      (no activation traffic at all)
//
// Weights are all-gathered over Gather before each matmul, and tokens are
// sharded over it. d_ff is split over Outer (the F_yz of 2D), and the FFN's
// E-wide activations are all-gathered and reduce-scattered over it.
// d_model is split over Inner (the E_x of 2D), and the FFN's F-wide hidden
// activations are reduce-scattered and all-gathered over it. Rows hold the
// hardware.Group* variables themselves, not equal slices: the mesh
// identifies a group by its slice.
var ffnTable = [...]struct {
	name                 string
	gather, outer, inner hardware.AxisGroup
}{
	FFN1DWeightStationary: {"WS 1D", nil, hardware.GroupXYZ, nil},
	FFN2DWeightStationary: {"WS 2D", nil, hardware.GroupYZ, hardware.GroupX},
	FFNWeightGatheredX:    {"WG X", hardware.GroupX, hardware.GroupYZ, nil},
	FFNWeightGatheredXY:   {"WG XY", hardware.GroupXY, hardware.GroupZ, nil},
	FFNWeightGatheredXYZ:  {"WG XYZ", hardware.GroupXYZ, nil, nil},
}

// Known reports whether l is one of FFNLayouts.
func (l FFNLayout) Known() bool { return l >= 0 && int(l) < len(ffnTable) }

func (l FFNLayout) String() string {
	if !l.Known() {
		return fmt.Sprintf("FFNLayout(%d)", int(l))
	}
	return ffnTable[l].name
}

// WeightGathered reports whether the layout transfers weights rather than
// keeping them stationary.
func (l FFNLayout) WeightGathered() bool { return l.Known() && ffnTable[l].gather != nil }

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

// Known reports whether l is one of the two attention layouts.
func (l AttnLayout) Known() bool { return l == AttnShardHeads || l == AttnShardBatch }

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
// torus: the layout's row of ffnTable and the splits it gives. All splits
// are counts of equal parts; dimensions must be divisible by their split in
// a functional execution (the analytical model works with real-valued
// shard sizes).
type FFNPlan struct {
	Layout FFNLayout
	Torus  hardware.Torus

	// Gather, Outer and Inner are the layout's axis groups (see ffnTable);
	// nil is the empty group.
	Gather, Outer, Inner hardware.AxisGroup
	// ESplit and FSplit are the number of ways the d_model and d_ff
	// dimensions are split at *compute* time (after any weight gathering):
	// the sizes of Inner and Outer.
	ESplit, FSplit int
	// TokenSplit is the number of ways the token (batch·sequence)
	// dimension is split at compute time: the size of Gather.
	TokenSplit int
	// StoredESplit and StoredFSplit are the splits of the at-rest plan
	// (Stored).
	StoredESplit, StoredFSplit int
}

// PlanFFN computes the shard algebra for a layout on a torus.
func PlanFFN(l FFNLayout, t hardware.Torus) FFNPlan {
	if !l.Known() {
		panic(fmt.Sprintf("partition: unknown FFN layout %d", int(l)))
	}
	row := ffnTable[l]
	p := FFNPlan{Layout: l, Torus: t, Gather: row.gather, Outer: row.outer, Inner: row.inner,
		ESplit: row.inner.Size(t), FSplit: row.outer.Size(t), TokenSplit: row.gather.Size(t)}
	s := p.Stored()
	p.StoredESplit, p.StoredFSplit = s.ESplit, s.FSplit
	return p
}

// Stored is the plan the weights rest in: the plan itself for a
// weight-stationary layout, the 2D plan's ExFyz blocks for a weight-gathered
// one. The paper keeps storage identical "so that we can use the same
// weight layout for weight-gathered (during prefill) and weight-stationary
// (during decoding)" (Section 3.2.3).
func (p FFNPlan) Stored() FFNPlan {
	if p.Gather == nil {
		return p
	}
	return PlanFFN(FFN2DWeightStationary, p.Torus)
}

// GatherFactor is the number of chips weights are all-gathered over
// (the paper's N; 1 for weight-stationary layouts).
func (p FFNPlan) GatherFactor() int { return p.Gather.Size(p.Torus) }

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
