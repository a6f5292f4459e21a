// Package commcost provides the closed-form communication cost model of the
// paper's Appendix A: collective-primitive times on a torus and the
// per-layer communication volumes each feedforward / attention partitioning
// layout induces.
//
// The primitive model (A.1): an all-gather over K chips where each chip ends
// with D bytes of output moves D·(K-1)/K bytes over each chip's links, so
//
//	T = D/(bandwidth) · (K-1)/K
//
// Reduce-scatter is symmetric with D the (larger) per-chip input;
// all-reduce is the composition of the two. This holds for most real
// topologies (Chan et al. 2007), not just tori.
//
// The model charges by bytes, not elements — which is exactly why wire
// dtype is a latency lever: the *WireVolume forms parameterize every
// collective by a WireFormat (float32, bf16, or int8 scaled per chunk or
// per row), and the int8 formats' volumes are what the typed collectives in
// package collective measurably move.
package commcost

import (
	"math"

	"esti/internal/hardware"
	"esti/internal/partition"
)

// WireFormat parameterizes collective volumes by the payload's on-wire
// encoding: bytes per element plus a fixed overhead per transmitted chunk
// (the per-chunk quantization scale of the int8 format; zero for plain
// floats). The classic Appendix A forms below (AllGatherVolume etc.) take
// pre-multiplied byte counts and remain exact for zero-overhead formats;
// the *WireVolume forms take element counts and a WireFormat and are exact
// for every format, chunk overheads included — they predict the mesh's
// measured byte counters to the byte, which the collective and engine
// tests assert for both float32 and int8 payloads.
type WireFormat struct {
	// ElemBytes is the wire size of one element.
	ElemBytes float64
	// ChunkOverhead is the fixed wire bytes added to every transmitted
	// chunk (message), independent of its element count — or, when RowElems
	// is set, to every row of RowElems elements in it.
	ChunkOverhead float64
	// RowElems, when positive, is the row length ChunkOverhead is paid per.
	RowElems float64
}

// The wire formats in use: the functional engine's exact float32, the
// analytic model's bf16 activation baseline, and per-chunk-scaled int8
// (one byte per element plus a 4-byte float32 scale per chunk).
var (
	WireFP32 = WireFormat{ElemBytes: 4}
	WireBF16 = WireFormat{ElemBytes: 2}
	WireInt8 = WireFormat{ElemBytes: 1, ChunkOverhead: 4}
)

// WireInt8Rows is int8 with a 4-byte scale per row of cols elements instead
// of per chunk, the format of the engine's residual gather
// (collective.WireInt8Rows): a chunk of r rows costs r·(cols+4) bytes.
func WireInt8Rows(cols int) WireFormat {
	return WireFormat{ElemBytes: 1, ChunkOverhead: 4, RowElems: float64(cols)}
}

// Chunk is the wire bytes of one transmitted chunk of `elems` elements.
func (w WireFormat) Chunk(elems float64) float64 {
	if w.RowElems > 0 {
		return elems*w.ElemBytes + elems/w.RowElems*w.ChunkOverhead
	}
	return elems*w.ElemBytes + w.ChunkOverhead
}

// AllGatherWireVolume is the exact per-chip wire bytes of the ring
// all-gather over k chips with shardElems elements per member: k-1 chunk
// transmissions per chip, each of shardElems elements.
func AllGatherWireVolume(shardElems float64, k int, w WireFormat) float64 {
	if k <= 1 {
		return 0
	}
	return float64(k-1) * w.Chunk(shardElems)
}

// ReduceScatterWireVolume is the exact per-chip wire bytes of the ring
// reduce-scatter over k chips with inElems elements of per-chip input: k-1
// transmissions of inElems/k-element chunks.
func ReduceScatterWireVolume(inElems float64, k int, w WireFormat) float64 {
	if k <= 1 {
		return 0
	}
	return float64(k-1) * w.Chunk(inElems/float64(k))
}

// AllReduceWireVolume composes the reduce-scatter and all-gather phases
// over the same elems-element buffer: 2·(k-1) chunks of elems/k elements.
func AllReduceWireVolume(elems float64, k int, w WireFormat) float64 {
	if k <= 1 {
		return 0
	}
	return ReduceScatterWireVolume(elems, k, w) + AllGatherWireVolume(elems/float64(k), k, w)
}

// AllToAllWireVolume is the exact per-chip wire bytes of the direct
// all-to-all resharding a perChipElems-element buffer across k chips: k-1
// pairwise messages of perChipElems/k elements (the own shard stays
// local).
func AllToAllWireVolume(perChipElems float64, k int, w WireFormat) float64 {
	if k <= 1 {
		return 0
	}
	return float64(k-1) * w.Chunk(perChipElems/float64(k))
}

// frac returns the (K-1)/K efficiency factor, 0 for K <= 1 (a collective
// over one chip moves no bytes).
func frac(k int) float64 {
	if k <= 1 {
		return 0
	}
	return float64(k-1) / float64(k)
}

// AllGatherVolume is the bytes each chip transfers in an all-gather over k
// chips whose per-chip output is outBytes.
func AllGatherVolume(outBytes float64, k int) float64 { return outBytes * frac(k) }

// ReduceScatterVolume is the bytes each chip transfers in a reduce-scatter
// over k chips whose per-chip input is inBytes.
func ReduceScatterVolume(inBytes float64, k int) float64 { return inBytes * frac(k) }

// AllToAllVolume is the bytes each chip transfers resharding a per-chip
// buffer of the given size across k chips: each chip keeps 1/k of its data
// and sends the rest directly to its destination.
func AllToAllVolume(bytes float64, k int) float64 { return bytes * frac(k) }

// Time converts a per-chip communication volume into seconds at the given
// per-chip network bandwidth (bytes/s). A non-positive (or NaN) bandwidth
// is a degenerate hardware description, not a free fabric: it yields +Inf
// for any volume — including zero, which previously masked the error as a
// zero-cost transfer — so infeasibility surfaces in the totals instead of
// silently pricing collectives at 0 or propagating a -0/negative quotient.
func Time(volumeBytes, bandwidth float64) float64 {
	if math.IsNaN(volumeBytes) || math.IsNaN(bandwidth) || bandwidth <= 0 {
		return math.Inf(1)
	}
	if volumeBytes <= 0 {
		return 0
	}
	return volumeBytes / bandwidth
}

// FFNComm is the per-chip, per-layer communication a feedforward layout
// requires, split into the activation aggregation traffic and (for
// weight-gathered layouts) the weight broadcast traffic.
type FFNComm struct {
	// ActBytes is the per-chip activation collective volume.
	ActBytes float64
	// WeightBytes is the per-chip weight all-gather volume (zero for
	// weight-stationary layouts).
	WeightBytes float64
}

// Total is the combined per-chip volume.
func (c FFNComm) Total() float64 { return c.ActBytes + c.WeightBytes }

// FFNLayerComm evaluates the layout's per-layer communication for a pass of
// `tokens` logical tokens through a layer with model width e and
// feedforward width f, activation element size actBytes, and total layer
// weight footprint layerWeightBytes (already in bytes, i.e. params·dtype).
//
// The formulas are Section 3.2 / Appendix A.2 with exact (K-1)/K factors:
//
//	1D WS:  one AG + one RS over all chips on full BLE activations.
//	2D WS:  an AG/RS pair over Y·Z on E/X-wide activations plus a pair
//	        over X on F/(Y·Z)-wide activations.
//	WG-N:   weights all-gathered over the N-chip group; activations keep a
//	        single AG/RS pair over the complement axes (none for XYZ).
func FFNLayerComm(p partition.FFNPlan, tokens, e, f, actBytes, layerWeightBytes float64) FFNComm {
	t := p.Torus
	n := t.Chips()
	yz := t.Y * t.Z
	switch p.Layout {
	case partition.FFN1DWeightStationary:
		per := tokens * e * actBytes
		return FFNComm{ActBytes: AllGatherVolume(per, n) + ReduceScatterVolume(per, n)}
	case partition.FFN2DWeightStationary:
		ePer := tokens * (e / float64(t.X)) * actBytes
		fPer := tokens * (f / float64(yz)) * actBytes
		act := AllGatherVolume(ePer, yz) + ReduceScatterVolume(ePer, yz) +
			AllGatherVolume(fPer, t.X) + ReduceScatterVolume(fPer, t.X)
		return FFNComm{ActBytes: act}
	case partition.FFNWeightGatheredX:
		ng := t.X
		w := AllGatherVolume(layerWeightBytes*float64(ng)/float64(n), ng)
		per := (tokens / float64(ng)) * e * actBytes
		act := AllGatherVolume(per, yz) + ReduceScatterVolume(per, yz)
		return FFNComm{ActBytes: act, WeightBytes: w}
	case partition.FFNWeightGatheredXY:
		ng := t.X * t.Y
		w := AllGatherVolume(layerWeightBytes*float64(ng)/float64(n), ng)
		per := (tokens / float64(ng)) * e * actBytes
		act := AllGatherVolume(per, t.Z) + ReduceScatterVolume(per, t.Z)
		return FFNComm{ActBytes: act, WeightBytes: w}
	case partition.FFNWeightGatheredXYZ:
		w := AllGatherVolume(layerWeightBytes, n)
		return FFNComm{WeightBytes: w}
	}
	panic("commcost: unknown FFN layout")
}

// AttnAllToAllBytes is the per-chip volume of the two all-to-all reshards
// the batch-sharded multiquery layout adds (Figure 5(b)): Q, K and V move
// from head-sharded to batch-sharded before attention, and the attention
// output moves back. tokens is the per-step token count (the batch during
// decode), actBytes the activation element size.
func AttnAllToAllBytes(p partition.AttnPlan, tokens float64, headDim int, actBytes float64) float64 {
	if !p.NeedsAllToAll() {
		return 0
	}
	n := p.Torus.Chips()
	qkv := tokens * float64(p.Heads+2*p.KVHeads) * float64(headDim) * actBytes / float64(n)
	out := tokens * float64(p.Heads) * float64(headDim) * actBytes / float64(n)
	return AllToAllVolume(qkv, n) + AllToAllVolume(out, n)
}

// OptimalGatherFactor is the continuous minimizer of the weight-gathered
// total volume: N* = sqrt(2·tokens·E·actBytes·nchips / layerWeightBytes)
// (Appendix A.2.2; with the paper's 2-matrix bf16 MLP this reduces to their
// N = sqrt(B·L·nchips/F)). Callers clamp to the available variants
// {X, X·Y, X·Y·Z}.
func OptimalGatherFactor(tokens, e, actBytes, layerWeightBytes float64, nchips int) float64 {
	if layerWeightBytes <= 0 {
		return float64(nchips)
	}
	nOpt := math.Sqrt(2 * tokens * e * actBytes * float64(nchips) / layerWeightBytes)
	return math.Max(1, math.Min(nOpt, float64(nchips)))
}

// BestFFNLayout evaluates all five layouts and returns the one with minimum
// total per-layer volume, with its communication. Ties break toward the
// earlier layout in partition.FFNLayouts order (weight-stationary first).
func BestFFNLayout(t hardware.Torus, tokens, e, f, actBytes, layerWeightBytes float64) (partition.FFNLayout, FFNComm) {
	best := partition.FFN1DWeightStationary
	var bestComm FFNComm
	bestTotal := math.Inf(1)
	for _, l := range partition.FFNLayouts {
		c := FFNLayerComm(partition.PlanFFN(l, t), tokens, e, f, actBytes, layerWeightBytes)
		if c.Total() < bestTotal {
			best, bestComm, bestTotal = l, c, c.Total()
		}
	}
	return best, bestComm
}
