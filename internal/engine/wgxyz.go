package engine

import (
	"esti/internal/collective"
	"esti/internal/hardware"
	"esti/internal/mesh"
	"esti/internal/partition"
)

// This file is what a weight-gathered layout (Section 3.2.3 / Figure
// A.2(c)) adds to the one per-chip program. Its activation group and FFN
// plan groups are empty, so activations stay sharded over the token
// (sequence) dimension for the entire pass. For attention that is exactly
// the batch-sharded layout, so attention is chip-local, and chipForward runs
// each chip's sequences at full width with every activation collective an
// identity. Before each layer gatherLayer all-gathers that layer's weights
// over the plan's Gather group into one set of staging weights, from the
// at-rest shards of plan.Stored, which are the 2D weight-stationary plan's
// ("weights start in the same ExFyz layout ... so that we can use the same
// weight layout for weight-gathered (during prefill) and weight-stationary
// (during decoding)").
//
// Per-layer communication is therefore layerWeightBytes·(n-1)/n of weight
// traffic and zero activation traffic — the XYZ line of Figure 3 — which the
// tests assert against the measured mesh bytes.

// wgMats is the number of weight matrices a layer gathers, in gather order:
// gate, up, down, W_Q, W_K, W_V, W_O.
const wgMats = 7

// wgState is a chip's at-rest weight shards, flattened for gathering, per
// layer in gather order (nil gate for GELU), their cuts, and the group they
// are gathered over.
type wgState struct {
	layers [][wgMats][]float32
	cuts   [wgMats]cut
	gather hardware.AxisGroup
}

// buildWG cuts a chip's at-rest shards of plan from the full weights: its
// block of the at-rest plan for the FFN (plan.Stored, ffnPlan.block), a
// column block of query heads of W_Q, and row blocks of W_K, W_V and W_O.
func (e *Engine) buildWG(full [][wgMats]shard, plan partition.FFNPlan, rank int) *wgState {
	cfg := e.cfg
	n := e.m.Chips()
	eIdx, fIdx := e.ffnPlan(rank, plan.Stored()).block(cfg)
	hq := cfg.Heads * cfg.HeadDim / n
	heads, eRows := contiguous(rank*hq, hq), contiguous(rank*cfg.DModel/n, cfg.DModel/n)
	eAll, kvAll := contiguous(0, cfg.DModel), contiguous(0, cfg.KVHeads*cfg.HeadDim)
	ws := &wgState{gather: plan.Gather, cuts: [wgMats]cut{{eIdx, fIdx}, {eIdx, fIdx}, {fIdx, eIdx},
		{eAll, heads}, {eRows, kvAll}, {eRows, kvAll}, {heads, eAll}}}
	for _, mats := range full {
		var shards [wgMats][]float32
		for k, m := range mats {
			if m.k > 0 {
				shards[k] = m.take(ws.cuts[k]).b.F32
			}
		}
		ws.layers = append(ws.layers, shards)
	}
	return ws
}

// gatherLayer all-gathers layer l's at-rest shards over the gather group
// into the staging weights every chipLayer shares, placing each rank's chunk
// as it lands while the ring relays the next. Placement is pure data
// movement, so the staged matrices are the layer's full weights (under an
// int8 wire, their per-chunk dequantization).
func (e *Engine) gatherLayer(c *mesh.Chip, st *chipState, l int) {
	cl := &st.layers[l]
	stage := [wgMats]shard{cl.wGate, cl.wUp, cl.wDown, cl.wq, cl.wk, cl.wv, cl.wo}
	for k, at := range st.wg.layers[l] {
		if at == nil {
			continue // no gate
		}
		full, n := stage[k].b.F32, stage[k].n
		all := collective.AllGatherStream(st.op(c), st.wg.gather, at, func(r int, chunk []float32) {
			place(full, n, chunk, e.chips[r].wg.cuts[k])
		})
		c.Recycle(all)
	}
}

// place copies a gathered shard into its cut of a full row-major matrix
// with n columns.
func place(full []float32, n int, chunk []float32, ct cut) {
	w := len(ct.cols)
	runs := ct.cols[w-1]-ct.cols[0] == w-1 // contiguous columns: row copies
	for i, r := range ct.rows {
		src, dst := chunk[i*w:(i+1)*w], full[r*n:(r+1)*n]
		if runs {
			copy(dst[ct.cols[0]:], src)
			continue
		}
		for j, col := range ct.cols {
			dst[col] = src[j]
		}
	}
}
