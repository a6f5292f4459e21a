package engine

import (
	"esti/internal/collective"
	"esti/internal/hardware"
	"esti/internal/mesh"
)

// This file is what a weight-gathered layout (Section 3.2.3 / Figure
// A.2(c)) adds to the one per-chip program. Its activation group and plan
// groups are empty, so activations stay sharded over the token (sequence)
// dimension for the entire pass. For attention that is exactly the
// batch-sharded layout, so attention is chip-local, and chipForward runs
// each chip's sequences at full width with every activation collective an
// identity. Before each layer gatherLayer all-gathers that layer's two
// matrices over the plan's Gather group, in one collective, into one pair of
// staging matrices. At rest each chip holds row block r of both fused
// matrices, so every chip's share is the same size — whole K/V columns
// included once — and each gathered block lands as a contiguous run of the
// staging matrix.
//
// Per-layer communication is therefore layerWeightBytes·(n-1)/n of weight
// traffic in n-1 messages and zero activation traffic — the XYZ line of
// Figure 3 — which the tests assert against the measured mesh bytes.

// wgMats is the number of weight matrices a layer gathers: W_in and W_out.
const wgMats = 2

// wgState is a chip's at-rest weights, per layer its row blocks of W_in and
// W_out flattened one after the other for one gather, and the group they
// are gathered over.
type wgState struct {
	layers [][]float32
	gather hardware.AxisGroup
}

// add appends a layer's at-rest rows to chip c's: row block r of each of
// the layer's fused matrices, for c's index r in the gather group.
func (ws *wgState) add(full [wgMats]shard, c *mesh.Chip) {
	r, n := c.GroupRank(ws.gather)
	var at []float32
	for _, m := range full {
		per := len(m.b.F32) / n
		at = append(at, m.b.F32[r*per:(r+1)*per]...)
	}
	ws.layers = append(ws.layers, at)
}

// gatherLayer all-gathers layer l's at-rest rows over the gather group into
// the staging matrices every chipLayer shares, placing each member's rows as
// they land while the ring relays the next. Placement is pure data
// movement, so the staged matrices are the layer's full weights (under an
// int8 wire, their per-chunk dequantization).
func (e *Engine) gatherLayer(c *mesh.Chip, st *chipState, l int) {
	cl := &st.layers[l]
	in, out := cl.win.b.F32, cl.wout.b.F32
	_, n := c.GroupRank(st.wg.gather)
	inPer, outPer := len(in)/n, len(out)/n
	all := collective.AllGatherStream(st.op(c), st.wg.gather, st.wg.layers[l], func(r int, chunk []float32) {
		copy(in[r*inPer:(r+1)*inPer], chunk[:inPer])
		copy(out[r*outPer:(r+1)*outPer], chunk[inPer:])
	})
	c.Recycle(all)
}
