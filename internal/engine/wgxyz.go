package engine

import (
	"esti/internal/collective"
	"esti/internal/hardware"
	"esti/internal/mesh"
	"esti/internal/simd"
)

// This file is what a weight-gathered layout (Section 3.2.3 / Figure
// A.2(c)) adds to the one per-chip program. Its activation group and plan
// groups are empty, so activations stay sharded over the token (sequence)
// dimension for the entire pass. For attention that is exactly the
// batch-sharded layout, so attention is chip-local, and chipForward runs
// each chip's sequences at full width with every activation collective an
// identity. Before each layer gatherLayer all-gathers that layer's two
// matrices over the plan's Gather group, in one collective, into one pair of
// staging matrices, strip-packed like every other shard. At rest each chip
// holds row block r of both fused matrices, so every chip's share is the
// same size — whole K/V columns included once — stored strip by strip in
// the staging's order, and each gathered block lands as one contiguous run
// per strip of the staging matrices.
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
// the layer's fused matrices, for c's index r in the gather group, cut as
// the staging is (cuts) and laid out in the staging's run order — strip by
// strip, each strip's rows at the strip's own width, so the block holds
// exactly its weights and no padding.
func (ws *wgState) add(full [wgMats]matrix, cuts [wgMats]cut, c *mesh.Chip) {
	r, n := c.GroupRank(ws.gather)
	size := 0
	for _, ct := range cuts {
		size += len(ct.rows) / n * len(ct.cols)
	}
	at := make([]float32, size)
	rest := at
	for i, ct := range cuts {
		per := len(ct.rows) / n
		pack(rest, full[i].f32, full[i].n, ct, r*per, (r+1)*per, 0)
		rest = rest[per*len(ct.cols):]
	}
	ws.layers = append(ws.layers, at)
}

// gatherLayer all-gathers layer l's at-rest rows over the gather group into
// the staging matrices every chipLayer shares, placing each member's rows as
// they land while the ring relays the next: a full strip's rows in one
// copy, a padded last strip's row by row. Placement is pure data movement,
// so the staged matrices are the layer's full weights (under an int8 wire,
// their per-chunk dequantization).
func (e *Engine) gatherLayer(c *mesh.Chip, st *chipState, l int) {
	cl := &st.layers[l]
	_, n := c.GroupRank(st.wg.gather)
	all := collective.AllGatherStream(st.op(c), st.wg.gather, st.wg.layers[l], func(r int, chunk []float32) {
		for _, m := range [wgMats]*shard{&cl.win, &cl.wout} {
			per := m.k / n
			strips(m.panels, m.n, func(s, _, w int) {
				dst := m.b.F32[s*m.b.StripStride+r*per*simd.GemmStrip:]
				if w == simd.GemmStrip {
					copy(dst[:per*w], chunk)
				} else {
					for i := 0; i < per; i++ {
						copy(dst[i*simd.GemmStrip:i*simd.GemmStrip+w], chunk[i*w:])
					}
				}
				chunk = chunk[per*w:]
			})
		}
	})
	c.Recycle(all)
}
