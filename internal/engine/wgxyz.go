package engine

import (
	"esti/internal/collective"
	"esti/internal/hardware"
	"esti/internal/mesh"
	"esti/internal/model"
	"esti/internal/reference"
	"esti/internal/tensor"
)

// This file implements the XYZ-weight-gathered layout functionally
// (Section 3.2.3 / Figure A.2(c)): activations stay sharded over the token
// (sequence) dimension for the entire pass — which for attention is exactly
// the batch-sharded layout, so attention is chip-local — while every layer's
// weights are all-gathered over all chips just before use from the same
// ExFyz at-rest shards the 2D weight-stationary layout stores ("weights
// start in the same ExFyz layout ... so that we can use the same weight
// layout for weight-gathered (during prefill) and weight-stationary (during
// decoding)").
//
// Per-layer communication is therefore layerWeightBytes·(n-1)/n of weight
// traffic and zero activation traffic — the XYZ line of Figure 3 — which the
// tests assert against the measured mesh bytes.

// wgState is the per-chip state the weight-gathered path adds: the full
// embedding table (token-sharded activations need full-width lookup and
// logits locally).
type wgState struct {
	fullEmbed *tensor.Mat
	// At-rest ExFyz shards, flattened for gathering. Indexed per layer.
	layers []wgLayerShards
}

// wgLayerShards holds one layer's at-rest weight shards in gather-ready
// (flattened) form plus the full gains.
type wgLayerShards struct {
	gate, up, down []float32 // 2D-WS-style shards (nil gate for GELU)
	q, k, v, o     []float32 // attention shards (column/row blocks)
	normGain       []float32 // full-width gains (replicated; tiny)
	ffnNormGain    []float32
}

// buildWG slices the weights for the weight-gathered path: the FFN blocks
// the 2D plan stores (ffnPlan.block), flattened for gathering.
func (e *Engine) buildWG(w *reference.Weights, rank int, p ffnPlan) *wgState {
	cfg := e.cfg
	n := e.m.Chips()
	eIdx, fIdx := p.block(cfg)
	headsPC := cfg.Heads / n
	dh := cfg.HeadDim
	hCols := contiguous(rank*headsPC*dh, headsPC*dh)
	eBlock := cfg.DModel / n
	eRows := contiguous(rank*eBlock, eBlock)

	st := &wgState{fullEmbed: w.Embed.Clone()}
	for l := range w.Layers {
		lw := &w.Layers[l]
		ls := wgLayerShards{
			normGain:    append([]float32(nil), lw.NormGain...),
			ffnNormGain: append([]float32(nil), lw.FFNNormGain...),
			up:          selectCols(selectRows(lw.WUp, eIdx), fIdx).Data,
			down:        selectCols(selectRows(lw.WDown, fIdx), eIdx).Data,
			q:           selectCols(lw.WQ, hCols).Data,
			k:           selectRows(lw.WK, eRows).Data,
			v:           selectRows(lw.WV, eRows).Data,
			o:           selectRows(lw.WO, hCols).Data,
		}
		if lw.WGate != nil {
			ls.gate = selectCols(selectRows(lw.WGate, eIdx), fIdx).Data
		}
		st.layers = append(st.layers, ls)
	}
	return st
}

// gathered is one layer's fully assembled weights after the all-gather.
type gathered struct {
	gate, up, down *tensor.Mat
	q, k, v, o     *tensor.Mat
}

// gatherLayer all-gathers one layer's shards over all chips and reassembles
// the full matrices, accounting every weight byte as mesh traffic.
func (e *Engine) gatherLayer(c *mesh.Chip, st *chipState, ws *wgLayerShards) gathered {
	cfg := e.cfg
	n := e.m.Chips()
	dh := cfg.HeadDim
	headsPC := cfg.Heads / n

	var g gathered
	// gatherScatter runs the layer-staging all-gather, handing each rank's
	// chunk to place. Under Options.Streamed the placement copies ride the
	// chunk stream (AllGatherStream) — each rank's scatter-copy runs while
	// the next chunk relays — which is bit-identical to the barrier gather
	// since placement is pure data movement.
	gatherScatter := func(flat []float32, place func(r int, chunk []float32)) {
		if e.opts.Streamed {
			all := collective.AllGatherStream(st.op(c), hardware.GroupXYZ, flat, place)
			c.Recycle(all)
			return
		}
		all := collective.AllGather(st.op(c), hardware.GroupXYZ, flat)
		per := len(flat)
		for r := 0; r < n; r++ {
			place(r, all[r*per:(r+1)*per])
		}
		c.Recycle(all)
	}
	// 2D-stored FFN shards: rank r holds its block of the plan; reassemble
	// by scattering each rank's chunk.
	assemble2D := func(flat []float32, transposed bool) *tensor.Mat {
		rows, cols := cfg.DModel, cfg.DFF
		if transposed {
			rows, cols = cfg.DFF, cfg.DModel
		}
		full := tensor.New(rows, cols)
		gatherScatter(flat, func(r int, chunk []float32) {
			eIdx, fIdx := e.chips[r].plan.block(cfg)
			fLo, fLen := fIdx[0], len(fIdx)
			if !transposed {
				// chunk is [len(eIdx), fLen] row-major.
				for i, ei := range eIdx {
					copy(full.Row(ei)[fLo:fLo+fLen], chunk[i*fLen:(i+1)*fLen])
				}
			} else {
				// chunk is [fLen, len(eIdx)] row-major (W_down).
				for i := 0; i < fLen; i++ {
					row := full.Row(fLo + i)
					for j, ei := range eIdx {
						row[ei] = chunk[i*len(eIdx)+j]
					}
				}
			}
		})
		return full
	}
	if ws.gate != nil {
		g.gate = assemble2D(ws.gate, false)
	}
	g.up = assemble2D(ws.up, false)
	g.down = assemble2D(ws.down, true)

	// Column-block shards (W_Q): rank r holds contiguous head columns.
	gatherCols := func(flat []float32, rows, colsPC int) *tensor.Mat {
		full := tensor.New(rows, colsPC*n)
		gatherScatter(flat, func(r int, chunk []float32) {
			for i := 0; i < rows; i++ {
				copy(full.Row(i)[r*colsPC:(r+1)*colsPC], chunk[i*colsPC:(i+1)*colsPC])
			}
		})
		return full
	}
	// Row-block shards (W_K, W_V, W_O): contiguous rows per rank, so the
	// flat all-gather concatenation is already the full matrix.
	gatherRows := func(flat []float32, cols int) *tensor.Mat {
		all := collective.AllGather(st.op(c), hardware.GroupXYZ, flat)
		return tensor.FromSlice(all, len(all)/cols, cols)
	}
	g.q = gatherCols(ws.q, cfg.DModel, headsPC*dh)
	g.k = gatherRows(ws.k, cfg.KVHeads*dh)
	g.v = gatherRows(ws.v, cfg.KVHeads*dh)
	g.o = gatherRows(ws.o, cfg.DModel)
	return g
}

// chipForwardWG is one chip's body of a token-sharded weight-gathered pass
// (bound to e.runFwd like chipForward): the chip runs the sequences its
// cache shard holds end to end, and the only cross-chip traffic is the
// per-layer weight gather (plus nothing for activations). A chip that holds
// none of the pass — an admission into another chip's slot — still serves
// its weight shards to every gather and runs the rest on zero rows.
func (e *Engine) chipForwardWG(c *mesh.Chip) {
	p := &e.fw
	st := e.chips[c.Rank]
	ar := &st.arena
	ar.Reset()
	ws := st.wg
	sq := e.seqsOn(c.Rank)

	// Embed this chip's sequences only.
	x := ar.Mat(sq.count*p.steps, e.cfg.DModel)
	for i, tok := range p.tokens[sq.at*p.steps : (sq.at+sq.count)*p.steps] {
		if sq.mask != nil && !sq.mask[i/p.steps] {
			clear(x.Row(i))
			continue
		}
		copy(x.Row(i), ws.fullEmbed.Row(tok))
	}

	for l := range ws.layers {
		ls := &ws.layers[l]
		g := e.gatherLayer(c, st, ls)
		if e.cfg.ParallelBlock {
			h := tensor.RMSNorm(x, ls.normGain, 1e-6)
			attnY := e.wgAttention(st, g, h, l, sq)
			ffnY := wgFFN(st, e.cfg, g, h)
			x = tensor.AddInPlace(tensor.AddInPlace(x, attnY), ffnY)
		} else {
			h := tensor.RMSNorm(x, ls.normGain, 1e-6)
			x = tensor.AddInPlace(x, e.wgAttention(st, g, h, l, sq))
			h2 := tensor.RMSNorm(x, ls.ffnNormGain, 1e-6)
			x = tensor.AddInPlace(x, wgFFN(st, e.cfg, g, h2))
		}
	}
	e.advance(st, sq)

	final := tensor.RMSNorm(x, st.finalGain, 1e-6)
	st.logits = tensor.MatMulTInto(ar.Mat(final.Rows, e.cfg.Vocab), final, ws.fullEmbed)
}

func (e *Engine) wgAttention(st *chipState, g gathered, h *tensor.Mat, layer int, sq chipSeqs) *tensor.Mat {
	ar := &st.arena
	q := tensor.MatMulInto(ar.Mat(h.Rows, g.q.Cols), h, g.q)
	k := tensor.MatMulInto(ar.Mat(h.Rows, g.k.Cols), h, g.k)
	v := tensor.MatMulInto(ar.Mat(h.Rows, g.v.Cols), h, g.v)
	out := appendAndAttendInto(ar.Mat(q.Rows, q.Cols),
		e.cfg.HeadDim, q, st.cache, layer, sq, e.fw.steps, k, v, &st.scr)
	return tensor.MatMulInto(ar.Mat(out.Rows, g.o.Cols), out, g.o)
}

func wgFFN(st *chipState, cfg model.Config, g gathered, h *tensor.Mat) *tensor.Mat {
	ar := &st.arena
	if cfg.FFNKind == model.SwiGLU {
		gate := tensor.MatMulInto(ar.Mat(h.Rows, g.gate.Cols), h, g.gate)
		up := tensor.MatMulInto(ar.Mat(h.Rows, g.up.Cols), h, g.up)
		tensor.SiLUFast(gate)
		act := tensor.MulInto(gate, gate, up)
		return tensor.MatMulInto(ar.Mat(act.Rows, g.down.Cols), act, g.down)
	}
	act := tensor.MatMulInto(ar.Mat(h.Rows, g.up.Cols), h, g.up)
	tensor.GELU(act)
	return tensor.MatMulInto(ar.Mat(act.Rows, g.down.Cols), act, g.down)
}
