package engine

import (
	"esti/internal/collective"
	"esti/internal/hardware"
	"esti/internal/mesh"
	"esti/internal/model"
	"esti/internal/tensor"
)

// This file is the engine's Looped CollectiveEinsum path (Options.Streamed,
// Section 3.5): the FFN's matmuls run one contraction- or output-chunk at a
// time inside the streaming collectives' callbacks, so each chunk's GEMM
// slice — still the blocked, worker-pool-parallel kernels — executes while
// the ring relays the next chunk. Gather-side chunks fold into running
// accumulators with mulAcc (summation order across chunks differs from the
// barrier path's single full-width GEMM, hence token-exact rather than
// bit-exact); reduce-scatter-side chunks are produced on demand, each the
// bit-exact column block of the barrier path's full product.

// streamFFN reports whether the session's FFN takes the streamed path:
// single-chip meshes have nothing to overlap and keep the allocation-free
// barrier path.
func (e *Engine) streamFFN() bool { return e.opts.Streamed && e.m.Chips() > 1 }

// ffnStreamed is ffn with the matmuls looped into the plan's rings. The
// outer gather's chunks fold W_up/W_gate stripe-row-block products into
// F/nOuter accumulators as they arrive, and the inner reduce-scatters
// stream their input transposes (rsColsStream). The down-projection rides
// the inner gather's consumer — each arriving F chunk folds its W_down
// row-block product into the E/nInner accumulator, which the outer
// reduce-scatter then streams out — unless the inner group has one member
// and so no ring to ride: then it runs inside the outer reduce-scatter's
// producer, chunk j of the transposed partial sum (the E-column block j of
// act·W_down, transposed) computed just before the ring sends or folds it.
func (e *Engine) ffnStreamed(c *mesh.Chip, st *chipState, cl *chipLayer, h *tensor.Mat) *tensor.Mat {
	ar := &st.arena
	p := &st.plan
	tokens := h.Rows
	eChunk := h.Cols
	fOuter := e.cfg.DFF / p.nOuter

	up := ar.Mat(tokens, fOuter)
	up.Zero()
	var gate *tensor.Mat
	if e.cfg.FFNKind == model.SwiGLU {
		gate = ar.Mat(tokens, fOuter)
		gate.Zero()
	}
	full := collective.AllGatherStream(st.op(c), p.outer, h.Data,
		func(j int, chunk []float32) {
			cm := tensor.Mat{Rows: tokens, Cols: eChunk, Data: chunk}
			cl.wUpBlk[j].mulAcc(up, &cm)
			if gate != nil {
				cl.wGateBlk[j].mulAcc(gate, &cm)
			}
		})
	c.Recycle(full)
	cl.wUp.finishAcc(up)
	act := rsColsStream(ar, st.op(c), p.inner, up, p.nInner) // [tokens, F/n]
	if gate != nil {
		cl.wGate.finishAcc(gate)
		gateShard := rsColsStream(ar, st.op(c), p.inner, gate, p.nInner)
		tensor.SiLUFast(gateShard)
		act = tensor.MulInto(gateShard, gateShard, act)
	} else {
		tensor.GELU(act)
	}

	if p.nInner == 1 {
		tr := ar.Mat(eChunk*p.nOuter, tokens) // transposed partial, produced per chunk
		tmp := ar.Mat(tokens, eChunk)
		shard := collective.ReduceScatterStream(st.op(c), p.outer, tr.Data,
			func(j int, chunk []float32) {
				cl.wDownBlk[j].mulInto(tmp, act)
				cv := tensor.Mat{Rows: eChunk, Cols: tokens, Data: chunk}
				tensor.TransposeInto(&cv, tmp)
			})
		return colShard(ar, c, shard, tokens)
	}
	fChunk := act.Cols
	down := ar.Mat(tokens, eChunk*p.nOuter) // [tokens, E/nInner] accumulator
	down.Zero()
	fullAct := collective.AllGatherStream(st.op(c), p.inner, act.Data,
		func(j int, chunk []float32) {
			cm := tensor.Mat{Rows: tokens, Cols: fChunk, Data: chunk}
			cl.wDownBlk[j].mulAcc(down, &cm)
		})
	c.Recycle(fullAct)
	cl.wDown.finishAcc(down)
	return rsColsStream(ar, st.op(c), p.outer, down, p.nOuter)
}

// rsColsStream is rsCols with the input transpose folded into the ring:
// each chunk of the transposed partial — a column block of m — is
// transposed into the reduce-scatter workspace just before the ring sends
// or folds it, instead of transposing the whole matrix up front. Values on
// the wire are identical to rsCols (transposition is pure data movement),
// so the result is bit-identical. Group-of-one returns m, like rsCols.
func rsColsStream(ar *tensor.Arena, o collective.Op, g hardware.AxisGroup, m *tensor.Mat, size int) *tensor.Mat {
	if size == 1 {
		return m
	}
	rowsPer := m.Cols / size
	tr := ar.Mat(m.Cols, m.Rows)
	md, cols := m.Data, m.Cols
	shard := collective.ReduceScatterStream(o, g, tr.Data,
		func(j int, chunk []float32) {
			// Row i of the chunk is column j·rowsPer+i of m.
			for i := 0; i < rowsPer; i++ {
				cc := j*rowsPer + i
				dst := chunk[i*m.Rows : (i+1)*m.Rows]
				for r := range dst {
					dst[r] = md[r*cols+cc]
				}
			}
		})
	return colShard(ar, o.Chip, shard, m.Rows)
}
