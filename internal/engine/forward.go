package engine

import (
	"fmt"

	"esti/internal/collective"
	"esti/internal/kvcache"
	"esti/internal/mesh"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// pass is one forward pass as the per-chip SPMD bodies see it: a lockstep
// batch pass feeds `steps` tokens to every slot (sequence-major, optionally
// masked), an admission pass feeds one prompt to the slot it targets.
type pass struct {
	tokens []int
	steps  int
	// active masks a batch pass's slots (nil = all). An inactive slot is
	// zero end to end: zero embedding rows, K/V neither appended nor
	// advanced, zero attention output.
	active []bool
	// slot is the admission's target, or noSlot for a batch pass.
	slot int
}

const noSlot = -1

// Prefill processes `steps` new tokens per sequence (sequence-major) across
// the mesh and returns the full logits [batch·steps, vocab]. Chip 0's copy
// is returned and is authoritative: under fp32 wire every chip gathers
// identical logits, but under an int8 wire each chip holds its own vocab
// shard exact and the others' dequantized, so per-chip copies may differ
// within the quantization bound — consumers must not argmax chip-local
// logits independently. The returned matrix is owned by the caller.
func (e *Engine) Prefill(tokens []int, steps int) *tensor.Mat {
	if len(tokens) != e.batch*steps {
		panic(fmt.Sprintf("engine: %d tokens for batch %d × steps %d", len(tokens), e.batch, steps))
	}
	return e.forward(nil, pass{tokens: tokens, steps: steps, slot: noSlot})
}

// Decode runs one autoregressive step from each sequence's last token and
// returns [batch, vocab] logits (caller-owned). The allocation-free form
// is DecodeInto.
func (e *Engine) Decode(last []int) *tensor.Mat {
	return e.DecodeInto(nil, last)
}

// DecodeInto runs one decode step writing the [batch, vocab] logits into
// dst (reshaped, reusing its buffer) and returns dst; a nil dst allocates
// a fresh matrix. With a caller-reused dst, a steady-state decode step
// performs zero heap allocations end to end — the engine's temporaries
// come from per-chip arenas, attention reads the KV cache through
// zero-copy views, and the softmax runs in a pre-sized per-chip scratch.
func (e *Engine) DecodeInto(dst *tensor.Mat, last []int) *tensor.Mat {
	return e.DecodeSlotsInto(dst, last, nil)
}

// DecodeSlotsInto runs one variable-length decode step: every active slot
// advances one token against its own KV-cache depth, which may differ per
// slot — the iteration a continuous-batching scheduler issues. Slots with
// active[s] == false are skipped entirely: their last[s] is ignored, their
// logits row is zero, and their cache does not grow, so a freed slot idles
// at no cost until PrefillSlot admits the next request into it. A nil mask
// decodes every slot. It writes [batch, vocab] logits into dst (nil
// allocates): the allocation-free hot path a scheduler drives, with the
// same zero-alloc contract as DecodeInto.
func (e *Engine) DecodeSlotsInto(dst *tensor.Mat, last []int, active []bool) *tensor.Mat {
	if len(last) != e.batch {
		panic(fmt.Sprintf("engine: %d last-tokens for batch %d", len(last), e.batch))
	}
	if active != nil && len(active) != e.batch {
		panic(fmt.Sprintf("engine: %d mask entries for batch %d", len(active), e.batch))
	}
	return e.forward(dst, pass{tokens: last, steps: 1, active: active, slot: noSlot})
}

// Generate greedily decodes `gen` tokens after prefilling, mirroring
// reference.Model.Generate.
func (e *Engine) Generate(prompt []int, promptLen, gen int) [][]int {
	logits := e.Prefill(prompt, promptLen)
	out := make([][]int, e.batch)
	last := make([]int, e.batch)
	for s := 0; s < e.batch; s++ {
		last[s] = sampling.Greedy(logits.Row(s*promptLen + promptLen - 1))
		out[s] = append(out[s], last[s])
	}
	for g := 1; g < gen; g++ {
		logits = e.DecodeInto(logits, last)
		for s := 0; s < e.batch; s++ {
			last[s] = sampling.Greedy(logits.Row(s))
			out[s] = append(out[s], last[s])
		}
	}
	return out
}

// forward checks a pass, runs the SPMD program on every chip and copies the
// logits into dst (nil allocates).
//
// The check happens here, on the host, because a chip that panics mid-pass
// stops minting collective ids while its peers carry on: a batch-sharded
// slot overflow would panic on the slot's owner only and leave the mesh
// wedged for every later pass. Rejected here, a bad call has moved no chip
// state and the session stays usable.
func (e *Engine) forward(dst *tensor.Mat, p pass) *tensor.Mat {
	if p.steps < 1 {
		panic(fmt.Sprintf("engine: %d steps per sequence, want at least 1", p.steps))
	}
	first, seqs := 0, e.batch
	if p.slot != noSlot {
		first, seqs = p.slot, 1
	}
	for i := 0; i < seqs; i++ {
		if p.active != nil && !p.active[i] {
			continue
		}
		for _, tok := range p.tokens[i*p.steps : (i+1)*p.steps] {
			if tok < 0 || tok >= e.cfg.Vocab {
				panic(fmt.Sprintf("engine: token %d out of vocab %d", tok, e.cfg.Vocab))
			}
		}
		if n := e.SlotLen(first + i); n+p.steps > e.maxLen {
			panic(fmt.Sprintf("engine: slot %d overflow: %d+%d > capacity %d", first+i, n, p.steps, e.maxLen))
		}
	}

	e.fw = p
	e.m.Run(e.runFwd)

	if dst == nil {
		dst = new(tensor.Mat)
	}
	if e.chips[0].nAct > 1 {
		// Every chip gathered the full logits; chip 0's copy is the
		// authoritative one (see Prefill).
		return tensor.CopyInto(dst, e.chips[0].logits)
	}
	// Each chip holds its own sequences' logits: stack the row blocks in
	// rank order, on the host (no mesh traffic: results leave through the
	// host, as with any inference service).
	dst.Reshape(len(p.tokens), e.cfg.Vocab)
	off := 0
	for _, st := range e.chips {
		off += copy(dst.Data[off:], st.logits.Data)
	}
	return dst
}

// chipSeqs locates the pass's sequences on one chip's cache shard: the
// shard holds `count` of them, in its slots [first, first+count), and they
// are sequences [at, at+count) of the pass. mask is the pass's active mask
// restricted to those sequences (nil = all).
type chipSeqs struct {
	first, count, at int
	mask             []bool
}

// seqsOn returns the sequences of the current pass that a chip holds.
// Head-sharded attention keeps every slot on every chip; batch-sharded
// attention gives each chip batch/n of them, so a chip may hold none of an
// admission.
func (e *Engine) seqsOn(rank int) chipSeqs {
	p := &e.fw
	sq := chipSeqs{count: e.batch}
	switch {
	case p.slot != noSlot:
		owner, local := e.slotOwner(p.slot)
		if owner >= 0 && owner != rank {
			return chipSeqs{}
		}
		return chipSeqs{first: local, count: 1}
	case e.batchShardedCache():
		sq.count = e.batch / e.m.Chips()
		sq.at = rank * sq.count
	}
	if p.active != nil {
		sq.mask = p.active[sq.at : sq.at+sq.count]
	}
	return sq
}

// advance commits the pass's appended positions on a chip's cache shard.
func (e *Engine) advance(st *chipState, sq chipSeqs) {
	for i := 0; i < sq.count; i++ {
		if sq.mask == nil || sq.mask[i] {
			st.cache.AdvanceSeq(sq.first+i, e.fw.steps)
		}
	}
}

// chipForward is one chip's body of a pass under every layout, bound to
// e.runFwd at construction so issuing a pass allocates no closure. Every
// temporary comes from the chip's arena, the logits included: st.logits is
// valid until the chip's next pass. A weight-gathered chip that holds none
// of the pass — an admission into another chip's slot — still serves its
// weight shards to every gather and runs the rest on zero rows.
func (e *Engine) chipForward(c *mesh.Chip) {
	p := &e.fw
	st := e.chips[c.Rank]
	ar := &st.arena
	ar.Reset()

	// Embedding lookup onto this chip's residual stream: every token of the
	// pass, E-sharded over the activation group — or, with no group, the
	// chip's own sequences at full width.
	sq := e.seqsOn(c.Rank)
	toks, mask := p.tokens, p.active
	if st.nAct == 1 {
		toks, mask = p.tokens[sq.at*p.steps:(sq.at+sq.count)*p.steps], sq.mask
	}
	x := ar.Mat(len(toks), st.embedCols.Cols)
	for i, tok := range toks {
		if mask != nil && !mask[i/p.steps] {
			clear(x.Row(i))
			continue
		}
		copy(x.Row(i), st.embedCols.Row(tok))
	}

	for l := range st.layers {
		if st.wg != nil {
			e.gatherLayer(c, st, l)
		}
		cl := &st.layers[l]
		// One gather feeds both sub-blocks of a parallel block; a serial
		// block gathers the updated residual again before its FFN.
		h := gatherNorm(c, st, x, cl.normGain)
		x = tensor.AddInPlace(x, e.attnBlock(c, st, cl, l, h))
		if !e.cfg.ParallelBlock {
			h = gatherNorm(c, st, x, cl.ffnNormGain)
		}
		x = tensor.AddInPlace(x, e.ffn(c, st, cl, h))
	}
	e.advance(st, sq)

	// Logits: the full normed final rows times this chip's vocab-row
	// block, then gather the vocab dimension.
	final := gatherNorm(c, st, x, st.finalGain)
	logitsLocal := tensor.MatMulTInto(ar.Mat(final.Rows, st.embedRows.Rows), final, st.embedRows)
	st.logits = agCols(ar, st.op(c), st.act, logitsLocal, st.nAct)
}

// batchShardedCache reports whether each chip's cache holds a sequence
// shard (batch-sharded attention, which the weight-gathered layout also
// requires) rather than the whole batch.
func (e *Engine) batchShardedCache() bool {
	return e.opts.Attn == partition.AttnShardBatch
}

// ffn runs the feedforward sub-block on the block's gathered normed rows,
// returning the E-sharded output: the Figure 2 program over the chip's plan
// (see ffnPlan). A group of one makes its collectives identities, which is
// all that separates the 1D layout from the 2D one. A streamed session
// streams the reduce-scatters' transposes and loops the down-projection
// into its ring (ffnDownStreamed); the values are the barrier path's up to
// the inner gather's chunked accumulation.
func (e *Engine) ffn(c *mesh.Chip, st *chipState, cl *chipLayer, h *tensor.Mat) *tensor.Mat {
	ar := &st.arena
	p := &st.plan
	streamed := e.streamFFN(p)
	rs := rsCols
	if streamed {
		rs = rsColsStream
	}
	hx := stripe(ar, h, p)                                          // [tokens, E/nInner]
	act := rs(ar, st.op(c), p.inner, cl.wUp.mulA(ar, hx), p.nInner) // [tokens, F/n]
	if e.cfg.FFNKind == model.SwiGLU {
		gate := rs(ar, st.op(c), p.inner, cl.wGate.mulA(ar, hx), p.nInner)
		tensor.SiLUFast(gate)
		act = tensor.MulInto(gate, gate, act)
	} else {
		tensor.GELU(act)
	}
	if streamed {
		return e.ffnDownStreamed(c, st, cl, act)
	}
	actFull := agCols(ar, st.op(c), p.inner, act, p.nInner) // [tokens, F/nOuter]
	return rsCols(ar, st.op(c), p.outer, cl.wDown.mulA(ar, actFull), p.nOuter)
}

// attnBlock runs the attention sub-block on the block's gathered normed rows,
// returning the E-sharded output. Query heads are split over the activation
// group; with no group the chip holds all of them and attends locally.
func (e *Engine) attnBlock(c *mesh.Chip, st *chipState, cl *chipLayer, layer int, hFull *tensor.Mat) *tensor.Mat {
	ar := &st.arena
	steps := e.fw.steps
	qLocal := cl.wq.mulA(ar, hFull) // [tokens, headsPC·dh]
	// K/V only for the sequences this chip caches: all of them when the
	// cache is head-sharded (this chip's KV heads, or the replicated
	// multiquery head), its own batch shard otherwise — the weights are
	// then the full K/V projections, every chip can serve any sequence, and
	// projecting the other chips' rows would throw the result away. With
	// no activation group hFull holds only those rows.
	sq := e.seqsOn(c.Rank)
	lo := sq.at * steps
	if st.nAct == 1 {
		lo = 0
	}
	hMine := tensor.RowsView(hFull, lo, lo+sq.count*steps)
	kNew := cl.wk.mulA(ar, &hMine)
	vNew := cl.wv.mulA(ar, &hMine)

	var outLocal *tensor.Mat
	if e.batchShardedCache() && st.nAct > 1 {
		outLocal = e.attnBatchSharded(c, st, layer, sq, qLocal, kNew, vNew)
	} else {
		// The queries' sequences are all cached here: chip-local.
		outLocal = appendAndAttendInto(ar.Mat(qLocal.Rows, qLocal.Cols),
			e.cfg.HeadDim, qLocal, st.cache, layer, sq, steps, kNew, vNew, &st.scr)
	}

	partial := cl.wo.mulA(ar, outLocal) // [tokens, E] partialsum over chips
	return rsCols(ar, st.op(c), st.act, partial, st.nAct)
}

// appendAndAttendInto appends the new K/V of a chip's sequences to their
// cache slots and attends each sequence's query block against its slot,
// writing into out (which must be [q.Rows, q.Cols]). Sequences the mask
// leaves out are skipped: zero output, nothing appended. Everything is
// views and fused kernels — no temporaries.
func appendAndAttendInto(out *tensor.Mat, dh int, q *tensor.Mat, cache *kvcache.Cache, layer int, sq chipSeqs, steps int, kNew, vNew *tensor.Mat, scr *reference.AttnScratch) *tensor.Mat {
	for i := 0; i < sq.count; i++ {
		ov := tensor.RowsView(out, i*steps, (i+1)*steps)
		if sq.mask != nil && !sq.mask[i] {
			ov.Zero()
			continue
		}
		kv := tensor.RowsView(kNew, i*steps, (i+1)*steps)
		vv := tensor.RowsView(vNew, i*steps, (i+1)*steps)
		cache.AppendSeq(layer, sq.first+i, &kv, &vv, steps)
		qv := tensor.RowsView(q, i*steps, (i+1)*steps)
		reference.AttendSeqInto(&ov, dh, &qv, cache, layer, sq.first+i, steps, scr)
	}
	return out
}

// attnBatchSharded moves the queries to the chips that cache their
// sequences, attends there, and moves each head block of the output back
// to the chip whose W_O rows contract it. kMine/vMine are the projections
// of this chip's own sequences (multiquery K/V identical on every chip,
// batch-sharded multihead full-width).
//
// A batch pass reshards Q from head-sharded to batch-sharded with an
// all-to-all and reshards the attention output back with another (Figure
// 5(b)). An admission has no sequence dimension to all-to-all over:
// every chip gathers the full queries, the slot's owner attends, and the
// return all-to-all carries data in the owner's shards only.
func (e *Engine) attnBatchSharded(c *mesh.Chip, st *chipState, layer int, sq chipSeqs, qLocal, kMine, vMine *tensor.Mat) *tensor.Mat {
	ar := &st.arena
	n := st.nAct
	steps := e.fw.steps
	headW := qLocal.Cols
	shards := st.shards

	if slot := e.fw.slot; slot != noSlot {
		qFull := agCols(ar, st.op(c), st.act, qLocal, n) // [steps, H·dh]
		if sq.count > 0 {
			outFull := appendAndAttendInto(ar.Mat(steps, qFull.Cols),
				e.cfg.HeadDim, qFull, st.cache, layer, sq, steps, kMine, vMine, &st.scr)
			for d := range shards {
				shards[d] = tensor.SliceCols(outFull, d*headW, (d+1)*headW).Data
			}
		} else {
			// The all-to-all copies what it sends, so one zeroed buffer
			// serves every destination.
			zero := ar.Floats(steps * headW)
			clear(zero)
			for d := range shards {
				shards[d] = zero
			}
		}
		recv := collective.AllToAll(st.op(c), st.act, shards)
		owner, _ := e.slotOwner(slot)
		return tensor.FromSlice(recv[owner], steps, headW)
	}

	// All-to-all #1: send each destination its sequence block of my
	// head-block queries. Row blocks are contiguous, so the shards are
	// zero-copy views (Send copies on the wire).
	rowsPC := sq.count * steps
	for d := range shards {
		shards[d] = qLocal.Data[d*rowsPC*headW : (d+1)*rowsPC*headW]
	}
	recv := collective.AllToAll(st.op(c), st.act, shards)
	// Assemble my sequences' full-width queries [rowsPC, H·dh]: source
	// srcIdx's chunk is its head block, i.e. my column block srcIdx.
	qMine := ar.Mat(rowsPC, headW*n)
	for srcIdx, data := range recv {
		for i := 0; i < rowsPC; i++ {
			copy(qMine.Row(i)[srcIdx*headW:(srcIdx+1)*headW], data[i*headW:(i+1)*headW])
		}
		c.Recycle(data)
	}

	outMine := appendAndAttendInto(ar.Mat(rowsPC, headW*n),
		e.cfg.HeadDim, qMine, st.cache, layer, sq, steps, kMine, vMine, &st.scr)

	// All-to-all #2: return each head block to its owner.
	backBuf := ar.Mat(rowsPC*n, headW)
	for d := range shards {
		blk := backBuf.Data[d*rowsPC*headW : (d+1)*rowsPC*headW]
		for i := 0; i < rowsPC; i++ {
			copy(blk[i*headW:(i+1)*headW], outMine.Row(i)[d*headW:(d+1)*headW])
		}
		shards[d] = blk
	}
	recv2 := collective.AllToAll(st.op(c), st.act, shards)
	outLocal := ar.Mat(rowsPC*n, headW) // [tokens, headsPC·dh]
	for srcIdx, data := range recv2 {
		copy(outLocal.Data[srcIdx*rowsPC*headW:(srcIdx+1)*rowsPC*headW], data)
		c.Recycle(data)
	}
	return outLocal
}
