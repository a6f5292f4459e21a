package engine

import (
	"fmt"
	"sync"

	"esti/internal/collective"
	"esti/internal/hardware"
	"esti/internal/mesh"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/tensor"
)

// This file implements mid-stream slot admission: prefilling a single new
// prompt into one freed KV-cache slot while the other slots keep their
// decode state — the operation a continuous-batching scheduler issues
// between variable-length decode steps (DecodeSlots). Together they let one
// engine session serve a rolling population of requests instead of a fixed
// batch.

// slotOwner maps a logical slot to the chip holding its KV rows and the
// slot's index within that chip's cache shard. Head-sharded attention
// replicates the slot on every chip (owner -1); batch-sharded attention
// (including the weight-gathered layout, which requires it) places it on
// one chip.
func (e *Engine) slotOwner(slot int) (owner, local int) {
	if !e.batchShardedCache() {
		return -1, slot
	}
	seqsPC := e.batch / e.m.Chips()
	return slot / seqsPC, slot % seqsPC
}

// SlotLen returns the committed KV length of a slot.
func (e *Engine) SlotLen(slot int) int {
	e.checkSlot(slot)
	owner, local := e.slotOwner(slot)
	if owner < 0 {
		owner = 0
	}
	return e.chips[owner].cache.SeqLen(local)
}

// ReleaseSlot evicts a completed sequence: the slot's KV storage is zeroed
// and its length reset on every chip that holds it, making the slot ready
// for the next PrefillSlot. A shared prefix attached by PrefillSlotFrom is
// detached and its per-chip store references are given back, so the prefix
// becomes LRU-evictable once its last slot departs.
func (e *Engine) ReleaseSlot(slot int) {
	e.checkSlot(slot)
	owner, local := e.slotOwner(slot)
	if owner >= 0 {
		e.chips[owner].cache.ResetSeq(local)
	} else {
		for _, st := range e.chips {
			st.cache.ResetSeq(local)
		}
	}
	if ref := e.slotPfx[slot]; ref != nil {
		e.slotPfx[slot] = nil
		e.ReleasePrefix(ref)
	}
}

func (e *Engine) checkSlot(slot int) {
	if slot < 0 || slot >= e.batch {
		panic(fmt.Sprintf("engine: slot %d out of batch %d", slot, e.batch))
	}
}

// PrefillSlot admits a new prompt into one (freed or fresh) slot: it runs a
// full prefill pass for just that sequence, fills the slot's KV cache, and
// returns the prompt's logits [len(prompt), vocab]. The other slots are
// untouched, so admission can interleave with DecodeSlots mid-stream. The
// SPMD program stays symmetric: every chip participates in the same
// collectives; on layouts where the slot's KV lives on a single chip, that
// owner attends the gathered queries and an all-to-all returns each chip
// its head block of the output.
func (e *Engine) PrefillSlot(slot int, prompt []int) *tensor.Mat {
	e.checkSlot(slot)
	nTok := len(prompt)
	if nTok == 0 {
		panic("engine: empty prompt")
	}
	if e.opts.FFN == partition.FFNWeightGatheredXYZ {
		return e.prefillSlotWG(slot, prompt)
	}
	results := make([]*tensor.Mat, e.m.Chips())
	var mu sync.Mutex
	e.m.Run(func(c *mesh.Chip) {
		st := e.chips[c.Rank]
		ar := &st.arena
		ar.Reset()

		x := ar.Mat(nTok, st.embedCols.Cols)
		for i, tok := range prompt {
			if tok < 0 || tok >= e.cfg.Vocab {
				panic(fmt.Sprintf("engine: token %d out of vocab %d", tok, e.cfg.Vocab))
			}
			copy(x.Row(i), st.embedCols.Row(tok))
		}

		for l := range st.layers {
			cl := &st.layers[l]
			if e.cfg.ParallelBlock {
				h := shardNorm(c, st, x, cl.normGain, e.cfg.DModel)
				attnY := e.attnSlot(c, st, cl, l, h, slot, nTok)
				ffnY := e.ffnBlock(c, st, cl, h)
				x = tensor.AddInPlace(tensor.AddInPlace(x, attnY), ffnY)
			} else {
				h := shardNorm(c, st, x, cl.normGain, e.cfg.DModel)
				x = tensor.AddInPlace(x, e.attnSlot(c, st, cl, l, h, slot, nTok))
				h2 := shardNorm(c, st, x, cl.ffnNormGain, e.cfg.DModel)
				x = tensor.AddInPlace(x, e.ffnBlock(c, st, cl, h2))
			}
		}
		owner, local := e.slotOwner(slot)
		if owner < 0 || owner == c.Rank {
			st.cache.AdvanceSeq(local, nTok)
		}

		final := shardNorm(c, st, x, st.finalGain, e.cfg.DModel)
		fullFinal := agCols(ar, st.op(c), hardware.GroupXYZ, final, e.m.Chips())
		logitsLocal := tensor.MatMulTInto(ar.Mat(fullFinal.Rows, st.embedRows.Rows), fullFinal, st.embedRows)
		logits := agCols(ar, st.op(c), hardware.GroupXYZ, logitsLocal, e.m.Chips())

		mu.Lock()
		results[c.Rank] = logits
		mu.Unlock()
	})
	// Arena-backed on each chip; hand the caller its own copy.
	return results[0].Clone()
}

// attnSlot runs the attention sub-block of a single-sequence prefill
// targeting one cache slot. Head-sharded attention is chip-local as in the
// batch path. Batch-sharded attention gathers the full queries on every
// chip (batch-1 has no sequence dimension to all-to-all over), lets the
// slot's owner attend against its cache shard, and distributes the output
// head blocks back with an all-to-all in which only the owner's shards
// carry data.
func (e *Engine) attnSlot(c *mesh.Chip, st *chipState, cl *chipLayer, layer int, h *tensor.Mat, slot, steps int) *tensor.Mat {
	ar := &st.arena
	n := e.m.Chips()
	hFull := agCols(ar, st.op(c), hardware.GroupXYZ, h, n)
	qLocal := cl.wq.mulA(ar, hFull) // [steps, headsPC·dh]
	kNew := cl.wk.mulA(ar, hFull)
	vNew := cl.wv.mulA(ar, hFull)

	var outLocal *tensor.Mat
	owner, local := e.slotOwner(slot)
	if owner < 0 || n == 1 {
		// Chip-local attention: head-sharded replicates the slot on
		// every chip (K/V columns already match this chip's cache
		// width), and a single-chip batch-sharded mesh owns it outright
		// with both all-to-alls degenerate.
		st.cache.AppendSeq(layer, local, kNew, vNew, steps)
		outLocal = reference.AttendSeqInto(ar.Mat(steps, qLocal.Cols),
			e.cfg.HeadDim, qLocal, st.cache, layer, local, steps, &st.scr)
	} else {
		headW := qLocal.Cols
		qFull := agCols(ar, st.op(c), hardware.GroupXYZ, qLocal, n) // [steps, H·dh]
		shards := st.shardTab(n)
		if c.Rank == owner {
			st.cache.AppendSeq(layer, local, kNew, vNew, steps)
			outFull := reference.AttendSeqInto(ar.Mat(steps, qFull.Cols),
				e.cfg.HeadDim, qFull, st.cache, layer, local, steps, &st.scr)
			for d := 0; d < n; d++ {
				shards[d] = tensor.SliceCols(outFull, d*headW, (d+1)*headW).Data
			}
		} else {
			// Only the owner's shards carry data; the all-to-all copies what
			// it sends, so one zeroed buffer serves every destination.
			zero := ar.Floats(steps * headW)
			clear(zero)
			for d := range shards {
				shards[d] = zero
			}
		}
		recv := collective.AllToAll(st.op(c), hardware.GroupXYZ, shards)
		outLocal = tensor.FromSlice(recv[owner], steps, headW)
	}

	partial := cl.wo.mulA(ar, outLocal)
	return rsCols(ar, st.op(c), hardware.GroupXYZ, partial, n)
}

// prefillSlotWG admits a prompt under the weight-gathered layout:
// activations are token-sharded, so the slot's owner computes the whole
// sequence locally while every chip keeps minting the per-layer weight
// all-gathers (the layout's only collective) to stay SPMD-symmetric.
func (e *Engine) prefillSlotWG(slot int, prompt []int) *tensor.Mat {
	owner, local := e.slotOwner(slot)
	nTok := len(prompt)
	results := make([]*tensor.Mat, e.m.Chips())
	e.m.Run(func(c *mesh.Chip) {
		st := e.chips[c.Rank]
		st.arena.Reset()
		ws := st.wg
		mine := c.Rank == owner

		var x *tensor.Mat
		if mine {
			x = tensor.New(nTok, e.cfg.DModel)
			for i, tok := range prompt {
				if tok < 0 || tok >= e.cfg.Vocab {
					panic("engine: token out of vocab")
				}
				copy(x.Row(i), ws.fullEmbed.Row(tok))
			}
		}

		for l := range ws.layers {
			ls := &ws.layers[l]
			g := e.gatherLayer(c, st, ls)
			if !mine {
				continue
			}
			if e.cfg.ParallelBlock {
				h := tensor.RMSNorm(x, ls.normGain, 1e-6)
				attnY := wgAttendSlot(e, st, g, h, l, local, nTok)
				ffnY := wgFFN(st, e.cfg, g, h)
				x = tensor.AddInPlace(tensor.AddInPlace(x, attnY), ffnY)
			} else {
				h := tensor.RMSNorm(x, ls.normGain, 1e-6)
				x = tensor.AddInPlace(x, wgAttendSlot(e, st, g, h, l, local, nTok))
				h2 := tensor.RMSNorm(x, ls.ffnNormGain, 1e-6)
				x = tensor.AddInPlace(x, wgFFN(st, e.cfg, g, h2))
			}
		}
		if mine {
			st.cache.AdvanceSeq(local, nTok)
			final := tensor.RMSNorm(x, st.finalGain, 1e-6)
			results[c.Rank] = tensor.MatMulT(final, ws.fullEmbed)
		}
	})
	return results[owner]
}

func wgAttendSlot(e *Engine, st *chipState, g gathered, h *tensor.Mat, layer, local, steps int) *tensor.Mat {
	q := tensor.MatMul(h, g.q)
	k := tensor.MatMul(h, g.k)
	v := tensor.MatMul(h, g.v)
	st.cache.AppendSeq(layer, local, k, v, steps)
	out := reference.AttendSeq(e.cfg.HeadDim, q, st.cache, layer, local, steps)
	return tensor.MatMul(out, g.o)
}
