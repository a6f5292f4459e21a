package engine

import (
	"fmt"

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
// untouched, so admission can interleave with DecodeSlots mid-stream. It is
// the same SPMD program a batch pass runs, aimed at one slot: every chip
// participates in the same collectives, and on layouts where the slot's KV
// lives on a single chip only that owner holds rows of the pass (see
// attnBatchSharded and chipForwardWG).
func (e *Engine) PrefillSlot(slot int, prompt []int) *tensor.Mat {
	e.checkSlot(slot)
	if len(prompt) == 0 {
		panic("engine: empty prompt")
	}
	return e.forward(nil, pass{tokens: prompt, steps: len(prompt), slot: slot})
}
