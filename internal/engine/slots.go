package engine

import (
	"fmt"

	"esti/internal/tensor"
)

// This file implements mid-stream slot admission: prefilling a single new
// prompt into one freed KV-cache slot while the other slots keep their
// decode state — the operation a continuous-batching scheduler issues
// between variable-length decode steps (DecodeSlotsInto). Together they let one
// engine session serve a rolling population of requests instead of a fixed
// batch.

// slotHolders names the chips holding a logical slot's KV rows, as the
// rank range [lo, hi), and the slot's index in each of their caches.
// Head-sharded attention keeps the slot on every chip (each holds its head
// columns); batch-sharded attention (including the weight-gathered layout,
// which requires it) places it on one owner, rank lo. Every per-slot cache
// operation reaches the slot through here.
func (e *Engine) slotHolders(slot int) (lo, hi, local int) {
	if err := e.checkSlot(slot); err != nil {
		panic(err.Error())
	}
	if !e.batchShardedCache() {
		return 0, len(e.chips), slot
	}
	seqsPC := e.batch / e.m.Chips()
	return slot / seqsPC, slot/seqsPC + 1, slot % seqsPC
}

// SlotLen returns the committed KV length of a slot.
func (e *Engine) SlotLen(slot int) int {
	lo, _, local := e.slotHolders(slot)
	return e.chips[lo].cache.SeqLen(local)
}

// ReleaseSlot evicts a completed sequence: the slot's KV storage is zeroed
// and its length reset on every chip that holds it, making the slot ready
// for the next PrefillSlot. A shared prefix attached by PrefillSlotCached is
// detached and its store reference is given back, so the prefix becomes
// LRU-evictable once its last slot departs.
func (e *Engine) ReleaseSlot(slot int) {
	lo, hi, local := e.slotHolders(slot)
	for _, st := range e.chips[lo:hi] {
		st.cache.ResetSeq(local)
	}
	if p := e.slotPfx[slot]; p != nil {
		e.slotPfx[slot] = nil
		e.releasePrefix(p)
	}
}

// checkSlot rejects a slot outside the batch.
func (e *Engine) checkSlot(slot int) error {
	if slot < 0 || slot >= e.batch {
		return fmt.Errorf("engine: slot %d out of batch %d", slot, e.batch)
	}
	return nil
}

// PrefillSlot admits a new prompt into one (freed or fresh) slot: the Step
// whose only count is len(prompt), on that slot. It fills the slot's KV
// cache and returns the prompt's logits [len(prompt), vocab], panicking
// where Step would return an error. The other slots are untouched, so
// admission can interleave with DecodeSlotsInto mid-stream; on layouts where
// the slot's KV lives on a single chip only that owner holds rows of the
// pass (see attnBatchSharded and chipForward).
func (e *Engine) PrefillSlot(slot int, prompt []int) *tensor.Mat {
	if err := e.checkSlot(slot); err != nil {
		panic(err.Error())
	}
	if len(prompt) == 0 {
		panic("engine: empty prompt")
	}
	clear(e.counts)
	e.counts[slot] = len(prompt)
	return must(e.Step(nil, prompt, e.counts))
}
