package engine

import (
	"fmt"

	"esti/internal/kvcache"
	"esti/internal/model"
	"esti/internal/tensor"
)

// This file implements engine-level shared-prefix KV reuse and chunked
// prefill — the admission-side optimizations a template-heavy serving tier
// needs. A system prompt or few-shot template prefilled once is captured
// into the engine's one PrefixStore (CachePrefix); a later admission
// (PrefillSlotCached) acquires the longest cached prefix of its prompt,
// attaches it to a freed slot, and prefills only the suffix — skipping both
// the prefix's prefill FLOPs and a private copy of its K/V. Because
// PrefillSlot is already incremental (it appends at the slot's current
// depth and attends against everything before it), the cached path and
// chunked prefill (one PrefillSlot call per chunk) fall out of the same SPMD program
// that the cold path runs, and inherit its token-exactness contract.
//
// The store is one index for the mesh: an entry is keyed, counted and
// evicted once, and holds one kvcache.KVBlock per chip, Block(rank).
// Head-sharded attention captures each chip's own K/V column shard of the
// prefix. Batch-sharded attention (and the weight-gathered layout, which
// requires it) keeps full-width K/V that are the same on every chip, so the
// owner's rows are captured once and every rank's block is that one copy: a
// future request can then land in a slot owned by any chip and still hit.
// A block is copied out of the slot the way ExportSlotKV copies one, and a
// slot attaches it through the same admission check an import passes; the
// attach touches only the slot's holders (slotHolders), while the slot's
// one reference stays in slotPfx until ReleaseSlot.

// EnablePrefixCache creates an empty prefix store whose byte budget counts
// one chip's blocks (0 = unlimited). It must be called before any other
// prefix operation; calling it again resets the store (any attached slot's
// prefix is then released into the old store, so reset only an idle engine).
func (e *Engine) EnablePrefixCache(budgetPerChip int) {
	width := e.chips[0].cache.KVWidth
	if e.opts.KVDType == model.Int8 {
		// An int8 session stores its shared prefixes quantized too:
		// attached blocks must match the cache's storage mode, and the
		// budget then buys twice the resident templates.
		e.prefix = kvcache.NewPrefixStoreInt8(e.cfg.Layers, width, budgetPerChip)
	} else {
		e.prefix = kvcache.NewPrefixStore(e.cfg.Layers, width, budgetPerChip)
	}
}

// PrefixStats returns the store's statistics; byte totals count one chip's
// blocks.
func (e *Engine) PrefixStats() kvcache.PrefixStats {
	if e.prefix == nil {
		return kvcache.PrefixStats{}
	}
	return e.prefix.Stats()
}

// CachePrefix captures the first len(tokens) committed positions of `slot`
// as a shared prefix keyed by `tokens` — which must be the prompt that
// produced them (the store trusts the caller; the key is what future
// lookups match on). The slot itself is unchanged and keeps decoding. An
// error is the store refusing the entry (budget) or a caller shape bug.
func (e *Engine) CachePrefix(slot int, tokens []int) error {
	if e.prefix == nil {
		return fmt.Errorf("engine: prefix cache not enabled")
	}
	if err := e.checkSlot(slot); err != nil {
		return err
	}
	lo, hi, local := e.slotHolders(slot)
	n := len(tokens)
	if n == 0 {
		return fmt.Errorf("engine: empty prefix")
	}
	if got := e.SlotLen(slot); n > got {
		return fmt.Errorf("engine: prefix of %d tokens from slot %d holding %d", n, slot, got)
	}
	// Each rank's block comes from the chip that holds the slot, itself
	// under head sharding (its K/V column shard). Under batch sharding K/V
	// are full-width and the same on every chip, so every rank lists the
	// owner and the store keeps its rows once. Either way the store copies
	// the slot's stored rows as they are, so a slot that attaches the entry
	// holds exactly what prefilling it privately would have left.
	from := make([]*kvcache.Cache, len(e.chips))
	for r := range from {
		if r < lo || r >= hi {
			from[r] = e.chips[lo].cache
		} else {
			from[r] = e.chips[r].cache
		}
	}
	_, err := e.prefix.Capture(tokens, from, local)
	return err
}

// acquirePrefix returns the longest cached prefix of `prompt`, capped at
// len(prompt)-1 so a full-prompt hit still leaves one token to prefill
// (decode needs the last token's logits), holding one reference. It returns
// nil on a miss or when the cache is disabled.
func (e *Engine) acquirePrefix(prompt []int) *kvcache.Prefix {
	if e.prefix == nil || len(prompt) < 2 {
		return nil
	}
	p, _ := e.prefix.Acquire(prompt[:len(prompt)-1])
	return p
}

// releasePrefix gives one reference back to the store.
func (e *Engine) releasePrefix(p *kvcache.Prefix) {
	if err := e.prefix.Release(p); err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
}

// prefillSlotFrom admits a prompt whose leading p.Len() tokens are served
// from the shared prefix cache: the prefix is attached to the (empty) slot
// on every chip that holds it, and only `suffix` is prefilled. It returns
// the suffix's logits [len(suffix), vocab] — identical to the trailing rows
// of a cold PrefillSlot over the whole prompt. The reference moves to the
// slot and is released by ReleaseSlot.
func (e *Engine) prefillSlotFrom(slot int, p *kvcache.Prefix, suffix []int) *tensor.Mat {
	lo, hi, local := e.slotHolders(slot)
	if len(suffix) == 0 {
		panic("engine: empty suffix (acquirePrefix caps hits at len(prompt)-1)")
	}
	if got := e.SlotLen(slot); got != 0 {
		panic(fmt.Sprintf("engine: prefix attach to non-empty slot %d (len %d)", slot, got))
	}
	if total := p.Len() + len(suffix); total > e.maxLen {
		panic(fmt.Sprintf("engine: prefix %d + suffix %d exceed slot capacity %d",
			p.Len(), len(suffix), e.maxLen))
	}
	for r := lo; r < hi; r++ {
		if err := e.chips[r].cache.AttachPrefix(local, p.Block(r)); err != nil {
			panic(fmt.Sprintf("engine: %v", err))
		}
	}
	e.slotPfx[slot] = p
	return e.PrefillSlot(slot, suffix)
}

// PrefillSlotCached is the serving-path admission: it acquires the longest
// cached prefix of `prompt`, prefills only the remainder, and (when
// remember > 0) captures the prompt's first `remember` tokens back into the
// store for future admissions — the template boundary only the caller
// knows. It returns the prefilled positions' logits (the last row is the
// next-token distribution either way) and the number of prompt tokens
// served from cache. Budget refusals on the remember step are not errors;
// the admission already succeeded.
func (e *Engine) PrefillSlotCached(slot int, prompt []int, remember int) (*tensor.Mat, int) {
	if remember > len(prompt) {
		panic(fmt.Sprintf("engine: remember %d beyond prompt of %d tokens", remember, len(prompt)))
	}
	var logits *tensor.Mat
	cached := 0
	if p := e.acquirePrefix(prompt); p != nil {
		cached = p.Len()
		logits = e.prefillSlotFrom(slot, p, prompt[cached:])
	} else {
		logits = e.PrefillSlot(slot, prompt)
	}
	if e.prefix != nil && remember > cached {
		_ = e.CachePrefix(slot, prompt[:remember])
	}
	return logits, cached
}
