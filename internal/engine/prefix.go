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
// into per-chip PrefixStores (CachePrefix); later admissions acquire the
// longest cached prefix of their prompt (AcquirePrefix), attach it to a
// freed slot, and prefill only the suffix (PrefillSlotFrom) — skipping both
// the prefix's prefill FLOPs and a private copy of its K/V. Because
// PrefillSlot is already incremental (it appends at the slot's current
// depth and attends against everything before it), the cached path and
// chunked prefill (one PrefillSlot call per chunk) fall out of the same SPMD program
// that the cold path runs, and inherit its token-exactness contract.
//
// Prefix placement mirrors KV-cache placement. Head-sharded attention keeps
// each chip's own K/V column shard of the prefix in that chip's store.
// Batch-sharded attention (and the weight-gathered layout, which requires
// it) computes full-width K/V identically on every chip, so the capture is
// replicated into every chip's store: a future request can then land in a
// slot owned by any chip and still hit. A store entry is a kvcache.KVBlock
// copied out of the slot the way ExportSlotKV copies one, and a slot
// attaches it through the same admission check an import passes; the
// attach touches only the slot's holders (slotHolders), while the slot's
// PrefixRef keeps one reference on every chip until ReleaseSlot.

// PrefixRef is an acquired shared prefix: one store entry per chip, all
// keyed on the same tokens. It is returned by AcquirePrefix holding one
// reference per chip, consumed by PrefillSlotFrom (the engine releases the
// references when the slot is released) or returned via ReleasePrefix.
type PrefixRef struct {
	tokens  []int
	perChip []*kvcache.Prefix
}

// Len returns the prefix length in tokens.
func (r *PrefixRef) Len() int { return len(r.tokens) }

// EnablePrefixCache creates an empty per-chip prefix store with the given
// byte budget per chip (0 = unlimited). It must be called before any other
// prefix operation; calling it again resets the stores (any live PrefixRef
// or attached slot becomes invalid, so reset only an idle engine).
func (e *Engine) EnablePrefixCache(budgetPerChip int) {
	for _, st := range e.chips {
		if e.opts.KVDType == model.Int8 {
			// An int8 session stores its shared prefixes quantized too:
			// attached blocks must match the cache's storage mode, and the
			// per-chip budget then buys twice the resident templates.
			st.prefix = kvcache.NewPrefixStoreInt8(e.cfg.Layers, st.cache.KVWidth, budgetPerChip)
		} else {
			st.prefix = kvcache.NewPrefixStore(e.cfg.Layers, st.cache.KVWidth, budgetPerChip)
		}
	}
}

// PrefixCacheEnabled reports whether EnablePrefixCache has been called.
func (e *Engine) PrefixCacheEnabled() bool { return e.chips[0].prefix != nil }

// PrefixStats returns chip 0's store statistics. Every chip's store sees
// the same operation sequence, so the stores agree on hits, misses and
// entry counts; byte totals differ only by per-chip shard width.
func (e *Engine) PrefixStats() kvcache.PrefixStats {
	if !e.PrefixCacheEnabled() {
		return kvcache.PrefixStats{}
	}
	return e.chips[0].prefix.Stats()
}

// CachePrefix captures the first len(tokens) committed positions of `slot`
// as a shared prefix keyed by `tokens` — which must be the prompt that
// produced them (the store trusts the caller; the key is what future
// lookups match on). The slot itself is unchanged and keeps decoding. An
// error is the store refusing the entry (budget) or a caller shape bug.
func (e *Engine) CachePrefix(slot int, tokens []int) error {
	if !e.PrefixCacheEnabled() {
		return fmt.Errorf("engine: prefix cache not enabled")
	}
	lo, hi, local := e.slotHolders(slot)
	n := len(tokens)
	if n == 0 {
		return fmt.Errorf("engine: empty prefix")
	}
	if got := e.SlotLen(slot); n > got {
		return fmt.Errorf("engine: prefix of %d tokens from slot %d holding %d", n, slot, got)
	}
	// Every chip's store gets the entry, and a chip that holds the slot
	// captures its own rows: under head sharding each its K/V column shard.
	// Under batch sharding K/V are full-width and identical on every chip,
	// so the owner's rows are replicated into the other stores (a real
	// system would broadcast them once over the interconnect). Either way
	// the store copies the slot's stored rows as they are, so a slot that
	// attaches the entry holds exactly what prefilling it privately would
	// have left.
	for r, st := range e.chips {
		from := r
		if r < lo || r >= hi {
			from = lo
		}
		if _, err := st.prefix.Capture(tokens, e.chips[from].cache, local); err != nil {
			return err
		}
	}
	return nil
}

// AcquirePrefix returns the longest cached prefix of `prompt`, capped at
// len(prompt)-1 so a full-prompt hit still leaves one token to prefill
// (decode needs the last token's logits). It returns nil on a miss or when
// the cache is disabled. The returned ref holds one reference per chip;
// pass it to PrefillSlotFrom (which hands ownership to the slot) or give it
// back with ReleasePrefix.
func (e *Engine) AcquirePrefix(prompt []int) *PrefixRef {
	if !e.PrefixCacheEnabled() || len(prompt) < 2 {
		return nil
	}
	key := prompt[:len(prompt)-1]
	perChip := make([]*kvcache.Prefix, len(e.chips))
	n := 0
	for r, st := range e.chips {
		p, ln := st.prefix.Acquire(key)
		if p == nil {
			// The tries run in lockstep: chip 0 missing means all miss, so
			// nothing acquired so far — but guard against skew anyway.
			for rr := 0; rr < r; rr++ {
				e.chips[rr].prefix.Release(perChip[rr])
			}
			return nil
		}
		perChip[r] = p
		n = ln
	}
	return &PrefixRef{tokens: append([]int(nil), prompt[:n]...), perChip: perChip}
}

// ReleasePrefix returns an acquired-but-unused ref's references to the
// stores.
func (e *Engine) ReleasePrefix(ref *PrefixRef) {
	if ref == nil {
		return
	}
	for r, st := range e.chips {
		if err := st.prefix.Release(ref.perChip[r]); err != nil {
			panic(fmt.Sprintf("engine: %v", err))
		}
	}
}

// PrefillSlotFrom admits a prompt whose leading ref.Len() tokens are served
// from the shared prefix cache: the prefix is attached to the (empty) slot
// on every chip that holds it, and only `suffix` is prefilled. It returns
// the suffix's logits [len(suffix), vocab] — identical to the trailing rows
// of a cold PrefillSlot over the whole prompt. The ref's references move to
// the slot and are released by ReleaseSlot. A nil ref degrades to a cold
// PrefillSlot of the suffix alone.
func (e *Engine) PrefillSlotFrom(slot int, ref *PrefixRef, suffix []int) *tensor.Mat {
	if ref == nil {
		return e.PrefillSlot(slot, suffix)
	}
	lo, hi, local := e.slotHolders(slot)
	if len(suffix) == 0 {
		panic("engine: empty suffix (AcquirePrefix caps hits at len(prompt)-1)")
	}
	if got := e.SlotLen(slot); got != 0 {
		panic(fmt.Sprintf("engine: prefix attach to non-empty slot %d (len %d)", slot, got))
	}
	if total := ref.Len() + len(suffix); total > e.maxLen {
		panic(fmt.Sprintf("engine: prefix %d + suffix %d exceed slot capacity %d",
			ref.Len(), len(suffix), e.maxLen))
	}
	for r := lo; r < hi; r++ {
		if err := e.chips[r].cache.AttachPrefix(local, ref.perChip[r]); err != nil {
			panic(fmt.Sprintf("engine: %v", err))
		}
	}
	e.slotPfx[slot] = ref
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
	ref := e.AcquirePrefix(prompt)
	var logits *tensor.Mat
	cached := 0
	if ref != nil {
		cached = ref.Len()
		logits = e.PrefillSlotFrom(slot, ref, prompt[cached:])
	} else {
		logits = e.PrefillSlot(slot, prompt)
	}
	if e.PrefixCacheEnabled() && remember > cached {
		_ = e.CachePrefix(slot, prompt[:remember])
	}
	return logits, cached
}
