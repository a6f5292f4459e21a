// Package kvcache stores per-layer attention key/value tensors for
// autoregressive decoding. The cache is the central memory object of the
// paper's attention analysis: its per-chip footprint under head- versus
// batch-sharding is what decides maximum context length (Table 1) and
// decode memory time (Figure 8).
//
// The cache is organized as fixed-capacity *slots*, one per sequence, each
// with its own filled length. A slot grows by AppendSeq (every layer) and
// AdvanceSeq (commit), is emptied and zeroed by ResetSeq, and is otherwise
// left to its owner: which slot serves which request is the caller's
// bookkeeping (the engine's), so a continuous-batching scheduler reuses a
// finished request's slot for the next queued one — the iteration-level
// reuse that keeps the decode batch full under heavy traffic.
//
// A KVBlock (handoff.go) is n positions of a slot's rows copied out, in
// the cache's storage format. It is the one block type: a shared prefix in
// a PrefixStore (prefix.go) holds one per cache it was captured from, or
// one inserted, and a slot attaches one (AttachPrefix) so positions [0, n)
// are served from the store's single copy while appends fill only the
// private suffix; a handoff exports one (ExportSeq) and another cache
// imports it (ImportSeq).
// Both ways in pass the same admission check, and both ways out are the
// same copy.
//
// Storage is float32 rows (New) or int8 rows with one scale per row
// (NewInt8), and that choice lives in one type, Rows (rows.go): a Cache and
// a KVBlock each hold a Rows of K and of V per layer, every operation that
// moves rows — append, capture, export, import, the float read-back — is
// copyRows between slices of them, and the attention walk reads the slices
// Segments returns. At large batch and long context the KV cache, not the
// weights, dominates per-chip memory and the decode step's memory traffic
// (§3.3, Figure 11; DeepSpeed Inference makes the same point for serving),
// so halving its bytes per token roughly doubles the servable context or
// batch per chip. Rows are quantized where they enter the cache, so
// everything upstream (projections, collectives, wire volume) is
// unchanged, and once quantized they are only ever copied verbatim: a
// slot, a prefix captured from it and a block exported from it hold the
// same bytes. The scale is per row because a K/V row is one token's
// projection — unlike a weight column its dynamic range is per token — and
// the walk applies it once per scored position.
package kvcache

import (
	"fmt"

	"esti/internal/tensor"
)

// Cache holds K and V for every layer over a fixed capacity of positions.
// Rows are (slot, position)-major: row = slot*MaxLen + pos. The slot
// dimension here is whatever slice of the logical batch the owner holds —
// the whole batch on the reference model, a shard on a batch-sharded chip.
type Cache struct {
	Layers  int
	Seqs    int // slots held by this cache (logical batch or a shard)
	MaxLen  int // capacity in positions per slot
	KVWidth int // KV heads × head dim

	lens []int      // *private* positions currently filled, per slot
	pfx  []*KVBlock // attached shared-prefix rows, per slot (nil = none)

	int8Mode bool
	k, v     []Rows // per layer: the Seqs*MaxLen private rows
}

// New allocates an empty float32 cache. All slots start zero-length.
func New(layers, seqs, maxLen, kvWidth int) *Cache {
	return newCache(layers, seqs, maxLen, kvWidth, false)
}

// NewInt8 allocates an empty cache whose rows are stored as int8 with one
// scale each: same slots and API as New at just over a quarter of the bytes
// per position — the memory the paper shows binds maximum context
// (Table 1).
func NewInt8(layers, seqs, maxLen, kvWidth int) *Cache {
	return newCache(layers, seqs, maxLen, kvWidth, true)
}

func newCache(layers, seqs, maxLen, kvWidth int, int8Mode bool) *Cache {
	if layers < 1 || seqs < 1 || maxLen < 1 || kvWidth < 1 {
		panic(fmt.Sprintf("kvcache: cache with %d layers, %d slots of %d positions, width %d",
			layers, seqs, maxLen, kvWidth))
	}
	c := &Cache{
		Layers: layers, Seqs: seqs, MaxLen: maxLen, KVWidth: kvWidth,
		lens:     make([]int, seqs),
		pfx:      make([]*KVBlock, seqs),
		int8Mode: int8Mode,
		k:        make([]Rows, layers),
		v:        make([]Rows, layers),
	}
	for l := range c.k {
		c.k[l] = newRows(seqs*maxLen, kvWidth, int8Mode)
		c.v[l] = newRows(seqs*maxLen, kvWidth, int8Mode)
	}
	return c
}

func (c *Cache) checkSlot(s int) {
	if s < 0 || s >= c.Seqs {
		panic(fmt.Sprintf("kvcache: slot %d out of range [0,%d)", s, c.Seqs))
	}
}

// SeqLen returns the filled length of slot s: the attached shared prefix
// (if any) plus the slot's private positions. Everything downstream —
// attention depth, capacity checks, slot reporting — sees this total, so a
// prefix-attached slot behaves exactly like one whose prefix was prefilled
// privately.
func (c *Cache) SeqLen(s int) int {
	c.checkSlot(s)
	return c.prefixLen(s) + c.lens[s]
}

func (c *Cache) prefixLen(s int) int {
	if b := c.pfx[s]; b != nil {
		return b.Len
	}
	return 0
}

// admit reports why the empty slot s cannot take b's rows — the slot holds
// positions or a prefix, or b's storage format, layer count, width or
// length does not fit the cache — and nil when it can. It is the one
// check both ways a block enters a slot pass: AttachPrefix aliases the
// block, ImportSeq copies it.
func (c *Cache) admit(s int, b *KVBlock) error {
	c.checkSlot(s)
	if c.lens[s] != 0 || c.pfx[s] != nil {
		return fmt.Errorf("kvcache: slot %d not empty (len %d, prefix %d)", s, c.lens[s], c.prefixLen(s))
	}
	if b.Int8 != c.int8Mode {
		return fmt.Errorf("kvcache: block stored as %s, cache is %s (the attention walk reads one format)",
			storageName(b.Int8), storageName(c.int8Mode))
	}
	if b.Layers != c.Layers || len(b.K) != b.Layers || len(b.V) != b.Layers {
		return fmt.Errorf("kvcache: block has %d layers (%d K, %d V), cache %d", b.Layers, len(b.K), len(b.V), c.Layers)
	}
	if b.Width != c.KVWidth {
		return fmt.Errorf("kvcache: block width %d, cache %d", b.Width, c.KVWidth)
	}
	if b.Len > c.MaxLen {
		return fmt.Errorf("kvcache: block of %d tokens exceeds slot capacity %d", b.Len, c.MaxLen)
	}
	return nil
}

// AttachPrefix aliases slot s onto a shared prefix's block (Prefix.Block):
// the slot's positions [0, b.Len) are served from the store's single copy,
// and subsequent appends write only the private suffix. The slot must be
// empty, and the block must match the cache's storage format, layers and
// K/V width and fit its capacity. The caller (not the cache) owns the
// prefix's reference count.
func (c *Cache) AttachPrefix(s int, b *KVBlock) error {
	if b == nil {
		return fmt.Errorf("kvcache: attach of nil prefix")
	}
	if err := c.admit(s, b); err != nil {
		return err
	}
	c.pfx[s] = b
	return nil
}

// AppendSeq writes `steps` new positions for slot s into layer l at the
// slot's current length. k and v are [steps, KVWidth]. Commit with
// AdvanceSeq after all layers. With a prefix attached, private storage
// starts at the prefix boundary, so writes land at the private length
// while capacity is checked on the total sequence length.
func (c *Cache) AppendSeq(l, s int, k, v *tensor.Mat, steps int) {
	c.checkSlot(s)
	if k.Rows != steps || k.Cols != c.KVWidth {
		panic(fmt.Sprintf("kvcache: append shape %dx%d, want %dx%d",
			k.Rows, k.Cols, steps, c.KVWidth))
	}
	if c.SeqLen(s)+steps > c.MaxLen {
		panic(fmt.Sprintf("kvcache: slot %d overflow: %d+%d > capacity %d",
			s, c.SeqLen(s), steps, c.MaxLen))
	}
	at := s*c.MaxLen + c.lens[s]
	copyRows(c.k[l].Slice(at, at+steps), matRows(k))
	copyRows(c.v[l].Slice(at, at+steps), matRows(v))
}

// AdvanceSeq commits `steps` appended positions on slot s.
func (c *Cache) AdvanceSeq(s, steps int) {
	c.checkSlot(s)
	if c.SeqLen(s)+steps > c.MaxLen {
		panic("kvcache: advance past capacity")
	}
	c.lens[s] += steps
}

// ResetSeq empties slot s and zeroes its rows in every layer without
// touching neighboring slots, so stale K/V from the previous occupant can
// never leak into the next sequence. Any attached shared prefix is
// detached; its single stored copy is untouched, and its reference stays
// with whoever acquired it.
func (c *Cache) ResetSeq(s int) {
	c.checkSlot(s)
	c.lens[s], c.pfx[s] = 0, nil
	for l := range c.k {
		c.k[l].Slice(s*c.MaxLen, (s+1)*c.MaxLen).zero()
		c.v[l].Slice(s*c.MaxLen, (s+1)*c.MaxLen).zero()
	}
}

// RowsK returns a float32 copy of K rows [0, total) of slot s in layer l —
// attached prefix first, int8 rows multiplied back by their scales. It is
// the cold read for tests and tools; the walk reads Segments in place.
func (c *Cache) RowsK(l, s, total int) *tensor.Mat {
	pre, priv, _, _ := c.Segments(l, s, total)
	return floatRows(pre, priv)
}

// RowsV is RowsK for the V tensor.
func (c *Cache) RowsV(l, s, total int) *tensor.Mat {
	_, _, pre, priv := c.Segments(l, s, total)
	return floatRows(pre, priv)
}

func floatRows(pre, priv Rows) *tensor.Mat {
	out := tensor.New(pre.N+priv.N, priv.Cols)
	copySegments(matRows(out), pre, priv)
	return out
}

// Segments returns zero-copy views of slot s's K and V rows covering
// positions [0, total): the shared-prefix segment (no rows when no prefix is
// attached) followed by the slot's private segment, in the cache's storage
// format. All four alias live storage and are returned by value, so the
// attention walk reads a slot with no copy and no allocation. total may
// extend past the committed SeqLen into rows already written by AppendSeq
// but not yet committed — the window attention reads mid-pass.
func (c *Cache) Segments(l, s, total int) (preK, privK, preV, privV Rows) {
	c.checkSlot(s)
	if total < 0 || total > c.MaxLen {
		panic(fmt.Sprintf("kvcache: slot %d row range %d out of capacity %d", s, total, c.MaxLen))
	}
	preK, preV = c.k[l].Slice(0, 0), c.v[l].Slice(0, 0)
	pl := 0
	if b := c.pfx[s]; b != nil {
		pl = min(b.Len, total)
		preK, preV = b.K[l].Slice(0, pl), b.V[l].Slice(0, pl)
	}
	lo, hi := s*c.MaxLen, s*c.MaxLen+total-pl
	return preK, c.k[l].Slice(lo, hi), preV, c.v[l].Slice(lo, hi)
}

// Bytes is the allocated footprint of the backing storage, in the cache's
// storage format (bytesPerRow).
func (c *Cache) Bytes() int {
	return 2 * c.Layers * c.Seqs * c.MaxLen * bytesPerRow(c.KVWidth, c.int8Mode)
}

// UsedBytes is the footprint of filled *private* positions only, summed
// over slots. Shared prefix rows are deliberately excluded: they live once
// in the PrefixStore no matter how many slots alias them, which is the
// memory saving prefix sharing exists for.
func (c *Cache) UsedBytes() int {
	total := 0
	for _, l := range c.lens {
		total += l
	}
	return 2 * c.Layers * total * bytesPerRow(c.KVWidth, c.int8Mode)
}

// Reset empties every slot without reallocating: lengths go to zero and
// attached prefixes are detached (their references stay with whoever
// acquired them). Storage is not zeroed; ResetSeq is the per-slot eviction
// with zeroing.
func (c *Cache) Reset() {
	clear(c.lens)
	clear(c.pfx)
}
