package kvcache

// KV blocks: n positions of a slot's rows copied out of the cache, in its
// storage format. A block is what a PrefixStore entry holds (captured from
// a slot or inserted) and what a handoff carries: exporting one slot's
// cache content so another cache — typically on a different engine
// replica — imports it verbatim. The handoff is the storage half of
// disaggregated prefill/decode serving: a prefill replica fills a slot's
// K/V, the block travels over the interconnect, and a decode replica
// resumes the sequence against an imported copy that is bit-identical to
// the original. Rows travel in the cache's storage format — an int8 cache
// exports its stored values and scales, never a float32 read-back — so the
// handoff preserves quantized storage exactly; an attached shared prefix
// is copied into the block, because the receiving replica has no reference
// to the sender's PrefixStore.

import "fmt"

// KVBlock is Len positions of K/V rows per layer in one storage format.
// Blocks are deep copies: the slot a block was copied from may be released
// (and its storage zeroed) the moment the copy returns, which is exactly
// the prefill-pool lifecycle.
type KVBlock struct {
	Layers, Width, Len int
	// Int8 reports the storage format the block carries (and the only
	// cache mode it can enter — the attention walk reads one format, so a
	// block is never converted).
	Int8 bool
	K, V []Rows // per layer: Len rows of Width
}

// newBlock allocates a zeroed block of n positions.
func newBlock(layers, n, width int, int8Mode bool) KVBlock {
	b := KVBlock{Layers: layers, Width: width, Len: n, Int8: int8Mode,
		K: make([]Rows, layers), V: make([]Rows, layers)}
	for l := range b.K {
		b.K[l], b.V[l] = newRows(n, width, int8Mode), newRows(n, width, int8Mode)
	}
	return b
}

// Bytes is the K+V backing footprint of the block: the bytes a handoff
// moves between replicas, and what a prefix store's budget counts.
func (b *KVBlock) Bytes() int {
	return 2 * b.Layers * b.Len * bytesPerRow(b.Width, b.Int8)
}

// block deep-copies slot s's positions [0, n) — an attached shared
// prefix's rows first — into a block in the cache's storage format, so the
// block holds exactly what the attention walk reads. It is the one way rows
// leave a slot: ExportSeq takes every committed position, Capture the
// prefix its key covers.
func (c *Cache) block(s, n int) KVBlock {
	b := newBlock(c.Layers, n, c.KVWidth, c.int8Mode)
	for l := range b.K {
		preK, privK, preV, privV := c.Segments(l, s, n)
		copySegments(b.K[l], preK, privK)
		copySegments(b.V[l], preV, privV)
	}
	return b
}

// ExportSeq deep-copies slot s's committed positions [0, SeqLen) into a
// self-contained KVBlock. Exporting an empty slot returns an error — there
// is nothing to hand off.
func (c *Cache) ExportSeq(s int) (*KVBlock, error) {
	n := c.SeqLen(s)
	if n == 0 {
		return nil, fmt.Errorf("kvcache: export of empty slot %d", s)
	}
	b := c.block(s, n)
	return &b, nil
}

// CheckImport reports why ImportSeq(s, b) would fail, nil if it would
// succeed. Beyond the admission check AttachPrefix also makes, it holds
// every layer's K and V to what the header says, because a handoff block
// is input from another replica.
func (c *Cache) CheckImport(s int, b *KVBlock) error {
	if b == nil || b.Len == 0 {
		return fmt.Errorf("kvcache: import of empty block")
	}
	if err := c.admit(s, b); err != nil {
		return err
	}
	for l := range b.K {
		for _, r := range [2]Rows{b.K[l], b.V[l]} {
			if err := r.check(b.Len, b.Width, b.Int8); err != nil {
				return fmt.Errorf("kvcache: block layer %d: %v", l, err)
			}
		}
	}
	return nil
}

// ImportSeq writes a KVBlock into the empty slot s and commits its length,
// after which the slot is indistinguishable from one that prefilled the
// same positions locally. CheckImport runs before the first row is
// written, so an error leaves the slot empty. The block is copied in, so
// the caller may reuse or import it elsewhere afterwards.
func (c *Cache) ImportSeq(s int, b *KVBlock) error {
	if err := c.CheckImport(s, b); err != nil {
		return err
	}
	lo, hi := s*c.MaxLen, s*c.MaxLen+b.Len
	for l := range b.K {
		copyRows(c.k[l].Slice(lo, hi), b.K[l])
		copyRows(c.v[l].Slice(lo, hi), b.V[l])
	}
	c.lens[s] = b.Len
	return nil
}
