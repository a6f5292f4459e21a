package kvcache

// KV handoff: exporting one slot's cache content as a self-contained block
// that another cache — typically on a different engine replica — can import
// verbatim. This is the storage half of disaggregated prefill/decode
// serving: a prefill replica fills a slot's K/V, the block travels over the
// interconnect, and a decode replica resumes the sequence against an
// imported copy that is bit-identical to the original. Rows travel in the
// cache's storage format — an int8 cache exports its stored values and
// scales, never a float32 read-back — so the handoff preserves quantized
// storage exactly; an attached shared prefix is copied into the block,
// because the receiving replica has no reference to the sender's
// PrefixStore.

import "fmt"

// KVBlock is one slot's exported K/V rows — every committed position,
// prefix included — in the cache's storage format. Blocks are deep copies:
// the exporting slot may be released (and its storage zeroed) the moment
// ExportSeq returns, which is exactly the prefill-pool lifecycle.
type KVBlock struct {
	Layers, Width, Len int
	// Int8 reports the storage format the block carries (and the only
	// cache mode it can be imported into — the attention walk reads one
	// format, so a handoff never converts).
	Int8 bool
	K, V []Rows // per layer: Len rows of Width
}

// Bytes is the wire footprint of the block: the K+V backing bytes that a
// real handoff would move between replicas.
func (b *KVBlock) Bytes() int {
	return 2 * b.Layers * b.Len * bytesPerRow(b.Width, b.Int8)
}

// ExportSeq deep-copies slot s's committed positions [0, SeqLen) into a
// self-contained KVBlock, an attached shared prefix's rows first, so the
// block holds exactly what the attention walk reads. Exporting an empty
// slot returns an error — there is nothing to hand off.
func (c *Cache) ExportSeq(s int) (*KVBlock, error) {
	c.checkSlot(s)
	n := c.SeqLen(s)
	if n == 0 {
		return nil, fmt.Errorf("kvcache: export of empty slot %d", s)
	}
	b := &KVBlock{Layers: c.Layers, Width: c.KVWidth, Len: n, Int8: c.int8Mode,
		K: make([]Rows, c.Layers), V: make([]Rows, c.Layers)}
	for l := range b.K {
		b.K[l], b.V[l] = newRows(n, c.KVWidth, c.int8Mode), newRows(n, c.KVWidth, c.int8Mode)
		preK, privK, preV, privV := c.Segments(l, s, n)
		copySegments(b.K[l], preK, privK)
		copySegments(b.V[l], preV, privV)
	}
	return b, nil
}

// ImportSeq writes a KVBlock into the empty slot s and commits its length,
// after which the slot is indistinguishable from one that prefilled the
// same positions locally. The block must match the cache's storage mode,
// layer count, width, and fit the slot capacity, every layer's K and V must
// hold what the header says, and the slot must be empty (no private rows,
// no attached prefix); all of it is checked before the first row is
// written, so an error leaves the slot empty. The block is copied in, so
// the caller may reuse or import it elsewhere afterwards.
func (c *Cache) ImportSeq(s int, b *KVBlock) error {
	c.checkSlot(s)
	if b == nil || b.Len == 0 {
		return fmt.Errorf("kvcache: import of empty block")
	}
	if c.lens[s] != 0 || c.pfx[s] != nil {
		return fmt.Errorf("kvcache: import into non-empty slot %d (len %d, prefix %d)",
			s, c.lens[s], c.prefixLen(s))
	}
	if b.Int8 != c.int8Mode {
		return fmt.Errorf("kvcache: block stored as %s, cache is %s (a handoff never converts)",
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
	for l := range b.K {
		for _, r := range [2]Rows{b.K[l], b.V[l]} {
			if err := r.check(b.Len, b.Width, b.Int8); err != nil {
				return fmt.Errorf("kvcache: block layer %d: %v", l, err)
			}
		}
	}
	lo, hi := s*c.MaxLen, s*c.MaxLen+b.Len
	for l := range b.K {
		copyRows(c.k[l].Slice(lo, hi), b.K[l])
		copyRows(c.v[l].Slice(lo, hi), b.V[l])
	}
	c.lens[s] = b.Len
	return nil
}
