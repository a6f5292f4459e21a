// Package kvcache stores per-layer attention key/value tensors for
// autoregressive decoding. The cache is the central memory object of the
// paper's attention analysis: its per-chip footprint under head- versus
// batch-sharding is what decides maximum context length (Table 1) and
// decode memory time (Figure 8).
//
// The cache is organized as fixed-capacity *slots*, one per sequence, each
// with its own filled length. A static batch fills every slot in lockstep
// (Append/Advance); a continuous-batching scheduler instead allocates a
// slot per admitted request (Alloc), grows it independently
// (AppendSeq/AdvanceSeq), and releases it on completion (Release) so the
// next queued request can reuse the storage — the iteration-level reuse
// that keeps the decode batch full under heavy traffic.
//
// Slots can additionally alias a shared, reference-counted prefix block
// (prefix.go): positions [0, PrefixLen) are served from a PrefixStore's
// single copy while appends fill only the private suffix, so many requests
// carrying the same system prompt neither recompute nor re-store its K/V.
//
// Storage is float32 rows (New) or int8 rows with one scale per row
// (NewInt8), and that choice lives in one type, Rows (rows.go): a Cache, a
// Prefix and a KVBlock each hold a Rows of K and of V per layer, every
// operation that moves rows — append, capture into a prefix store, export,
// import, the float read-back — is copyRows between slices of them, and the
// attention walk reads the slices Segments returns. At large batch and long
// context the KV cache, not the weights, dominates per-chip memory and the
// decode step's memory traffic (§3.3, Figure 11; DeepSpeed Inference makes
// the same point for serving), so halving its bytes per token roughly
// doubles the servable context or batch per chip. Rows are quantized where
// they enter the cache, so everything upstream (projections, collectives,
// wire volume) is unchanged, and once quantized they are only ever copied
// verbatim: a slot, a prefix captured from it and a block exported from it
// hold the same bytes. The scale is per row because a K/V row is one
// token's projection — unlike a weight column its dynamic range is per
// token — and the walk applies it once per scored position.
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

	lens []int     // *private* positions currently filled, per slot
	used []bool    // advisory slot-allocation map (Alloc/Release)
	pfx  []*Prefix // attached shared prefix, per slot (nil = none)

	int8Mode bool
	k, v     []Rows // per layer: the Seqs*MaxLen private rows
}

// New allocates an empty float32 cache. All slots start free and
// zero-length.
func New(layers, seqs, maxLen, kvWidth int) *Cache {
	return newCache(layers, seqs, maxLen, kvWidth, false)
}

// NewInt8 allocates an empty cache whose rows are stored as int8 with one
// scale each: same slot discipline and API as New at just over a quarter of
// the bytes per position — the memory the paper shows binds maximum context
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
		used:     make([]bool, seqs),
		pfx:      make([]*Prefix, seqs),
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

// Int8 reports whether the cache stores K/V quantized.
func (c *Cache) Int8() bool { return c.int8Mode }

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

// PrefixLen returns the length of the shared prefix attached to slot s
// (0 when none).
func (c *Cache) PrefixLen(s int) int {
	c.checkSlot(s)
	return c.prefixLen(s)
}

func (c *Cache) prefixLen(s int) int {
	if p := c.pfx[s]; p != nil {
		return p.Len()
	}
	return 0
}

// AttachPrefix aliases slot s onto a shared prefix: the slot's positions
// [0, p.Len()) are served from the store's single copy, and subsequent
// appends write only the private suffix. The slot must be empty, and the
// prefix must match the cache's K/V width and fit its capacity. The caller
// (not the cache) owns the prefix's reference count.
func (c *Cache) AttachPrefix(s int, p *Prefix) error {
	c.checkSlot(s)
	if p == nil {
		return fmt.Errorf("kvcache: attach of nil prefix")
	}
	if c.lens[s] != 0 || c.pfx[s] != nil {
		return fmt.Errorf("kvcache: slot %d not empty (len %d, prefix %d)", s, c.lens[s], c.prefixLen(s))
	}
	if p.int8Mode != c.int8Mode {
		return fmt.Errorf("kvcache: prefix stored as %s, cache is %s (the attention walk reads one format)",
			storageName(p.int8Mode), storageName(c.int8Mode))
	}
	if len(p.k) != c.Layers {
		return fmt.Errorf("kvcache: prefix has %d layers, cache %d", len(p.k), c.Layers)
	}
	if p.width != c.KVWidth {
		return fmt.Errorf("kvcache: prefix width %d, cache %d", p.width, c.KVWidth)
	}
	if p.Len() > c.MaxLen {
		return fmt.Errorf("kvcache: prefix of %d tokens exceeds slot capacity %d", p.Len(), c.MaxLen)
	}
	c.pfx[s] = p
	return nil
}

// Len returns the maximum filled length over all slots. For the lockstep
// (static-batch) usage every slot has the same length, so this is "the"
// cache length; slot-based callers should use SeqLen.
func (c *Cache) Len() int {
	max := 0
	for _, l := range c.lens {
		if l > max {
			max = l
		}
	}
	return max
}

// Append writes `steps` new positions for every slot into layer l, each at
// that slot's current length. k and v are [Seqs*steps, KVWidth],
// slot-major. The caller commits the lengths once per layer sweep via
// Advance.
func (c *Cache) Append(l int, k, v *tensor.Mat, steps int) {
	if k.Rows != c.Seqs*steps || k.Cols != c.KVWidth {
		panic(fmt.Sprintf("kvcache: append shape %dx%d, want %dx%d",
			k.Rows, k.Cols, c.Seqs*steps, c.KVWidth))
	}
	for s := 0; s < c.Seqs; s++ {
		c.appendAt(l, s, k, v, s*steps, steps)
	}
}

// AppendSeq writes `steps` new positions for slot s only into layer l.
// k and v are [steps, KVWidth]. Commit with AdvanceSeq after all layers.
func (c *Cache) AppendSeq(l, s int, k, v *tensor.Mat, steps int) {
	c.checkSlot(s)
	if k.Rows != steps || k.Cols != c.KVWidth {
		panic(fmt.Sprintf("kvcache: append shape %dx%d, want %dx%d",
			k.Rows, k.Cols, steps, c.KVWidth))
	}
	c.appendAt(l, s, k, v, 0, steps)
}

// appendAt copies `steps` rows of k/v starting at source row `src` into
// slot s of layer l at the slot's current length. With a prefix attached,
// private storage starts at the prefix boundary, so writes land at the
// private length while capacity is checked on the total sequence length.
func (c *Cache) appendAt(l, s int, k, v *tensor.Mat, src, steps int) {
	if c.SeqLen(s)+steps > c.MaxLen {
		panic(fmt.Sprintf("kvcache: slot %d overflow: %d+%d > capacity %d",
			s, c.SeqLen(s), steps, c.MaxLen))
	}
	at := s*c.MaxLen + c.lens[s]
	copyRows(c.k[l].Slice(at, at+steps), matRows(k).Slice(src, src+steps))
	copyRows(c.v[l].Slice(at, at+steps), matRows(v).Slice(src, src+steps))
}

// Advance commits `steps` appended positions on every slot after all
// layers have written.
func (c *Cache) Advance(steps int) {
	for s := 0; s < c.Seqs; s++ {
		if c.SeqLen(s)+steps > c.MaxLen {
			panic("kvcache: advance past capacity")
		}
	}
	for s := 0; s < c.Seqs; s++ {
		c.lens[s] += steps
	}
}

// AdvanceSeq commits `steps` appended positions on slot s.
func (c *Cache) AdvanceSeq(s, steps int) {
	c.checkSlot(s)
	if c.SeqLen(s)+steps > c.MaxLen {
		panic("kvcache: advance past capacity")
	}
	c.lens[s] += steps
}

// Alloc finds a free slot, marks it in use, and returns it. The second
// return is false when every slot is occupied.
func (c *Cache) Alloc() (int, bool) {
	for s := 0; s < c.Seqs; s++ {
		if !c.used[s] {
			c.used[s] = true
			c.lens[s] = 0
			return s, true
		}
	}
	return -1, false
}

// Release evicts slot s: its length is reset, its storage zeroed (so stale
// K/V from the previous occupant can never leak into a new sequence), and
// the slot returns to the free pool. Releasing a slot that is not allocated
// — including releasing the same slot twice — is a scheduler bookkeeping
// bug and returns an error without touching the slot; with reference-
// counted prefix blocks a silent double release would decrement a shared
// refcount twice and free a prefix other slots still alias. The returned
// prefix is the slot's detached shared prefix (nil if none); the caller
// releases its store reference.
func (c *Cache) Release(s int) (*Prefix, error) {
	c.checkSlot(s)
	if !c.used[s] {
		return nil, fmt.Errorf("kvcache: release of slot %d, which is not allocated (double release?)", s)
	}
	p := c.ResetSeq(s)
	c.used[s] = false
	return p, nil
}

// InUse reports whether slot s is currently allocated.
func (c *Cache) InUse(s int) bool {
	c.checkSlot(s)
	return c.used[s]
}

// FreeSlots counts unallocated slots.
func (c *Cache) FreeSlots() int {
	n := 0
	for _, u := range c.used {
		if !u {
			n++
		}
	}
	return n
}

// ResetSeq empties slot s and zeroes its rows in every layer without
// touching neighboring slots. Any attached shared prefix is detached (its
// single stored copy is untouched) and returned so the caller can release
// its store reference.
func (c *Cache) ResetSeq(s int) *Prefix {
	c.checkSlot(s)
	p := c.pfx[s]
	c.lens[s], c.pfx[s] = 0, nil
	for l := range c.k {
		c.k[l].Slice(s*c.MaxLen, (s+1)*c.MaxLen).zero()
		c.v[l].Slice(s*c.MaxLen, (s+1)*c.MaxLen).zero()
	}
	return p
}

// Keys returns the filled K rows of slot s in layer l: [SeqLen(s), KVWidth],
// including any attached shared prefix.
func (c *Cache) Keys(l, s int) *tensor.Mat {
	return c.RowsK(l, s, c.SeqLen(s))
}

// Values returns the filled V rows of slot s in layer l.
func (c *Cache) Values(l, s int) *tensor.Mat {
	return c.RowsV(l, s, c.SeqLen(s))
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
// extend past the committed SeqLen into rows already written by
// Append/AppendSeq but not yet committed — the window attention reads
// mid-pass.
func (c *Cache) Segments(l, s, total int) (preK, privK, preV, privV Rows) {
	c.checkSlot(s)
	if total < 0 || total > c.MaxLen {
		panic(fmt.Sprintf("kvcache: slot %d row range %d out of capacity %d", s, total, c.MaxLen))
	}
	preK, preV = c.k[l].Slice(0, 0), c.v[l].Slice(0, 0)
	pl := 0
	if p := c.pfx[s]; p != nil {
		pl = min(p.Len(), total)
		preK, preV = p.k[l].Slice(0, pl), p.v[l].Slice(0, pl)
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

// Reset empties the cache without reallocating: every slot becomes free
// and zero-length. Storage is not zeroed (use ResetSeq/Release for
// eviction hygiene on live slots). Attached shared prefixes are detached
// and returned so the caller can release their store references — dropping
// them would pin the prefixes in a budgeted store forever.
func (c *Cache) Reset() []*Prefix {
	var detached []*Prefix
	for s := 0; s < c.Seqs; s++ {
		c.lens[s] = 0
		c.used[s] = false
		if c.pfx[s] != nil {
			detached = append(detached, c.pfx[s])
			c.pfx[s] = nil
		}
	}
	return detached
}
