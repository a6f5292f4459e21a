package kvcache

// Shared-prefix KV reuse. Millions of chatbot requests open with the same
// system prompt or few-shot template; recomputing that prefix's K/V on every
// admission spends exactly the resource the paper shows the prefill phase is
// short on (compute, Section 2), and storing a private copy per slot spends
// the resource the decode phase is short on (HBM, Table 1). A PrefixStore
// holds one immutable entry per distinct prefix, keyed by its token IDs in
// a trie so lookup finds the *longest* cached prefix of a new prompt, and
// reference-counted so any number of live slots alias it. An entry holds
// one KVBlock, the type a handoff carries, per cache it was captured from —
// a sharded engine's chips each hold their own slice of a slot's rows — and
// caches that hold the same rows share one block. Capture copies a block
// out of a slot with the copy ExportSeq uses, and a slot attaches one
// (Cache.AttachPrefix) through the admission check ImportSeq uses, then
// appends only its private suffix: divergence after the shared part needs
// no copy at all, because appends are always past the prefix boundary —
// the copy-on-divergence degenerate case.
//
// Eviction is LRU over unreferenced entries under a byte budget, the same
// admission-shaping role the serving tier plays for slots themselves.

import (
	"fmt"

	"esti/internal/tensor"
)

// Prefix is one immutable cached prefix: blocks of K/V rows for its tokens,
// one per cache it was captured from (Block), in its store's storage
// format, plus the store's bookkeeping. It is created by PrefixStore.Insert
// or Capture and shared read-only between any number of cache slots;
// refcounts are managed by Acquire/Release. An int8 store's blocks are
// resident at half the bf16 bytes and attach only to int8 caches.
type Prefix struct {
	blocks []*KVBlock // read-only once inserted; repeats share a block
	// node is the trie node the entry's key ends at (nil once removed).
	node    *trieNode
	refs    int
	lastUse int64
}

// Len returns the prefix length in tokens.
func (p *Prefix) Len() int { return p.blocks[0].Len }

// Block returns the rows captured from the i-th cache Capture was given
// (Insert makes one block), for Cache.AttachPrefix.
func (p *Prefix) Block(i int) *KVBlock { return p.blocks[i] }

// Refs returns the number of live references (attached slots).
func (p *Prefix) Refs() int { return p.refs }

// Bytes is the K+V backing footprint of one of the prefix's blocks in its
// storage format, so budget accounting and LRU eviction run in quantized
// units in an int8 store, and count one cache's share of the rows. Every
// block has the store's width, so they all weigh the same.
func (p *Prefix) Bytes() int { return p.blocks[0].Bytes() }

// trieNode is one token edge in the prefix trie. An entry may sit on an
// interior node: a short system prompt can be a prefix of a longer cached
// template, and Acquire returns the deepest entry along the prompt.
type trieNode struct {
	parent   *trieNode
	tok      int
	children map[int]*trieNode
	entry    *Prefix
}

// PrefixStore is a reference-counted, byte-budgeted store of shared
// prefixes. It is not safe for concurrent use; callers serialize (the
// schedulers in this repo are single-threaded per engine).
type PrefixStore struct {
	layers, width int
	budget        int  // bytes; 0 = unlimited
	int8Mode      bool // store blocks quantized (NewPrefixStoreInt8)

	root    trieNode
	clock   int64
	bytes   int
	entries int

	hits, misses       int64
	hitToks, missToks  int64
	insertions, evicts int64
}

// PrefixStats is a point-in-time summary of store effectiveness.
type PrefixStats struct {
	Entries int
	Bytes   int
	// Hits/Misses count Acquire outcomes; HitTokens sums the lengths of the
	// returned prefixes — prefill tokens the engine did not recompute.
	Hits, Misses          int64
	HitTokens, MissTokens int64
	Insertions, Evictions int64
}

// NewPrefixStore creates an empty store for prefixes of the given per-layer
// K/V width. budgetBytes bounds resident K+V bytes (0 = unlimited).
func NewPrefixStore(layers, width, budgetBytes int) *PrefixStore {
	if layers < 1 || width < 1 {
		panic(fmt.Sprintf("kvcache: prefix store with %d layers, width %d", layers, width))
	}
	return &PrefixStore{layers: layers, width: width, budget: budgetBytes}
}

// NewPrefixStoreInt8 creates an empty store that holds its blocks as int8
// rows: Insert still takes float32 K/V and quantizes them on the way in,
// Capture copies an int8 slot's rows verbatim, entries attach only to int8
// caches, and the byte budget governs quantized bytes — the same prefixes
// resident at half the bf16 footprint, or twice the prefixes under one
// budget.
func NewPrefixStoreInt8(layers, width, budgetBytes int) *PrefixStore {
	ps := NewPrefixStore(layers, width, budgetBytes)
	ps.int8Mode = true
	return ps
}

// Stats returns a snapshot of store counters.
func (ps *PrefixStore) Stats() PrefixStats {
	return PrefixStats{
		Entries: ps.entries, Bytes: ps.bytes,
		Hits: ps.hits, Misses: ps.misses,
		HitTokens: ps.hitToks, MissTokens: ps.missToks,
		Insertions: ps.insertions, Evictions: ps.evicts,
	}
}

// Insert stores per-layer K/V blocks for the exact token sequence `tokens`.
// k and v are per layer [len(tokens), width]; the store keeps deep copies,
// so callers may reuse their buffers. Inserting an already-present sequence
// refreshes its recency and returns the existing entry. When the insertion
// pushes the store over its byte budget, unreferenced entries are evicted
// LRU-first; if the new entry cannot fit even then, it is not stored and an
// error is returned.
func (ps *PrefixStore) Insert(tokens []int, k, v []*tensor.Mat) (*Prefix, error) {
	if len(k) != ps.layers || len(v) != ps.layers {
		return nil, fmt.Errorf("kvcache: prefix has %d/%d layer blocks, store wants %d", len(k), len(v), ps.layers)
	}
	for l := 0; l < ps.layers; l++ {
		if k[l].Rows != len(tokens) || k[l].Cols != ps.width ||
			v[l].Rows != len(tokens) || v[l].Cols != ps.width {
			return nil, fmt.Errorf("kvcache: prefix layer %d shape %dx%d, want %dx%d",
				l, k[l].Rows, k[l].Cols, len(tokens), ps.width)
		}
	}
	return ps.insert(tokens, func() []*KVBlock {
		b := newBlock(ps.layers, len(tokens), ps.width, ps.int8Mode)
		for l := range b.K {
			copyRows(b.K[l], matRows(k[l]))
			copyRows(b.V[l], matRows(v[l]))
		}
		return []*KVBlock{&b}
	})
}

// Capture stores the first len(tokens) positions of slot s of every cache
// in from — which must be the positions those tokens produced; the store
// trusts the key — as one prefix, with Insert's duplicate, budget and
// eviction behaviour. Block(i) is from[i]'s rows, and a cache listed again
// in a row shares the previous block instead of being copied twice. The
// rows are copied out as the slot stores them (Cache.block, the copy
// ExportSeq makes), an attached prefix of its own included, so a slot that
// later attaches the entry walks the same rows the captured slot does.
// Every cache must store the store's format: a capture never converts.
func (ps *PrefixStore) Capture(tokens []int, from []*Cache, s int) (*Prefix, error) {
	if len(from) == 0 {
		return nil, fmt.Errorf("kvcache: capture from no cache")
	}
	for _, c := range from {
		if c.Layers != ps.layers || c.KVWidth != ps.width || c.int8Mode != ps.int8Mode {
			return nil, fmt.Errorf("kvcache: capture from a %s cache of %d layers, width %d into a %s store of %d, %d",
				storageName(c.int8Mode), c.Layers, c.KVWidth, storageName(ps.int8Mode), ps.layers, ps.width)
		}
		if have := c.SeqLen(s); len(tokens) > have {
			return nil, fmt.Errorf("kvcache: capture of %d tokens from slot %d holding %d", len(tokens), s, have)
		}
	}
	return ps.insert(tokens, func() []*KVBlock {
		blocks := make([]*KVBlock, len(from))
		for i, c := range from {
			if i > 0 && c == from[i-1] {
				blocks[i] = blocks[i-1]
				continue
			}
			b := c.block(s, len(tokens))
			blocks[i] = &b
		}
		return blocks
	})
}

// insert finds the entry keyed by tokens or creates it from the blocks
// build returns, which runs only when the key is new.
func (ps *PrefixStore) insert(tokens []int, build func() []*KVBlock) (*Prefix, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("kvcache: empty prefix")
	}
	node := &ps.root
	for _, tok := range tokens {
		child, ok := node.children[tok]
		if !ok {
			child = &trieNode{parent: node, tok: tok}
			if node.children == nil {
				node.children = map[int]*trieNode{}
			}
			node.children[tok] = child
		}
		node = child
	}
	if node.entry != nil {
		node.entry.lastUse = ps.tick()
		return node.entry, nil
	}

	p := &Prefix{blocks: build(), node: node}
	node.entry = p
	p.lastUse = ps.tick()
	ps.bytes += p.Bytes()
	ps.entries++
	ps.insertions++

	if ps.budget > 0 && ps.bytes > ps.budget {
		ps.evictOver(p)
		if ps.bytes > ps.budget {
			ps.remove(p)
			return nil, fmt.Errorf("kvcache: prefix of %d tokens (%d bytes) does not fit budget %d",
				len(tokens), p.Bytes(), ps.budget)
		}
	}
	return p, nil
}

// Acquire returns the longest stored prefix of `tokens` with its reference
// count incremented, plus its length; (nil, 0) on a miss. The caller owns
// one reference and must Release it (typically when the attached slot is
// freed).
func (ps *PrefixStore) Acquire(tokens []int) (*Prefix, int) {
	node := &ps.root
	var best *Prefix
	for _, tok := range tokens {
		child, ok := node.children[tok]
		if !ok {
			break
		}
		node = child
		if node.entry != nil {
			best = node.entry
		}
	}
	if best == nil {
		ps.misses++
		ps.missToks += int64(len(tokens))
		return nil, 0
	}
	best.refs++
	best.lastUse = ps.tick()
	ps.hits++
	ps.hitToks += int64(best.Len())
	return best, best.Len()
}

// Release drops one reference to p. Releasing below zero is a bookkeeping
// bug and returns an error.
func (ps *PrefixStore) Release(p *Prefix) error {
	if p == nil {
		return fmt.Errorf("kvcache: release of nil prefix")
	}
	if p.refs <= 0 {
		return fmt.Errorf("kvcache: prefix of %d tokens released more times than acquired", p.Len())
	}
	p.refs--
	return nil
}

// evictOver evicts unreferenced entries, least recently used first, until
// the store fits its budget. `keep` (the entry just inserted) is never
// evicted here so Insert can decide its fate explicitly.
func (ps *PrefixStore) evictOver(keep *Prefix) {
	for ps.bytes > ps.budget {
		victim := ps.lruUnreferenced(keep)
		if victim == nil {
			return
		}
		ps.remove(victim)
		ps.evicts++
	}
}

// lruUnreferenced finds the least recently used entry with no references,
// excluding `skip`.
func (ps *PrefixStore) lruUnreferenced(skip *Prefix) *Prefix {
	var victim *Prefix
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		if n.entry != nil && n.entry != skip && n.entry.refs == 0 {
			if victim == nil || n.entry.lastUse < victim.lastUse {
				victim = n.entry
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(&ps.root)
	return victim
}

// remove unlinks an entry and prunes now-empty trie nodes.
func (ps *PrefixStore) remove(p *Prefix) {
	ps.bytes -= p.Bytes()
	ps.entries--
	n := p.node
	n.entry = nil
	p.node = nil
	for n != nil && n.parent != nil && n.entry == nil && len(n.children) == 0 {
		delete(n.parent.children, n.tok)
		n = n.parent
	}
}

func (ps *PrefixStore) tick() int64 {
	ps.clock++
	return ps.clock
}
