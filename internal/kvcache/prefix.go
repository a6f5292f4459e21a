package kvcache

// Shared-prefix KV reuse. Millions of chatbot requests open with the same
// system prompt or few-shot template; recomputing that prefix's K/V on every
// admission spends exactly the resource the paper shows the prefill phase is
// short on (compute, Section 2), and storing a private copy per slot spends
// the resource the decode phase is short on (HBM, Table 1). A PrefixStore
// holds one immutable K/V block per distinct prefix, keyed by its token IDs
// in a trie so lookup finds the *longest* cached prefix of a new prompt, and
// reference-counted so any number of live slots alias the same block. A
// slot attaches a prefix (Cache.AttachPrefix) and then appends only its
// private suffix: divergence after the shared part needs no copy at all,
// because appends are always past the prefix boundary — the copy-on-
// divergence degenerate case.
//
// Eviction is LRU over unreferenced entries under a byte budget, the same
// admission-shaping role the serving tier plays for slots themselves.

import (
	"fmt"

	"esti/internal/tensor"
)

// Prefix is one immutable cached prefix: per-layer K/V for its tokens, in
// its store's storage format. It is created by PrefixStore.Insert or
// Capture and shared read-only between any number of cache slots; refcounts
// are managed by Acquire/Release. An int8 store's blocks are resident at
// half the bf16 bytes and attach only to int8 caches.
type Prefix struct {
	tokens   []int
	width    int
	int8Mode bool
	k, v     []Rows // per layer: len(tokens) rows, read-only once inserted

	refs    int
	lastUse int64
	node    *trieNode
}

// Len returns the prefix length in tokens.
func (p *Prefix) Len() int { return len(p.tokens) }

// Tokens returns a copy of the token IDs the prefix was keyed on.
func (p *Prefix) Tokens() []int { return append([]int(nil), p.tokens...) }

// Refs returns the number of live references (attached slots).
func (p *Prefix) Refs() int { return p.refs }

// Bytes is the K+V backing footprint of the prefix in its storage format,
// so budget accounting and LRU eviction run in quantized units in an int8
// store.
func (p *Prefix) Bytes() int {
	return 2 * len(p.k) * len(p.tokens) * bytesPerRow(p.width, p.int8Mode)
}

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

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s PrefixStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
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

// Int8 reports whether the store holds its blocks quantized.
func (ps *PrefixStore) Int8() bool { return ps.int8Mode }

// Stats returns a snapshot of store counters.
func (ps *PrefixStore) Stats() PrefixStats {
	return PrefixStats{
		Entries: ps.entries, Bytes: ps.bytes,
		Hits: ps.hits, Misses: ps.misses,
		HitTokens: ps.hitToks, MissTokens: ps.missToks,
		Insertions: ps.insertions, Evictions: ps.evicts,
	}
}

// Bytes returns the resident K+V bytes of all stored prefixes.
func (ps *PrefixStore) Bytes() int { return ps.bytes }

// Entries returns the number of stored prefixes.
func (ps *PrefixStore) Entries() int { return ps.entries }

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
	return ps.insert(tokens, func(l int, dk, dv Rows) {
		copyRows(dk, matRows(k[l]))
		copyRows(dv, matRows(v[l]))
	})
}

// Capture stores the first len(tokens) positions of slot s of c — which
// must be the positions those tokens produced; the store trusts the key —
// as a prefix, with Insert's duplicate, budget and eviction behaviour. The
// slot's stored segments are copied as they are, an attached prefix of its
// own included, so a slot that later attaches the entry walks the same rows
// the captured slot does; only a float32 slot captured into an int8 store
// (or the reverse) is converted on the way.
func (ps *PrefixStore) Capture(tokens []int, c *Cache, s int) (*Prefix, error) {
	if c.Layers != ps.layers || c.KVWidth != ps.width {
		return nil, fmt.Errorf("kvcache: capture from a cache of %d layers, width %d into a store of %d, %d",
			c.Layers, c.KVWidth, ps.layers, ps.width)
	}
	if have := c.SeqLen(s); len(tokens) > have {
		return nil, fmt.Errorf("kvcache: capture of %d tokens from slot %d holding %d", len(tokens), s, have)
	}
	return ps.insert(tokens, func(l int, dk, dv Rows) {
		preK, privK, preV, privV := c.Segments(l, s, len(tokens))
		copySegments(dk, preK, privK)
		copySegments(dv, preV, privV)
	})
}

// insert finds the entry keyed by tokens or creates it, calling fill once
// per layer to write a new entry's rows.
func (ps *PrefixStore) insert(tokens []int, fill func(l int, k, v Rows)) (*Prefix, error) {
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

	p := &Prefix{
		tokens: append([]int(nil), tokens...),
		width:  ps.width, int8Mode: ps.int8Mode,
		k: make([]Rows, ps.layers), v: make([]Rows, ps.layers),
		node: node,
	}
	for l := range p.k {
		p.k[l] = newRows(len(tokens), ps.width, ps.int8Mode)
		p.v[l] = newRows(len(tokens), ps.width, ps.int8Mode)
		fill(l, p.k[l], p.v[l])
	}
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

// Evict removes p from the store regardless of the byte budget; it fails if
// the prefix is still referenced by a slot.
func (ps *PrefixStore) Evict(p *Prefix) error {
	if p == nil || p.node == nil || p.node.entry != p {
		return fmt.Errorf("kvcache: evict of prefix not in store")
	}
	if p.refs > 0 {
		return fmt.Errorf("kvcache: prefix of %d tokens still referenced by %d slots", p.Len(), p.refs)
	}
	ps.remove(p)
	ps.evicts++
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
