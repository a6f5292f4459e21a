package kvcache

import (
	"math/rand"
	"testing"

	"esti/internal/tensor"
)

// prefixBlocks builds per-layer [n, width] K/V blocks whose first column at
// position p is val+p (K) and -(val+p) (V).
func prefixBlocks(layers, n, width int, val float32) (k, v []*tensor.Mat) {
	k = make([]*tensor.Mat, layers)
	v = make([]*tensor.Mat, layers)
	for l := 0; l < layers; l++ {
		k[l] = tensor.New(n, width)
		v[l] = tensor.New(n, width)
		for p := 0; p < n; p++ {
			for i := 0; i < width; i++ {
				k[l].Row(p)[i] = val + float32(p)
				v[l].Row(p)[i] = -(val + float32(p))
			}
		}
	}
	return k, v
}

func TestPrefixStoreLongestMatch(t *testing.T) {
	ps := NewPrefixStore(2, 4, 0)
	k, v := prefixBlocks(2, 3, 4, 10)
	if _, err := ps.Insert([]int{1, 2, 3}, k, v); err != nil {
		t.Fatal(err)
	}
	k5, v5 := prefixBlocks(2, 5, 4, 20)
	if _, err := ps.Insert([]int{1, 2, 3, 4, 5}, k5, v5); err != nil {
		t.Fatal(err)
	}

	// Longest match wins; an interior entry is found when the walk falls
	// short of the longer one.
	p, n := ps.Acquire([]int{1, 2, 3, 4, 5, 6, 7})
	if p == nil || n != 5 {
		t.Fatalf("acquire = %v len %d, want the 5-token entry", p, n)
	}
	if got := p.k[1].Slice(4, 5).F32[0]; got != 24 {
		t.Errorf("acquired wrong block: K[1][4][0] = %g, want 24", got)
	}
	p3, n3 := ps.Acquire([]int{1, 2, 3, 9})
	if p3 == nil || n3 != 3 {
		t.Fatalf("acquire = %v len %d, want the interior 3-token entry", p3, n3)
	}
	if _, n0 := ps.Acquire([]int{2, 1}); n0 != 0 {
		t.Errorf("miss returned length %d", n0)
	}

	st := ps.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.HitTokens != 8 {
		t.Errorf("stats = %+v, want 2 hits (8 tokens), 1 miss", st)
	}
	if st.Entries != 2 || st.Bytes != 2*2*(3+5)*4*4 {
		t.Errorf("residency = %d entries, %d bytes", st.Entries, st.Bytes)
	}
}

func TestPrefixStoreRefcounting(t *testing.T) {
	ps := NewPrefixStore(1, 2, 0)
	k, v := prefixBlocks(1, 2, 2, 1)
	p, err := ps.Insert([]int{7, 8}, k, v)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := ps.Acquire([]int{7, 8})
	a2, _ := ps.Acquire([]int{7, 8, 9})
	if a1 != p || a2 != p {
		t.Fatal("acquires returned different entries for the same prefix")
	}
	if p.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", p.Refs())
	}
	if err := ps.Evict(p); err == nil {
		t.Error("evict of a referenced prefix succeeded")
	}
	if err := ps.Release(p); err != nil {
		t.Fatal(err)
	}
	if err := ps.Release(p); err != nil {
		t.Fatal(err)
	}
	// The double-release pathology the refcounted store must reject.
	if err := ps.Release(p); err == nil {
		t.Error("release below zero succeeded")
	}
	if err := ps.Evict(p); err != nil {
		t.Fatalf("evict of unreferenced prefix: %v", err)
	}
	if ps.Entries() != 0 || ps.Bytes() != 0 {
		t.Errorf("store not empty after evict: %d entries, %d bytes", ps.Entries(), ps.Bytes())
	}
	if got, _ := ps.Acquire([]int{7, 8}); got != nil {
		t.Error("evicted prefix still acquirable")
	}
}

func TestPrefixStoreLRUEvictionUnderBudget(t *testing.T) {
	const layers, width = 1, 2
	entryBytes := 2 * layers * 2 * width * 4 // two-token entries
	ps := NewPrefixStore(layers, width, 2*entryBytes)

	k, v := prefixBlocks(layers, 2, width, 1)
	pa, _ := ps.Insert([]int{1, 1}, k, v)
	pb, _ := ps.Insert([]int{2, 2}, k, v)
	// Touch A so B becomes LRU, then pin nothing and insert C: B evicts.
	ps.Acquire([]int{1, 1})
	ps.Release(pa)
	if _, err := ps.Insert([]int{3, 3}, k, v); err != nil {
		t.Fatal(err)
	}
	if got, _ := ps.Acquire([]int{2, 2}); got != nil {
		t.Error("LRU entry survived over-budget insert")
	}
	if got, _ := ps.Acquire([]int{1, 1}); got != pa {
		t.Error("recently used entry was evicted")
	}
	ps.Release(pa)
	_ = pb

	// A referenced entry is pinned: with both residents referenced, a new
	// insert that cannot fit is refused outright.
	p1, _ := ps.Acquire([]int{1, 1})
	p3, _ := ps.Acquire([]int{3, 3})
	if _, err := ps.Insert([]int{4, 4}, k, v); err == nil {
		t.Error("insert succeeded with no evictable entry and no budget")
	}
	if ps.Entries() != 2 {
		t.Errorf("failed insert left %d entries", ps.Entries())
	}
	ps.Release(p1)
	ps.Release(p3)

	// An entry bigger than the whole budget can never be stored.
	kBig, vBig := prefixBlocks(layers, 9, width, 5)
	if _, err := ps.Insert([]int{9, 9, 9, 9, 9, 9, 9, 9, 9}, kBig, vBig); err == nil {
		t.Error("insert beyond total budget succeeded")
	}
}

func TestPrefixStoreShapeValidation(t *testing.T) {
	ps := NewPrefixStore(2, 4, 0)
	k, v := prefixBlocks(1, 3, 4, 1) // wrong layer count
	if _, err := ps.Insert([]int{1, 2, 3}, k, v); err == nil {
		t.Error("layer-count mismatch accepted")
	}
	k2, v2 := prefixBlocks(2, 3, 5, 1) // wrong width
	if _, err := ps.Insert([]int{1, 2, 3}, k2, v2); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := ps.Insert(nil, nil, nil); err == nil {
		t.Error("empty prefix accepted")
	}
	// Duplicate insert returns the existing entry rather than re-storing.
	k3, v3 := prefixBlocks(2, 3, 4, 1)
	p1, _ := ps.Insert([]int{1, 2, 3}, k3, v3)
	p2, err := ps.Insert([]int{1, 2, 3}, k3, v3)
	if err != nil || p1 != p2 {
		t.Errorf("duplicate insert: %v, same=%v", err, p1 == p2)
	}
	if ps.Entries() != 1 {
		t.Errorf("duplicate insert changed residency: %d entries", ps.Entries())
	}
}

// An attached slot must read prefix rows then private rows, report the
// combined SeqLen, and append past the prefix boundary — the aliasing the
// engine's cached admission path relies on.
func TestCacheAttachPrefix(t *testing.T) {
	const layers, slots, maxLen, width = 2, 2, 6, 4
	c := New(layers, slots, maxLen, width)
	ps := NewPrefixStore(layers, width, 0)
	k, v := prefixBlocks(layers, 3, width, 100)
	if _, err := ps.Insert([]int{5, 6, 7}, k, v); err != nil {
		t.Fatal(err)
	}
	p, n := ps.Acquire([]int{5, 6, 7, 8})
	if n != 3 {
		t.Fatalf("acquired %d tokens, want 3", n)
	}
	if err := c.AttachPrefix(0, p); err != nil {
		t.Fatal(err)
	}
	if c.SeqLen(0) != 3 || c.PrefixLen(0) != 3 {
		t.Fatalf("attached slot len %d prefix %d, want 3/3", c.SeqLen(0), c.PrefixLen(0))
	}
	// Attach over a non-empty slot must fail.
	fill(c, 1, 1, 50)
	if err := c.AttachPrefix(1, p); err == nil {
		t.Error("attach over non-empty slot succeeded")
	}
	if err := c.AttachPrefix(0, p); err == nil {
		t.Error("second attach over prefixed slot succeeded")
	}

	// Private suffix appends start at position 3.
	fill(c, 0, 2, 200)
	if c.SeqLen(0) != 5 {
		t.Fatalf("len after suffix = %d, want 5", c.SeqLen(0))
	}
	keys := c.Keys(1, 0)
	wantFirstCol := []float32{100, 101, 102, 200, 200}
	for pos, want := range wantFirstCol {
		if got := keys.At(pos, 0); got != want {
			t.Errorf("keys[%d][0] = %g, want %g", pos, got, want)
		}
	}
	vals := c.Values(0, 0)
	if vals.At(1, 2) != -101 || vals.At(4, 1) != -200 {
		t.Errorf("values view wrong: %g, %g", vals.At(1, 2), vals.At(4, 1))
	}
	// Capacity counts the prefix: 5 filled of 6, so a 2-step append panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected overflow panic past prefix+private capacity")
			}
		}()
		c.AppendSeq(0, 0, tensor.New(2, width), tensor.New(2, width), 2)
	}()

	// UsedBytes counts only the private suffix — the aliased prefix is
	// resident once, in the store.
	if got, want := c.UsedBytes(), 2*layers*(2+1)*width*4; got != want {
		t.Errorf("UsedBytes = %d, want %d (private rows only)", got, want)
	}

	// Reset detaches and hands the prefix back for refcount release.
	got := c.ResetSeq(0)
	if got != p {
		t.Fatal("ResetSeq did not return the attached prefix")
	}
	if err := ps.Release(got); err != nil {
		t.Fatal(err)
	}
	if p.Refs() != 0 {
		t.Errorf("refs = %d after release", p.Refs())
	}
	if c.SeqLen(0) != 0 || c.PrefixLen(0) != 0 {
		t.Error("reset slot still reports prefix content")
	}
}

// Bulk Reset must hand back attached prefixes for refcount release, like
// ResetSeq/Release do — silently dropping them would pin the store copies
// forever.
func TestResetReturnsAttachedPrefixes(t *testing.T) {
	const layers, width = 1, 2
	c := New(layers, 3, 4, width)
	ps := NewPrefixStore(layers, width, 0)
	k, v := prefixBlocks(layers, 2, width, 1)
	ps.Insert([]int{1, 2}, k, v)
	p0, _ := ps.Acquire([]int{1, 2})
	p2, _ := ps.Acquire([]int{1, 2})
	c.AttachPrefix(0, p0)
	c.AttachPrefix(2, p2)

	detached := c.Reset()
	if len(detached) != 2 {
		t.Fatalf("Reset returned %d prefixes, want 2", len(detached))
	}
	for _, p := range detached {
		if err := ps.Release(p); err != nil {
			t.Fatal(err)
		}
	}
	if p0.Refs() != 0 {
		t.Errorf("refs = %d after releasing Reset's returns", p0.Refs())
	}
	if c.PrefixLen(0) != 0 || c.PrefixLen(2) != 0 {
		t.Error("Reset left prefixes attached")
	}
}

// A slot that attaches a captured prefix must walk exactly the rows the
// slot that prefilled them holds — every stored value and scale, not a
// float32 read-back quantized again — and that must survive a second
// capture taken from a slot that itself has a prefix attached.
func TestCaptureIsWhatThePrefilledSlotHolds(t *testing.T) {
	const layers, maxLen, width = 2, 8, 5
	tokens := []int{9, 8, 7, 6, 5, 4}
	for _, f := range formats {
		rng := rand.New(rand.NewSource(21))
		rows := make([][2]*tensor.Mat, layers) // six positions of K and V per layer
		for l := range rows {
			rows[l] = [2]*tensor.Mat{tensor.New(6, width).FillRand(rng, 3), tensor.New(6, width).FillRand(rng, 0.1)}
		}
		c := f.newCache(layers, 3, maxLen, width)
		store := f.newStore(layers, width, 0)
		appendRange := func(slot, lo, hi int) {
			for l := range rows {
				k, v := tensor.RowsView(rows[l][0], lo, hi), tensor.RowsView(rows[l][1], lo, hi)
				c.AppendSeq(l, slot, &k, &v, hi-lo)
			}
			c.AdvanceSeq(slot, hi-lo)
		}
		same := func(what string, slot, n int) {
			t.Helper()
			for l := 0; l < layers; l++ {
				_, wantK, _, wantV := c.Segments(l, 0, n)
				preK, privK, preV, privV := c.Segments(l, slot, n)
				if !sameStored(flat(preK, privK), wantK) || !sameStored(flat(preV, privV), wantV) {
					t.Errorf("%s, %s: layer %d of slot %d differs from the rows slot 0 prefilled", f.name, what, l, slot)
				}
			}
		}

		// Slot 0 prefills all six positions privately.
		appendRange(0, 0, 6)
		// Slot 1 attaches slot 0's first four and prefills the other two.
		p4, err := store.Capture(tokens[:4], c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p4.Bytes(), 2*layers*4*bytesPerRow(width, f.int8Mode); got != want || store.Bytes() != want {
			t.Errorf("%s: captured prefix is %d bytes, store %d, want %d", f.name, got, store.Bytes(), want)
		}
		if err := c.AttachPrefix(1, p4); err != nil {
			t.Fatal(err)
		}
		appendRange(1, 4, 6)
		same("attached", 1, 6)
		// Slot 2 attaches all six captured from slot 1: four rows out of
		// slot 1's own prefix, two out of its private suffix.
		p6, err := store.Capture(tokens, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AttachPrefix(2, p6); err != nil {
			t.Fatal(err)
		}
		if c.SeqLen(2) != 6 || c.PrefixLen(2) != 6 {
			t.Fatalf("%s: nested capture attached as len %d, prefix %d", f.name, c.SeqLen(2), c.PrefixLen(2))
		}
		same("nested capture", 2, 6)

		// Capturing a key again is Insert's duplicate: the entry, not a copy.
		if again, err := store.Capture(tokens[:4], c, 2); err != nil || again != p4 {
			t.Errorf("%s: duplicate capture returned %v, %v", f.name, again, err)
		}
		// The store refuses what the slot does not hold or cannot match.
		if _, err := store.Capture(append(tokens, 3), c, 0); err == nil {
			t.Errorf("%s: captured seven positions from a slot holding six", f.name)
		}
		if _, err := store.Capture(nil, c, 0); err == nil {
			t.Errorf("%s: captured an empty prefix", f.name)
		}
		if _, err := f.newStore(layers, width+1, 0).Capture(tokens[:2], c, 0); err == nil {
			t.Errorf("%s: captured into a store of another width", f.name)
		}
	}
}
