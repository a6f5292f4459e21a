package kvcache

import (
	"strings"
	"testing"

	"esti/internal/tensor"
)

func TestAppendAndRead(t *testing.T) {
	c := New(2, 3, 8, 4)
	k := tensor.New(3*2, 4) // 3 seqs × 2 steps
	v := tensor.New(3*2, 4)
	for i := range k.Data {
		k.Data[i] = float32(i)
		v.Data[i] = float32(-i)
	}
	for s := 0; s < 3; s++ {
		ks, vs := tensor.RowsView(k, 2*s, 2*s+2), tensor.RowsView(v, 2*s, 2*s+2)
		for l := 0; l < 2; l++ {
			c.AppendSeq(l, s, &ks, &vs, 2)
		}
		c.AdvanceSeq(s, 2)
	}
	if c.SeqLen(1) != 2 {
		t.Fatalf("len %d", c.SeqLen(1))
	}
	keys := c.RowsK(0, 1, c.SeqLen(1)) // sequence 1
	if keys.Rows != 2 || keys.Cols != 4 {
		t.Fatalf("keys shape %dx%d", keys.Rows, keys.Cols)
	}
	// Sequence 1's first appended row was k.Row(1*2+0) = row 2.
	if keys.At(0, 0) != k.At(2, 0) {
		t.Errorf("keys[0][0] = %g, want %g", keys.At(0, 0), k.At(2, 0))
	}
	vals := c.RowsV(0, 1, c.SeqLen(1))
	if vals.At(1, 3) != v.At(3, 3) {
		t.Errorf("vals[1][3] = %g, want %g", vals.At(1, 3), v.At(3, 3))
	}
}

func TestBytesAccounting(t *testing.T) {
	c := New(4, 2, 16, 8)
	want := 2 * 4 * 2 * 16 * 8 * 4
	if c.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", c.Bytes(), want)
	}
	if c.UsedBytes() != 0 {
		t.Error("empty cache should use 0 bytes")
	}
	c.AdvanceSeq(0, 3)
	c.AdvanceSeq(1, 3)
	if got, want := c.UsedBytes(), 2*4*2*3*8*4; got != want {
		t.Errorf("UsedBytes = %d, want %d", got, want)
	}
}

func TestOverflowPanics(t *testing.T) {
	c := New(1, 1, 2, 4)
	c.AdvanceSeq(0, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	c.AdvanceSeq(0, 1)
}

func TestAppendShapePanics(t *testing.T) {
	c := New(1, 2, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected shape panic")
		}
	}()
	c.AppendSeq(0, 0, tensor.New(1, 3), tensor.New(1, 3), 1) // want 4 columns
}

// An append that only partly fits panics rather than writing the rows that
// do.
func TestAppendBeyondCapacityPanics(t *testing.T) {
	c := New(1, 1, 2, 4)
	c.AdvanceSeq(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected capacity panic")
		}
	}()
	c.AppendSeq(0, 0, tensor.New(2, 4), tensor.New(2, 4), 2)
}

func TestReset(t *testing.T) {
	c := New(1, 2, 4, 4)
	fill(c, 0, 3, 1)
	fill(c, 1, 2, 1)
	c.Reset()
	for s := 0; s < c.Seqs; s++ {
		if c.SeqLen(s) != 0 {
			t.Errorf("reset did not clear slot %d's length", s)
		}
	}
}

// Reset empties every slot and detaches attached prefixes, leaving their
// reference counts alone: a reference belongs to whoever acquired it (the
// engine's per-slot ref), which gives it back to the store.
func TestResetReturnsAttachedPrefixes(t *testing.T) {
	const layers, width = 1, 2
	c := New(layers, 3, 4, width)
	ps := NewPrefixStore(layers, width, 0)
	k, v := prefixBlocks(layers, 2, width, 1)
	ps.Insert([]int{1, 2}, k, v)
	p0, _ := ps.Acquire([]int{1, 2})
	p2, _ := ps.Acquire([]int{1, 2})
	c.AttachPrefix(0, p0.Block(0))
	c.AttachPrefix(2, p2.Block(0))
	fill(c, 1, 3, 5)

	c.Reset()
	for s := 0; s < c.Seqs; s++ {
		if c.SeqLen(s) != 0 || c.prefixLen(s) != 0 {
			t.Errorf("slot %d: len %d, prefix %d after Reset", s, c.SeqLen(s), c.prefixLen(s))
		}
	}
	if p0.Refs() != 2 {
		t.Errorf("refs = %d after Reset, want the acquirers' 2", p0.Refs())
	}
	for _, p := range []*Prefix{p0, p2} {
		if err := ps.Release(p); err != nil {
			t.Fatal(err)
		}
	}
	if p0.Refs() != 0 {
		t.Errorf("refs = %d after the acquirers released", p0.Refs())
	}
	// The reset slots take a prefix again.
	if err := c.AttachPrefix(0, p0.Block(0)); err != nil {
		t.Errorf("attach after Reset: %v", err)
	}
}

// fill writes `steps` constant-valued rows into slot s of every layer and
// commits them.
func fill(c *Cache, s, steps int, val float32) {
	k := tensor.New(steps, c.KVWidth)
	v := tensor.New(steps, c.KVWidth)
	for i := range k.Data {
		k.Data[i] = val
		v.Data[i] = -val
	}
	for l := 0; l < c.Layers; l++ {
		c.AppendSeq(l, s, k, v, steps)
	}
	c.AdvanceSeq(s, steps)
}

func TestPerSlotLengths(t *testing.T) {
	c := New(2, 4, 8, 4)
	fill(c, 0, 3, 1)
	fill(c, 2, 5, 2)
	for s, want := range []int{3, 0, 5, 0} {
		if got := c.SeqLen(s); got != want {
			t.Errorf("SeqLen(%d) = %d, want %d", s, got, want)
		}
	}
	if got, want := c.UsedBytes(), 2*2*(3+5)*4*4; got != want {
		t.Errorf("UsedBytes = %d, want %d", got, want)
	}
	// Slot 0's data must be its own, not slot 2's.
	if got := c.RowsK(0, 0, c.SeqLen(0)).At(0, 0); got != 1 {
		t.Errorf("slot 0 key = %g, want 1", got)
	}
	if got := c.RowsK(1, 2, c.SeqLen(2)).At(4, 3); got != 2 {
		t.Errorf("slot 2 key = %g, want 2", got)
	}
}

// ResetSeq empties one slot and zeroes its storage, so stale K/V from the
// previous occupant can never leak into the next sequence, without
// touching its neighbors; the slot is then reusable.
// A slot is taken by appending to it and released by ResetSeq: the release
// clears its length and zeroes its storage, and the slot takes new rows.
func TestAllocRelease(t *testing.T) {
	c := New(1, 2, 4, 4)
	fill(c, 0, 3, 7)
	fill(c, 1, 2, 8)
	c.ResetSeq(0)
	if c.SeqLen(0) != 0 {
		t.Error("release did not reset the length")
	}
	// Eviction hygiene: the released slot's storage is zeroed.
	for i, x := range c.k[0].Slice(0, c.MaxLen).F32 {
		if x != 0 {
			t.Fatalf("stale K data at position %d after release", i/c.KVWidth)
		}
	}
	// The released slot is reused.
	fill(c, 0, 1, 9)
	if c.SeqLen(0) != 1 {
		t.Errorf("reused slot length = %d, want 1", c.SeqLen(0))
	}
	if got := c.RowsK(0, 0, c.SeqLen(0)).At(0, 0); got != 9 {
		t.Errorf("reused slot content = %g, want 9", got)
	}
}

func TestReleaseDoesNotTouchNeighbors(t *testing.T) {
	c := New(2, 3, 4, 4)
	fill(c, 0, 2, 5)
	fill(c, 1, 3, 6)
	fill(c, 2, 1, 7)
	c.ResetSeq(1)
	if c.SeqLen(0) != 2 || c.SeqLen(2) != 1 {
		t.Error("reset of slot 1 changed neighbor lengths")
	}
	if got := c.RowsK(0, 0, c.SeqLen(0)).At(1, 2); got != 5 {
		t.Errorf("slot 0 data corrupted: %g", got)
	}
	if got := c.RowsV(1, 2, c.SeqLen(2)).At(0, 0); got != -7 {
		t.Errorf("slot 2 data corrupted: %g", got)
	}
}

func TestAppendSeqShapePanics(t *testing.T) {
	c := New(1, 2, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected shape panic")
		}
	}()
	c.AppendSeq(0, 0, tensor.New(2, 4), tensor.New(2, 4), 1) // want 1 row
}

func TestAppendSeqOverflowPanics(t *testing.T) {
	c := New(1, 2, 2, 4)
	fill(c, 1, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	c.AppendSeq(0, 1, tensor.New(1, 4), tensor.New(1, 4), 1)
}

func TestSlotOutOfRangePanics(t *testing.T) {
	c := New(1, 2, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected range panic")
		}
	}()
	c.SeqLen(2)
}

// A cache with no layer, slot, position or column is a caller bug; both
// constructors name it rather than failing later in an allocator.
func TestNonPositiveShapePanics(t *testing.T) {
	for _, f := range formats {
		for _, shape := range [][4]int{{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, -3, 1}, {1, 1, 1, 0}} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "kvcache: cache with ") {
						t.Errorf("%s cache of shape %v: panic %q", f.name, shape, msg)
					}
				}()
				f.newCache(shape[0], shape[1], shape[2], shape[3])
			}()
		}
	}
}
