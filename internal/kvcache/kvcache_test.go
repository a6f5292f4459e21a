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
	c.Append(0, k, v, 2)
	c.Append(1, k, v, 2)
	c.Advance(2)
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
	keys := c.Keys(0, 1) // sequence 1
	if keys.Rows != 2 || keys.Cols != 4 {
		t.Fatalf("keys shape %dx%d", keys.Rows, keys.Cols)
	}
	// Sequence 1's first appended row was k.Row(1*2+0) = row 2.
	if keys.At(0, 0) != k.At(2, 0) {
		t.Errorf("keys[0][0] = %g, want %g", keys.At(0, 0), k.At(2, 0))
	}
	vals := c.Values(0, 1)
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
	c.Advance(3)
	if got, want := c.UsedBytes(), 2*4*2*3*8*4; got != want {
		t.Errorf("UsedBytes = %d, want %d", got, want)
	}
}

func TestOverflowPanics(t *testing.T) {
	c := New(1, 1, 2, 4)
	c.Advance(2)
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	c.Advance(1)
}

func TestAppendShapePanics(t *testing.T) {
	c := New(1, 2, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected shape panic")
		}
	}()
	c.Append(0, tensor.New(3, 4), tensor.New(3, 4), 1) // want 2 rows
}

func TestAppendBeyondCapacityPanics(t *testing.T) {
	c := New(1, 1, 2, 4)
	c.Advance(2)
	defer func() {
		if recover() == nil {
			t.Error("expected capacity panic")
		}
	}()
	c.Append(0, tensor.New(1, 4), tensor.New(1, 4), 1)
}

func TestReset(t *testing.T) {
	c := New(1, 1, 4, 4)
	c.Advance(3)
	c.Reset()
	if c.Len() != 0 {
		t.Error("reset did not clear length")
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
	if c.Len() != 5 {
		t.Errorf("Len() = %d, want max slot length 5", c.Len())
	}
	if got, want := c.UsedBytes(), 2*2*(3+5)*4*4; got != want {
		t.Errorf("UsedBytes = %d, want %d", got, want)
	}
	// Slot 0's data must be its own, not slot 2's.
	if got := c.Keys(0, 0).At(0, 0); got != 1 {
		t.Errorf("slot 0 key = %g, want 1", got)
	}
	if got := c.Keys(1, 2).At(4, 3); got != 2 {
		t.Errorf("slot 2 key = %g, want 2", got)
	}
}

func TestAllocRelease(t *testing.T) {
	c := New(1, 2, 4, 4)
	s0, ok := c.Alloc()
	if !ok || s0 != 0 {
		t.Fatalf("first alloc = %d, %v", s0, ok)
	}
	s1, ok := c.Alloc()
	if !ok || s1 != 1 {
		t.Fatalf("second alloc = %d, %v", s1, ok)
	}
	if _, ok := c.Alloc(); ok {
		t.Error("alloc on a full cache should fail")
	}
	if c.FreeSlots() != 0 {
		t.Errorf("FreeSlots = %d, want 0", c.FreeSlots())
	}
	fill(c, s0, 3, 7)
	if _, err := c.Release(s0); err != nil {
		t.Fatalf("release of allocated slot: %v", err)
	}
	if c.InUse(s0) || c.FreeSlots() != 1 {
		t.Error("release did not free the slot")
	}
	if c.SeqLen(s0) != 0 {
		t.Error("release did not reset the length")
	}
	// Eviction hygiene: the released slot's storage is zeroed.
	for p := 0; p < c.MaxLen; p++ {
		if c.k[0].F32[(s0*c.MaxLen+p)*c.KVWidth] != 0 {
			t.Fatalf("stale K data at position %d after release", p)
		}
	}
	// Reallocation reuses the freed slot.
	s, ok := c.Alloc()
	if !ok || s != s0 {
		t.Errorf("realloc = %d, %v; want %d", s, ok, s0)
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
	if got := c.Keys(0, 0).At(1, 2); got != 5 {
		t.Errorf("slot 0 data corrupted: %g", got)
	}
	if got := c.Values(1, 2).At(0, 0); got != -7 {
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

// Regression: releasing a slot twice (or one never allocated) must be an
// error, not a silent success. With reference-counted prefix blocks a
// double release would drop a shared refcount twice and free a prefix other
// slots still alias.
func TestDoubleReleaseIsError(t *testing.T) {
	c := New(1, 2, 4, 4)
	if _, err := c.Release(0); err == nil {
		t.Error("release of never-allocated slot succeeded")
	}
	s, ok := c.Alloc()
	if !ok {
		t.Fatal("alloc failed")
	}
	fill(c, s, 2, 3)
	if _, err := c.Release(s); err != nil {
		t.Fatalf("first release: %v", err)
	}
	if _, err := c.Release(s); err == nil {
		t.Error("double release succeeded silently")
	}
	// The failed second release must not have re-zeroed or re-freed
	// anything a new occupant relies on.
	s2, ok := c.Alloc()
	if !ok || s2 != s {
		t.Fatalf("realloc after double-release attempt: slot %d ok=%v", s2, ok)
	}
	fill(c, s2, 1, 9)
	if got := c.Keys(0, s2).At(0, 0); got != 9 {
		t.Errorf("slot content after realloc = %g, want 9", got)
	}
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
