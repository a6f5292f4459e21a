package kvcache

import (
	"math/rand"
	"testing"

	"esti/internal/tensor"
)

// fillSlot appends n random rows to slot s across every layer and commits.
func fillSlot(c *Cache, s, n int, rng *rand.Rand) {
	for t := 0; t < n; t++ {
		k := tensor.New(1, c.KVWidth)
		v := tensor.New(1, c.KVWidth)
		for i := range k.Data {
			k.Data[i] = rng.Float32()*4 - 2
			v.Data[i] = rng.Float32()*4 - 2
		}
		for l := 0; l < c.Layers; l++ {
			c.AppendSeq(l, s, k, v, 1)
		}
		c.AdvanceSeq(s, 1)
	}
}

func matsEqual(t *testing.T, name string, a, b *tensor.Mat) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for r := 0; r < a.Rows; r++ {
		ra, rb := a.Row(r), b.Row(r)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s row %d col %d: %g vs %g", name, r, i, ra[i], rb[i])
			}
		}
	}
}

func TestExportImportFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := New(2, 3, 16, 8)
	fillSlot(src, 1, 5, rng)
	fillSlot(src, 0, 3, rng) // neighbor noise: must not leak into the block

	b, err := src.ExportSeq(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len != 5 || b.Layers != 2 || b.Width != 8 || b.Int8 {
		t.Fatalf("block %+v", b)
	}
	wantBytes := 2 * 2 * 5 * 8 * 4
	if b.Bytes() != wantBytes {
		t.Errorf("Bytes = %d, want %d", b.Bytes(), wantBytes)
	}

	dst := New(2, 2, 16, 8)
	if err := dst.ImportSeq(0, b); err != nil {
		t.Fatal(err)
	}
	if dst.SeqLen(0) != 5 {
		t.Fatalf("imported SeqLen = %d", dst.SeqLen(0))
	}
	for l := 0; l < 2; l++ {
		matsEqual(t, "K", src.RowsK(l, 1, 5), dst.RowsK(l, 0, 5))
		matsEqual(t, "V", src.RowsV(l, 1, 5), dst.RowsV(l, 0, 5))
	}

	// The block is a deep copy: releasing the source slot must not corrupt
	// the imported rows.
	src.ResetSeq(1)
	if dst.RowsK(0, 0, 5).At(4, 0) == 0 && dst.RowsK(0, 0, 5).At(4, 1) == 0 {
		t.Error("imported rows zeroed by source reset — block aliased live storage")
	}
}

func TestExportImportInt8BitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := NewInt8(3, 2, 12, 4)
	fillSlot(src, 0, 7, rng)

	b, err := src.ExportSeq(0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Int8 || b.Len != 7 {
		t.Fatalf("block %+v", b)
	}
	wantBytes := 2 * 3 * 7 * (4 + 4)
	if b.Bytes() != wantBytes {
		t.Errorf("Bytes = %d, want %d", b.Bytes(), wantBytes)
	}

	dst := NewInt8(3, 2, 12, 4)
	if err := dst.ImportSeq(1, b); err != nil {
		t.Fatal(err)
	}
	// Raw storage must match bit for bit: same quantized values, same
	// scales. Token-exact decode after handoff follows from this.
	for l := 0; l < 3; l++ {
		_, sk, _, sv := src.Segments(l, 0, 7)
		_, dk, _, dv := dst.Segments(l, 1, 7)
		if err := dk.check(7, 4, true); err != nil {
			t.Fatalf("layer %d: imported %v", l, err)
		}
		if !sameStored(sk, dk) || !sameStored(sv, dv) {
			t.Fatalf("layer %d: imported values or scales differ from the source's", l)
		}
	}
}

func TestExportMaterializesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := New(2, 2, 16, 4)

	// Build a 4-token shared prefix and attach it to slot 0.
	fillSlot(src, 1, 4, rng)
	store := NewPrefixStore(2, 4, 0)
	k := make([]*tensor.Mat, 2)
	v := make([]*tensor.Mat, 2)
	for l := 0; l < 2; l++ {
		k[l] = src.RowsK(l, 1, 4).Clone()
		v[l] = src.RowsV(l, 1, 4).Clone()
	}
	p, err := store.Insert([]int{10, 11, 12, 13}, k, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AttachPrefix(0, p); err != nil {
		t.Fatal(err)
	}
	fillSlot(src, 0, 3, rng) // private suffix

	b, err := src.ExportSeq(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len != 7 {
		t.Fatalf("block Len = %d, want prefix+suffix = 7", b.Len)
	}

	// Import into a cache with no prefix store at all: the block carries the
	// prefix rows itself.
	dst := New(2, 1, 16, 4)
	if err := dst.ImportSeq(0, b); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 2; l++ {
		matsEqual(t, "K", src.RowsK(l, 0, 7), dst.RowsK(l, 0, 7))
		matsEqual(t, "V", src.RowsV(l, 0, 7), dst.RowsV(l, 0, 7))
	}
}

func TestImportValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := New(2, 1, 8, 4)
	fillSlot(src, 0, 3, rng)
	b, err := src.ExportSeq(0)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := New(2, 1, 8, 4).ExportSeq(0); err == nil {
		t.Error("export of empty slot should fail")
	}
	if err := New(2, 1, 8, 4).ImportSeq(0, nil); err == nil {
		t.Error("nil block import should fail")
	}
	if err := NewInt8(2, 1, 8, 4).ImportSeq(0, b); err == nil {
		t.Error("float block into int8 cache should fail")
	}
	if err := New(3, 1, 8, 4).ImportSeq(0, b); err == nil {
		t.Error("layer mismatch should fail")
	}
	if err := New(2, 1, 8, 8).ImportSeq(0, b); err == nil {
		t.Error("width mismatch should fail")
	}
	if err := New(2, 1, 2, 4).ImportSeq(0, b); err == nil {
		t.Error("capacity overflow should fail")
	}
	full := New(2, 1, 8, 4)
	fillSlot(full, 0, 1, rng)
	if err := full.ImportSeq(0, b); err == nil {
		t.Error("import into non-empty slot should fail")
	}
	// Happy path still works after all the failed attempts.
	dst := New(2, 1, 8, 4)
	if err := dst.ImportSeq(0, b); err != nil {
		t.Fatal(err)
	}
}

// ImportSeq must not trust a block's header: every layer's K and V is held
// to the header's format, row count, width and scale count before the first
// row is written, so a malformed block is an error that leaves the slot
// empty and zero — not a panic after layer 0 landed, and not a committed
// length over rows that were never copied.
func TestImportRejectsMalformedBlock(t *testing.T) {
	const layers, maxLen, width, n = 2, 8, 4, 5
	for _, f := range formats {
		rng := rand.New(rand.NewSource(6))
		src := f.newCache(layers, 1, maxLen, width)
		fillSlot(src, 0, n, rng)
		export := func() *KVBlock {
			b, err := src.ExportSeq(0)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		other := randRows(rng, n, width, !f.int8Mode)
		cases := map[string]func(b *KVBlock){
			"K cut to one layer":        func(b *KVBlock) { b.K = b.K[:1] },
			"V cut to one layer":        func(b *KVBlock) { b.V = b.V[:1] },
			"layer-1 K cut to two rows": func(b *KVBlock) { b.K[1] = b.K[1].Slice(0, 2) },
			"layer-1 V values cut, header kept": func(b *KVBlock) {
				b.V[1].F32, b.V[1].I8 = b.V[1].F32[:len(b.V[1].F32)/2], b.V[1].I8[:len(b.V[1].I8)/2]
			},
			"layer-0 K one column narrower": func(b *KVBlock) { b.K[0] = randRows(rng, n, width-1, f.int8Mode) },
			"layer-1 K in the other format": func(b *KVBlock) { b.K[1] = other },
			"layer-0 V in the other format": func(b *KVBlock) { b.V[0] = other },
			"header says the other format":  func(b *KVBlock) { b.Int8 = !b.Int8 },
		}
		if f.int8Mode {
			cases["layer-1 K scales cut to two"] = func(b *KVBlock) { b.K[1].Scales = b.K[1].Scales[:2] }
		}
		for name, damage := range cases {
			b := export()
			damage(b)
			dst := f.newCache(layers, 1, maxLen, width)
			if err := dst.ImportSeq(0, b); err == nil {
				t.Errorf("%s, %s: import succeeded", f.name, name)
			}
			if dst.SeqLen(0) != 0 {
				t.Errorf("%s, %s: failed import committed %d positions", f.name, name, dst.SeqLen(0))
			}
			for l := 0; l < layers; l++ {
				for _, m := range []*tensor.Mat{dst.RowsK(l, 0, maxLen), dst.RowsV(l, 0, maxLen)} {
					for _, x := range m.Data {
						if x != 0 {
							t.Fatalf("%s, %s: failed import wrote layer %d", f.name, name, l)
						}
					}
				}
			}
			// The slot is still importable.
			if err := dst.ImportSeq(0, export()); err != nil {
				t.Errorf("%s, %s: import of an intact block after the failed one: %v", f.name, name, err)
			}
		}
	}
}
