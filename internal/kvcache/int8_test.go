package kvcache

import (
	"math"
	"math/rand"
	"testing"

	"esti/internal/tensor"
)

// Append→view round trip through the quantized storage: every
// reconstructed element is within half a quantization step of the
// original, where the step is the row's max magnitude over 127.
func TestInt8AppendRoundTrip(t *testing.T) {
	const layers, slots, maxLen, width = 2, 3, 8, 16
	rng := rand.New(rand.NewSource(5))
	c := NewInt8(layers, slots, maxLen, width)

	orig := map[[2]int]*tensor.Mat{} // (slot, layer) -> appended rows
	for s := 0; s < slots; s++ {
		steps := 1 + s
		for l := 0; l < layers; l++ {
			k := tensor.New(steps, width).FillRand(rng, float32(1+s))
			v := tensor.New(steps, width).FillRand(rng, 0.5)
			c.AppendSeq(l, s, k, v, steps)
			orig[[2]int{s, l}] = k
			_ = v
		}
		c.AdvanceSeq(s, steps)
	}
	for s := 0; s < slots; s++ {
		for l := 0; l < layers; l++ {
			k := orig[[2]int{s, l}]
			got := c.RowsK(l, s, c.SeqLen(s))
			if got.Rows != k.Rows {
				t.Fatalf("slot %d layer %d: %d rows back, appended %d", s, l, got.Rows, k.Rows)
			}
			for r := 0; r < k.Rows; r++ {
				var maxAbs float64
				for _, v := range k.Row(r) {
					if a := math.Abs(float64(v)); a > maxAbs {
						maxAbs = a
					}
				}
				halfStep := maxAbs / 127 / 2
				for i, want := range k.Row(r) {
					if err := math.Abs(float64(got.At(r, i) - want)); err > halfStep+1e-7 {
						t.Fatalf("slot %d layer %d row %d col %d: error %g exceeds half step %g",
							s, l, r, i, err, halfStep)
					}
				}
			}
		}
	}
}

// The regression the ISSUE names: Bytes and UsedBytes must report the
// true backing bytes of the storage mode, not a float32 formula. The int8
// cache stores one byte per element plus a 4-byte scale per (position,
// tensor) row — ≤ 0.55× the float32 bytes at any realistic KV width.
func TestInt8BytesAccounting(t *testing.T) {
	const layers, slots, maxLen, width = 4, 2, 8, 16
	fp := New(layers, slots, maxLen, width)
	q8 := NewInt8(layers, slots, maxLen, width)

	wantQ8 := 2 * layers * slots * maxLen * (width + 4)
	if q8.Bytes() != wantQ8 {
		t.Errorf("int8 Bytes = %d, want %d", q8.Bytes(), wantQ8)
	}
	if ratio := float64(q8.Bytes()) / float64(fp.Bytes()); ratio > 0.55 {
		t.Errorf("int8 cache is %.3fx the float32 bytes, want <= 0.55x", ratio)
	}

	k := tensor.New(3, width)
	v := tensor.New(3, width)
	for l := 0; l < layers; l++ {
		q8.AppendSeq(l, 0, k, v, 3)
		fp.AppendSeq(l, 0, k, v, 3)
	}
	q8.AdvanceSeq(0, 3)
	fp.AdvanceSeq(0, 3)
	wantUsed := 2 * layers * 3 * (width + 4)
	if q8.UsedBytes() != wantUsed {
		t.Errorf("int8 UsedBytes = %d, want %d", q8.UsedBytes(), wantUsed)
	}
	if ratio := float64(q8.UsedBytes()) / float64(fp.UsedBytes()); ratio > 0.55 {
		t.Errorf("int8 UsedBytes is %.3fx the float32 bytes, want <= 0.55x", ratio)
	}
}

// An int8 store holds its blocks quantized: budget accounting runs in
// quantized units, the entries attach only to int8 caches, and the
// two-segment views serve the prefix rows.
func TestInt8PrefixStore(t *testing.T) {
	const layers, width, n = 2, 8, 4
	rng := rand.New(rand.NewSource(9))
	k := make([]*tensor.Mat, layers)
	v := make([]*tensor.Mat, layers)
	for l := range k {
		k[l] = tensor.New(n, width).FillRand(rng, 1)
		v[l] = tensor.New(n, width).FillRand(rng, 1)
	}
	tokens := []int{3, 1, 4, 1}

	ps := NewPrefixStoreInt8(layers, width, 0)
	p, err := ps.Insert(tokens, k, v)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Block(0).Int8 {
		t.Fatal("store did not quantize its block")
	}
	wantBytes := 2 * layers * n * (width + 4)
	if p.Bytes() != wantBytes {
		t.Errorf("quantized prefix Bytes = %d, want %d", p.Bytes(), wantBytes)
	}
	if got := ps.Stats().Bytes; got != wantBytes {
		t.Errorf("store Bytes = %d, want %d (quantized units)", got, wantBytes)
	}

	// Mode mismatch is rejected in both directions.
	fpCache := New(layers, 1, 16, width)
	if err := fpCache.AttachPrefix(0, p.Block(0)); err == nil {
		t.Error("float32 cache accepted an int8 prefix")
	}
	fpStore := NewPrefixStore(layers, width, 0)
	pf, err := fpStore.Insert(tokens, k, v)
	if err != nil {
		t.Fatal(err)
	}
	q8 := NewInt8(layers, 1, 16, width)
	if err := q8.AttachPrefix(0, pf.Block(0)); err == nil {
		t.Error("int8 cache accepted a float32 prefix")
	}

	// Attach + append a suffix: the quantized views cover prefix then
	// private rows, and a dequantized read matches the source within the
	// per-row half step.
	if err := q8.AttachPrefix(0, p.Block(0)); err != nil {
		t.Fatal(err)
	}
	suffix := tensor.New(2, width).FillRand(rng, 1)
	for l := 0; l < layers; l++ {
		q8.AppendSeq(l, 0, suffix, suffix, 2)
	}
	q8.AdvanceSeq(0, 2)
	if q8.SeqLen(0) != n+2 {
		t.Fatalf("SeqLen = %d, want %d", q8.SeqLen(0), n+2)
	}
	pre, priv, _, _ := q8.Segments(0, 0, n+2)
	if pre.N != n || priv.N != 2 {
		t.Fatalf("segments %d+%d rows, want %d+%d", pre.N, priv.N, n, 2)
	}
	back := q8.RowsK(0, 0, q8.SeqLen(0))
	for r := 0; r < n; r++ {
		for i := 0; i < width; i++ {
			if err := math.Abs(float64(back.At(r, i) - k[0].At(r, i))); err > 1.0/127+1e-6 {
				t.Fatalf("prefix row %d col %d: error %g", r, i, err)
			}
		}
	}

}

// ResetSeq hygiene in int8 mode: values and scales of the released slot
// read back as zero while neighbors keep their content.
func TestInt8ResetSeqZeroes(t *testing.T) {
	const layers, slots, maxLen, width = 1, 2, 4, 8
	rng := rand.New(rand.NewSource(17))
	c := NewInt8(layers, slots, maxLen, width)
	k := tensor.New(2, width).FillRand(rng, 1)
	for s := 0; s < slots; s++ {
		c.AppendSeq(0, s, k, k, 2)
		c.AdvanceSeq(s, 2)
	}
	keep := c.RowsK(0, 1, c.SeqLen(1))
	c.ResetSeq(0)
	if c.SeqLen(0) != 0 {
		t.Fatalf("SeqLen = %d after reset", c.SeqLen(0))
	}
	_, priv, _, _ := c.Segments(0, 0, maxLen)
	for i, b := range priv.I8 {
		if b != 0 {
			t.Fatalf("released slot value %d nonzero at %d", b, i)
		}
	}
	for i, s := range priv.Scales {
		if s != 0 {
			t.Fatalf("released slot scale %g nonzero at %d", s, i)
		}
	}
	if d := tensor.MaxAbsDiff(keep, c.RowsK(0, 1, c.SeqLen(1))); d != 0 {
		t.Errorf("neighbor slot changed by %g", d)
	}
}
