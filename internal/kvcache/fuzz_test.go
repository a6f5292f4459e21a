package kvcache

import (
	"testing"

	"esti/internal/tensor"
)

// FuzzSlotIsolation drives an arbitrary sequence of per-slot lifecycle
// operations — append/advance, ResetSeq, capture into a prefix store,
// attach a captured prefix, export a slot and import the block — against a
// shadow model and checks after every step that each slot's committed
// length and stored K/V match the shadow. So no operation on one slot ever
// corrupts a neighbor or a stored prefix, a reset slot's storage reads back
// as zero, and a block leaves and enters a slot exactly.
func FuzzSlotIsolation(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 0, 4, 8, 1, 9, 2})
	f.Add([]byte{255, 254, 253, 0, 1, 127, 64, 32})
	f.Add([]byte{0, 0, 4, 11, 10, 2, 17, 19, 27, 25, 3, 0, 4, 19, 17})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const layers, slots, maxLen, width = 2, 3, 6, 2
		c := New(layers, slots, maxLen, width)
		store := NewPrefixStore(layers, width, 0)
		// shadow[s] holds the first-column K value of each committed
		// position in slot s (V holds its negation). Values are unique, so
		// a run of them doubles as the token key its rows were captured
		// under.
		shadow := make([][]float32, slots)
		type saved struct {
			p    *Prefix
			rows []float32
		}
		var entries []saved
		var block *KVBlock
		var blockRows []float32
		next := float32(1)

		check := func() {
			t.Helper()
			for s := 0; s < slots; s++ {
				n := len(shadow[s])
				if got := c.SeqLen(s); got != n {
					t.Fatalf("slot %d: SeqLen %d, want %d", s, got, n)
				}
				for l := 0; l < layers; l++ {
					keys, vals := c.RowsK(l, s, n), c.RowsV(l, s, n)
					for p, want := range shadow[s] {
						if keys.At(p, 0) != want || vals.At(p, 0) != -want {
							t.Fatalf("slot %d layer %d pos %d: K %g V %g, want %g, %g",
								s, l, p, keys.At(p, 0), vals.At(p, 0), want, -want)
						}
					}
				}
			}
		}

		for i, b := range ops {
			s := int(b>>3) % slots
			arg := 0 // a second draw, from the next op byte
			if i+1 < len(ops) {
				arg = int(ops[i+1])
			}
			switch b % 6 {
			case 0: // append one position to slot s and commit it
				if len(shadow[s])+1 > maxLen {
					continue // would panic by contract; skip
				}
				k := tensor.New(1, width)
				v := tensor.New(1, width)
				for j := 0; j < width; j++ {
					k.Data[j] = next
					v.Data[j] = -next
				}
				for l := 0; l < layers; l++ {
					c.AppendSeq(l, s, k, v, 1)
				}
				c.AdvanceSeq(s, 1)
				shadow[s] = append(shadow[s], next)
				next++
			case 1: // reset slot s: empty, and its whole capacity zeroed
				c.ResetSeq(s)
				shadow[s] = nil
				for l := 0; l < layers; l++ {
					for i, x := range c.k[l].Slice(s*maxLen, (s+1)*maxLen).F32 {
						if x != 0 {
							t.Fatalf("slot %d layer %d pos %d: stale %g after reset", s, l, i/width, x)
						}
					}
				}
			case 2: // capture the first n positions of slot s
				if len(shadow[s]) == 0 {
					continue
				}
				n := 1 + arg%len(shadow[s])
				tokens := make([]int, n)
				for i, x := range shadow[s][:n] {
					tokens[i] = int(x)
				}
				p, err := store.Capture(tokens, []*Cache{c}, s)
				if err != nil || p.Len() != n {
					t.Fatalf("capture of %d positions from slot %d: %v", n, s, err)
				}
				entries = append(entries, saved{p, append([]float32(nil), shadow[s][:n]...)})
			case 3: // attach a captured prefix to slot s
				if len(entries) == 0 {
					continue
				}
				e := entries[arg%len(entries)]
				err := c.AttachPrefix(s, e.p.Block(0))
				if len(shadow[s]) > 0 {
					if err == nil {
						t.Fatalf("attach over slot %d holding %d positions succeeded", s, len(shadow[s]))
					}
					break
				}
				if err != nil {
					t.Fatalf("attach to empty slot %d: %v", s, err)
				}
				shadow[s] = append([]float32(nil), e.rows...)
			case 4: // export slot s
				blk, err := c.ExportSeq(s)
				if len(shadow[s]) == 0 {
					if err == nil {
						t.Fatalf("export of empty slot %d succeeded", s)
					}
					break
				}
				if err != nil || blk.Len != len(shadow[s]) {
					t.Fatalf("export of slot %d holding %d: %v", s, len(shadow[s]), err)
				}
				block, blockRows = blk, append([]float32(nil), shadow[s]...)
			case 5: // import the last exported block into slot s
				if block == nil {
					continue
				}
				err := c.ImportSeq(s, block)
				if len(shadow[s]) > 0 {
					if err == nil {
						t.Fatalf("import over slot %d holding %d positions succeeded", s, len(shadow[s]))
					}
					break
				}
				if err != nil {
					t.Fatalf("import into empty slot %d: %v", s, err)
				}
				shadow[s] = append([]float32(nil), blockRows...)
			}
			check()
		}
	})
}
