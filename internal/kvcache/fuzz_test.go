package kvcache

import (
	"testing"

	"esti/internal/tensor"
)

// FuzzSlotIsolation drives an arbitrary sequence of slot operations —
// alloc, per-slot append/advance, release — against a shadow model and
// checks the continuous-batching invariants after every step: a slot's
// committed length and stored K/V always match the shadow, so no operation
// on one slot ever corrupts a neighboring slot, and released storage reads
// back as zero.
func FuzzSlotIsolation(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 0, 4, 8, 1, 9, 2})
	f.Add([]byte{255, 254, 253, 0, 1, 127, 64, 32})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const layers, slots, maxLen, width = 2, 3, 4, 2
		c := New(layers, slots, maxLen, width)
		// shadow[s] holds the expected first-column K value of each
		// committed position in slot s; inUse mirrors the advisory
		// allocation map.
		shadow := make([][]float32, slots)
		inUse := make([]bool, slots)
		next := float32(1)

		check := func() {
			t.Helper()
			for s := 0; s < slots; s++ {
				if got, want := c.SeqLen(s), len(shadow[s]); got != want {
					t.Fatalf("slot %d: SeqLen %d, want %d", s, got, want)
				}
				for l := 0; l < layers; l++ {
					keys := c.Keys(l, s)
					vals := c.Values(l, s)
					for p, want := range shadow[s] {
						if keys.At(p, 0) != want {
							t.Fatalf("slot %d layer %d pos %d: K %g, want %g",
								s, l, p, keys.At(p, 0), want)
						}
						if vals.At(p, 0) != -want {
							t.Fatalf("slot %d layer %d pos %d: V %g, want %g",
								s, l, p, vals.At(p, 0), -want)
						}
					}
					// Positions past the committed length of a released or
					// short slot must be zero once ResetSeq ran; we only
					// assert the committed prefix plus release hygiene
					// below, since lockstep Reset leaves stale bytes by
					// design.
				}
			}
		}

		for _, b := range ops {
			op := int(b) % 3
			s := int(b>>2) % slots
			switch op {
			case 0: // append one position to slot s and commit it
				if len(shadow[s])+1 > maxLen {
					continue // would panic by contract; skip
				}
				k := tensor.New(1, width)
				v := tensor.New(1, width)
				for i := 0; i < width; i++ {
					k.Data[i] = next
					v.Data[i] = -next
				}
				for l := 0; l < layers; l++ {
					c.AppendSeq(l, s, k, v, 1)
				}
				c.AdvanceSeq(s, 1)
				shadow[s] = append(shadow[s], next)
				next++
			case 1: // release slot s (evict); double release must error
				_, err := c.Release(s)
				if inUse[s] {
					if err != nil {
						t.Fatalf("release of allocated slot %d: %v", s, err)
					}
					inUse[s] = false
					shadow[s] = nil
					// Release hygiene: the slot's full capacity reads zero.
					for l := 0; l < layers; l++ {
						for i, x := range c.k[l].Slice(s*maxLen, (s+1)*maxLen).F32 {
							if x != 0 {
								t.Fatalf("slot %d layer %d pos %d: stale %g after release", s, l, i/width, x)
							}
						}
					}
				} else {
					if err == nil {
						t.Fatalf("release of unallocated slot %d silently succeeded", s)
					}
					// The failed release must not have disturbed the slot.
					if got, want := c.SeqLen(s), len(shadow[s]); got != want {
						t.Fatalf("failed release changed slot %d length: %d, want %d", s, got, want)
					}
				}
			case 2: // alloc any free slot (returns it empty)
				if got, ok := c.Alloc(); ok {
					if c.SeqLen(got) != 0 {
						t.Fatalf("alloc returned non-empty slot %d", got)
					}
					inUse[got] = true
					shadow[got] = nil
				}
			}
			check()
		}
	})
}
