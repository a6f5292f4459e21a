package kvcache

import (
	"math"
	"testing"

	"esti/internal/tensor"
)

// FuzzInt8AppendView hammers the quantize-at-append path with adversarial
// K/V values — including NaN and ±Inf bit patterns — and checks the
// documented clamping contract after every append: the round trip never
// panics, every stored per-row scale is finite and positive, and every
// dequantized read-back is finite (NaN quantizes as 0, ±Inf as the
// largest finite float32), so one poisoned projection row can never turn
// the cache into a NaN factory.
func FuzzInt8AppendView(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	// Exact float32 +Inf, -Inf and a NaN, little-endian.
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff, 1, 0, 0xc0, 0x7f})
	f.Add([]byte{0xff, 0xff, 0x7f, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const layers, slots, maxLen, width = 2, 2, 4, 3
		c := NewInt8(layers, slots, maxLen, width)

		// Decode raw bytes as float32s, bit patterns included.
		vals := make([]float32, 0, len(raw)/4)
		for i := 0; i+4 <= len(raw); i += 4 {
			bits := uint32(raw[i]) | uint32(raw[i+1])<<8 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<24
			vals = append(vals, math.Float32frombits(bits))
		}
		if len(vals) == 0 {
			return
		}

		k := tensor.New(1, width)
		v := tensor.New(1, width)
		next := 0
		take := func() float32 {
			x := vals[next%len(vals)]
			next++
			return x
		}
		for s := 0; s < slots; s++ {
			for pos := 0; pos < maxLen; pos++ {
				for i := 0; i < width; i++ {
					k.Data[i] = take()
					v.Data[i] = take()
				}
				for l := 0; l < layers; l++ {
					c.AppendSeq(l, s, k, v, 1)
				}
				c.AdvanceSeq(s, 1)
			}
		}

		for s := 0; s < slots; s++ {
			for l := 0; l < layers; l++ {
				_, privK, _, privV := c.Segments(l, s, c.SeqLen(s))
				for _, sc := range privK.Scales {
					if !finitePositive(sc) {
						t.Fatalf("slot %d layer %d: K scale %g not finite-positive", s, l, sc)
					}
				}
				for _, sc := range privV.Scales {
					if !finitePositive(sc) {
						t.Fatalf("slot %d layer %d: V scale %g not finite-positive", s, l, sc)
					}
				}
				back := c.Keys(l, s)
				for i, x := range back.Data {
					if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
						t.Fatalf("slot %d layer %d: dequantized value %g at %d not finite", s, l, x, i)
					}
				}
			}
		}
	})
}

func finitePositive(s float32) bool {
	return s > 0 && !math.IsInf(float64(s), 0) && !math.IsNaN(float64(s))
}
