package collective

import (
	"math"
	"testing"

	"esti/internal/hardware"
	"esti/internal/mesh"
	"esti/internal/quant"
)

// FuzzInt8WireRoundTrip drives the per-chunk quantize → transmit →
// dequantize round trip with adversarial float32 payloads (arbitrary bit
// patterns, NaN and ±Inf included) through a real 2-chip mesh and pins the
// wire format's safety contract:
//
//   - every value decoded from the wire is finite (encode clamps NaN to 0
//     and ±Inf to the finite clamp bound, so the chunk scale is always
//     finite-positive and the fabric can never become a NaN factory —
//     only a chip's untransmitted own chunk can keep a raw non-finite);
//   - reconstruction error is within the documented bound — half a
//     quantization step of the clamped chunk's max magnitude for the
//     gather, plus one half-step per fold hop for the reduction;
//   - the reduce-scatter's float32 fold of the clamped payloads is finite
//     too.
//
// The pure-kernel analog (QuantizeRowInto) is fuzzed in
// internal/kvcache's FuzzInt8AppendView; this target covers the wire: the
// encode in Payload.send, the mesh transfer, and the decode/fold on the
// receiving chip.
// FuzzStreamRoundTrip pins the streaming collectives' defining contract
// under adversarial payloads: for arbitrary float32 bit patterns (NaN and
// ±Inf included), AllGatherStream and ReduceScatterStream return exactly
// the same bits as their barrier twins, for the fp32, int8 and per-row int8
// wire formats. The streamed forms share the barrier forms' message sizes, tags,
// and quantization points, so any divergence — a reordered fold, a
// re-quantized chunk, a consumer observing a half-decoded buffer — shows up
// as a bit mismatch here.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 255, 254, 253, 252})
	f.Add([]byte{0x7f, 0x80, 0x00, 0x00, 0xff, 0x80, 0x00, 0x00}) // +Inf, -Inf
	f.Add([]byte{0x7f, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}) // NaN, denormal
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		elems := len(raw) / 4
		if elems == 0 || elems > 256 {
			return
		}
		chunks := [2][]float32{make([]float32, elems), make([]float32, elems)}
		for i := 0; i < elems; i++ {
			bits := uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
			v := math.Float32frombits(bits)
			chunks[0][i] = v
			chunks[1][i] = -v / 3
		}
		tr := hardware.Torus{X: 2, Y: 1, Z: 1}
		for _, wire := range []Payload{nil, WireInt8, WireInt8Rows(1)} {
			run := func(streamed bool) (ag, rs [2][]float32) {
				m := mesh.New(tr)
				m.Run(func(c *mesh.Chip) {
					agOp := Op{Chip: c, ID: 1, Wire: wire}
					rsOp := Op{Chip: c, ID: 2, Wire: wire}
					full := make([]float32, 2*elems)
					copy(full, chunks[c.Rank])
					copy(full[elems:], chunks[1-c.Rank])
					var g, r []float32
					if streamed {
						g = AllGatherStream(agOp, hardware.GroupX, chunks[c.Rank], func(int, []float32) {})
						work := make([]float32, 2*elems)
						r = ReduceScatterStream(rsOp, hardware.GroupX, work, func(idx int, dst []float32) {
							copy(dst, full[idx*elems:(idx+1)*elems])
						})
					} else {
						g = AllGather(agOp, hardware.GroupX, chunks[c.Rank])
						r = ReduceScatter(rsOp, hardware.GroupX, full)
					}
					ag[c.Rank] = append([]float32(nil), g...)
					rs[c.Rank] = append([]float32(nil), r...)
				})
				return ag, rs
			}
			bAG, bRS := run(false)
			sAG, sRS := run(true)
			for rank := 0; rank < 2; rank++ {
				for i := range bAG[rank] {
					if math.Float32bits(bAG[rank][i]) != math.Float32bits(sAG[rank][i]) {
						t.Fatalf("wire %T chip %d: streamed gather differs at %d: %g != %g",
							wire, rank, i, sAG[rank][i], bAG[rank][i])
					}
				}
				for i := range bRS[rank] {
					if math.Float32bits(bRS[rank][i]) != math.Float32bits(sRS[rank][i]) {
						t.Fatalf("wire %T chip %d: streamed reduce-scatter differs at %d: %g != %g",
							wire, rank, i, sRS[rank][i], bRS[rank][i])
					}
				}
			}
		}
	})
}

func FuzzInt8WireRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 255, 254, 253, 252})
	f.Add([]byte{0x7f, 0x80, 0x00, 0x00, 0xff, 0x80, 0x00, 0x00}) // +Inf, -Inf
	f.Add([]byte{0x7f, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}) // NaN, denormal
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		elems := len(raw) / 4
		if elems == 0 || elems > 256 {
			return
		}
		// Two chunks (one per chip) of arbitrary float32 bit patterns.
		chunks := [2][]float32{make([]float32, elems), make([]float32, elems)}
		for i := 0; i < elems; i++ {
			bits := uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
			v := math.Float32frombits(bits)
			chunks[0][i] = v
			chunks[1][i] = -v / 3
		}
		// The reference the bound is stated against: the clamped chunk
		// (what the encoder actually quantizes).
		clamped := [2][]float32{make([]float32, elems), make([]float32, elems)}
		maxAbs := [2]float64{}
		for c := 0; c < 2; c++ {
			q := make([]int8, elems)
			scale := quant.QuantizeRowInto(q, chunks[c])
			if math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) || scale <= 0 {
				t.Fatalf("chunk %d: scale %g not finite-positive", c, scale)
			}
			quant.DequantizeRowInto(clamped[c], q, scale)
			// Recover the clamp reference via a second quantize of the
			// reconstruction (idempotent), and its magnitude for bounds.
			for _, v := range chunks[c] {
				a := math.Abs(float64(v))
				if math.IsNaN(a) {
					continue
				}
				if a > math.MaxFloat32/2 {
					a = math.MaxFloat32 / 2
				}
				if a > maxAbs[c] {
					maxAbs[c] = a
				}
			}
		}

		tr := hardware.Torus{X: 2, Y: 1, Z: 1}
		m := mesh.New(tr)
		gathered := make([][]float32, 2)
		reduced := make([][]float32, 2)
		m.Run(func(c *mesh.Chip) {
			g := AllGather(Op{Chip: c, ID: 1, Wire: WireInt8}, hardware.GroupX, chunks[c.Rank])
			gathered[c.Rank] = append([]float32(nil), g...)
			if elems%2 == 0 {
				r := ReduceScatter(Op{Chip: c, ID: 2, Wire: WireInt8}, hardware.GroupX, chunks[c.Rank])
				reduced[c.Rank] = append([]float32(nil), r...)
			}
		})

		for rank := 0; rank < 2; rank++ {
			for src := 0; src < 2; src++ {
				bound := Int8WireError(maxAbs[src]) + 1e-12*maxAbs[src]
				for i := 0; i < elems; i++ {
					if src == rank {
						continue // own chunk is the raw (possibly non-finite) input
					}
					got := float64(gathered[rank][src*elems+i])
					if math.IsNaN(got) || math.IsInf(got, 0) {
						t.Fatalf("chip %d gathered non-finite %g at chunk %d[%d]", rank, got, src, i)
					}
					want := float64(clamped[src][i])
					if e := math.Abs(got - want); e > bound {
						t.Fatalf("chip %d chunk %d[%d]: |%g - %g| = %g > bound %g",
							rank, src, i, got, want, e, bound)
					}
				}
			}
			if elems%2 != 0 {
				continue
			}
			// Reduction on 2 chips: chip r's result is its own raw chunk r
			// plus the dequantized transmission of the peer's chunk r —
			// one hop, one quantization, scale computed over exactly the
			// transmitted half. Only the transmitted side is clamped; a
			// non-finite own contribution stays raw in the local
			// accumulator, so the bound is asserted only when the own half
			// is finite.
			half := elems / 2
			peerHalf := chunks[1-rank][rank*half : (rank+1)*half]
			qHalf := make([]int8, half)
			sHalf := quant.QuantizeRowInto(qHalf, peerHalf)
			if math.IsNaN(float64(sHalf)) || math.IsInf(float64(sHalf), 0) || sHalf <= 0 {
				t.Fatalf("chip %d: transmitted-half scale %g not finite-positive", rank, sHalf)
			}
			clampedHalf := make([]float32, half)
			quant.DequantizeRowInto(clampedHalf, qHalf, sHalf)
			for i := 0; i < half; i++ {
				got := float64(reduced[rank][i])
				own := float64(chunks[rank][rank*half+i])
				if math.IsNaN(own) || math.IsInf(own, 0) {
					continue
				}
				if math.IsNaN(got) || math.IsInf(got, 0) {
					t.Fatalf("chip %d reduced non-finite %g from finite own input", rank, got)
				}
				want := own + float64(clampedHalf[i])
				foldBound := 1e-5*(math.Abs(own)+math.Abs(want)+1) + 1e-6
				if e := math.Abs(got - want); e > foldBound {
					t.Fatalf("chip %d reduced[%d]: |%g - %g| = %g > bound %g",
						rank, i, got, want, e, foldBound)
				}
			}
		}
	})
}
