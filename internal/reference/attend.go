package reference

import (
	"fmt"
	"math"

	"esti/internal/kvcache"
	"esti/internal/simd"
	"esti/internal/tensor"
)

// Fused attention kernel. The original AttendSeq materialized per-head
// temporaries — a query copy, K/V column slices of the whole cache depth,
// a scores matrix, an output block — and composed tensor.MatMulT, Scale,
// SoftmaxRows and MatMul over them; at decode depth d that copied O(d)
// rows per head per layer and dominated the profile. AttendSeqInto fuses
// scale, causal mask, softmax and the weighted V sum, reads K and V
// directly from the kvcache's zero-copy segments (Cache.Segments: shared
// prefix + private suffix), and writes straight into the caller's output block.
// Steady state it allocates nothing.
//
// The walk is organised around the KV row, not the query head — the
// paper's Section 3.3 point that under multiquery attention the K/V
// tensors are shared by all heads, so they are loaded once per token, not
// once per head. For each KV head and query row: one pass over each K
// segment scores all g = heads/kvHeads query heads that share it into the
// row-major [depth][g] score scratch, one softmax runs over that scratch
// (each head's max and sum over its column), and one pass over each V
// segment accumulates all g output rows. When g is a multiple of 8 the
// query row's heads are first laid out in lanes (simd.HeadsInLanes) and
// the score kernel scores them eight to a vector, every score with the
// bits of its one-head dot. Multihead attention is the g = 1 case of the
// same loop, and a float32 and an int8 cache run the same two simd
// segment kernels, each over its own operand.

// AttnScratch is the reusable scratch AttendSeqInto scores and runs its
// softmax in: depth·g floats for the g query heads of one KV head, plus
// the per-head state and the query row with its heads in lanes. One
// scratch serves one walker: a reference model, or one pool part of an
// engine chip's split walk (the chip keeps one per part, so the parts walk
// their ranges of the pass's query rows side by side). Every call reuses the same backing arrays,
// growing them only when a call first needs more. Reserve and ReserveHeads
// pre-size it so a capacity-bounded decode loop never grows it at all. Not
// safe for concurrent use.
//
// Both arrays own every cache line they touch (ownLines). The one-head
// score path updates a head's running max in memory once per K row (the
// eight-head path once per segment), and a mesh's chips, like a chip's
// pool parts, walk at the same time on different cores: left to the heap,
// the few floats of two walkers' per-head state land in one cache line —
// which two depends on where their goroutines first ran — and that line
// then bounces between the cores for the length of every walk.
type AttnScratch struct {
	probs []float32 // [depth][g]: scores, then softmax weights
	small []float32 // g·dh queries in lanes | one int8 K row as float32 | per head: running max | 1/Σ
}

// ownLines returns n floats that start on a cache line and share none of
// their lines with another allocation.
func ownLines(n int) []float32 {
	const line = 16 // floats
	return tensor.New(1, (n+line-1)&^(line-1)).Data[:n]
}

// Reserve grows the scratch to hold n scores: g·maxLen for attention depths
// up to maxLen with g query heads per KV head.
func (s *AttnScratch) Reserve(n int) {
	if cap(s.probs) < n {
		s.probs = ownLines(n)
	}
}

// ReserveHeads grows the per-head state to serve g query heads of dim dh
// per KV head.
func (s *AttnScratch) ReserveHeads(g, dh int) {
	if n := g*dh + dh + 2*g; cap(s.small) < n {
		s.small = ownLines(n)
	}
}

func (s *AttnScratch) buf(n int) []float32 {
	s.Reserve(n)
	return s.probs[:n]
}

// perHead returns the per-head max and 1/Σ vectors, the int8 row buffer
// and room for the g·dh queries in lanes.
func (s *AttnScratch) perHead(g, dh int) (maxes, invSum, widen, lanes []float32) {
	s.ReserveHeads(g, dh)
	n := g * dh
	return s.small[n+dh : n+dh+g], s.small[n+dh+g : n+dh+2*g], s.small[n : n+dh], s.small[:n]
}

// score fills out[j*g+h] with inv·(q_h · k_j) — times k_j's scale when
// quantized — for the first rows rows of s, one of a slot's K segments, at
// columns [kvo, kvo+dh) and every query head in q (in lanes in qt, or qt
// nil), raising maxes[h] to head h's largest score.
func score(s kvcache.Rows, out, maxes, q, qt []float32, kvo, rows int, inv float32, widen []float32) {
	if rows > 0 {
		simd.ScoreRows(out, maxes, q, qt, operand(s, kvo), rows, inv, widen)
	}
}

// weigh turns w[j*g+h] from exp(score − max) into row j's softmax weight
// for head h — times invSum[h], and v_j's scale when quantized — and
// accumulates the first rows rows of s, one of a slot's V segments, so
// weighted, into the g = len(invSum) output rows in out.
func weigh(s kvcache.Rows, out, w, invSum []float32, kvo, rows int) {
	if rows > 0 {
		simd.WeighRows(out, w, invSum, operand(s, kvo), rows)
	}
}

// operand is s from column kvo on, as the segment kernels take it.
func operand(s kvcache.Rows, kvo int) simd.Rows {
	return simd.Rows{F32: s.F32, I8: s.I8, Scales: s.Scales, Stride: s.Cols}.From(kvo)
}

// AttendSeqInto computes masked attention of a single sequence's queries
// ([steps, localHeads·dh]) against cache slot `slot` into dst, which must
// already be shaped [steps, q.Cols]. Semantics are identical to AttendSeq
// (see its doc comment for the head mapping and depth contract); this is
// the fused, allocation-free form the engine's hot path calls. It is
// AttendRowsInto from the chunk's first row.
func AttendSeqInto(dst *tensor.Mat, dh int, q *tensor.Mat, cache *kvcache.Cache, layer, slot, steps int, scr *AttnScratch) *tensor.Mat {
	return AttendRowsInto(dst, dh, q, cache, layer, slot, 0, steps, scr)
}

// AttendRowsInto is AttendSeqInto over rows [first, first+steps) of a chunk
// appended to slot `slot` past its committed SeqLen: q and dst hold just
// those rows, and row t attends SeqLen + first + t + 1 positions, as it
// would in the whole chunk's walk. Each row's walk reads only the cache and
// its own query, so cutting a chunk into row ranges changes no bit. It
// panics on a head geometry the cache cannot serve: widths that are not
// whole heads, or query heads that do not divide evenly over the KV heads.
func AttendRowsInto(dst *tensor.Mat, dh int, q *tensor.Mat, cache *kvcache.Cache, layer, slot, first, steps int, scr *AttnScratch) *tensor.Mat {
	if dh <= 0 || q.Cols%dh != 0 || cache.KVWidth%dh != 0 {
		panic(fmt.Sprintf("reference: query width %d and KV width %d must be whole heads of dim %d", q.Cols, cache.KVWidth, dh))
	}
	heads, kvHeads := q.Cols/dh, cache.KVWidth/dh
	if heads == 0 || kvHeads == 0 || heads%kvHeads != 0 {
		panic(fmt.Sprintf("reference: %d query heads do not divide over %d KV heads (query width %d, KV width %d, head dim %d)",
			heads, kvHeads, q.Cols, cache.KVWidth, dh))
	}
	if dst.Rows != steps || dst.Cols != q.Cols {
		panic(fmt.Sprintf("reference: attention output is [%d, %d], want [%d, %d]", dst.Rows, dst.Cols, steps, q.Cols))
	}
	g := heads / kvHeads
	past := cache.SeqLen(slot) + first
	total := past + steps
	inv := float32(1 / math.Sqrt(float64(dh)))

	preK, privK, preV, privV := cache.Segments(layer, slot, total)
	pl := preK.N
	maxes, invSum, widen, lanes := scr.perHead(g, dh)

	for kv := 0; kv < kvHeads; kv++ {
		kvo, qo := kv*dh, kv*g*dh
		for t := 0; t < steps; t++ {
			limit := past + t + 1 // causal: query past+t sees keys 0..past+t
			npre := min(limit, pl)
			qg := q.Row(t)[qo : qo+g*dh]
			qt := simd.HeadsInLanes(lanes, qg, g)
			probs := scr.buf(g * limit)
			for h := range maxes {
				maxes[h] = float32(math.Inf(-1))
			}
			score(privK, probs[npre*g:], maxes, qg, qt, kvo, limit-npre, inv, widen)
			score(preK, probs, maxes, qg, qt, kvo, npre, inv, widen)
			softmaxHeads(probs, maxes, invSum)
			og := dst.Row(t)[qo : qo+g*dh]
			clear(og)
			weigh(preV, og, probs, invSum, kvo, npre)
			weigh(privV, og, probs[npre*g:], invSum, kvo, limit-npre)
		}
	}
	return dst
}

// softmaxHeads exponentiates each head's max-subtracted scores in place
// (probs is [depth][g], g = len(maxes)) and leaves the reciprocal of each
// head's sum in invSum — the 1/Σ factor the weigh passes fold into their
// per-row weights. Each head's sum runs in index order. Both passes take
// the heads eight at a time, row by row, with the eight maxes and the
// eight sums in registers (one float32 add chain alone waits on its own
// latency); the heads past the last eight go one at a time.
func softmaxHeads(probs, maxes, invSum []float32) {
	g := len(maxes)
	h := 0
	for ; h+8 <= g; h += 8 {
		m0, m1, m2, m3 := maxes[h], maxes[h+1], maxes[h+2], maxes[h+3]
		m4, m5, m6, m7 := maxes[h+4], maxes[h+5], maxes[h+6], maxes[h+7]
		for j := h; j < len(probs); j += g {
			r := probs[j : j+8]
			r[0] -= m0
			r[1] -= m1
			r[2] -= m2
			r[3] -= m3
			r[4] -= m4
			r[5] -= m5
			r[6] -= m6
			r[7] -= m7
		}
	}
	for ; h < g; h++ {
		m := maxes[h]
		for j := h; j < len(probs); j += g {
			probs[j] -= m
		}
	}
	simd.Exp32Rows(probs)
	h = 0
	for ; h+8 <= g; h += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for j := h; j < len(probs); j += g {
			r := probs[j : j+8]
			s0 += r[0]
			s1 += r[1]
			s2 += r[2]
			s3 += r[3]
			s4 += r[4]
			s5 += r[5]
			s6 += r[6]
			s7 += r[7]
		}
		invSum[h], invSum[h+1], invSum[h+2], invSum[h+3] = 1/s0, 1/s1, 1/s2, 1/s3
		invSum[h+4], invSum[h+5], invSum[h+6], invSum[h+7] = 1/s4, 1/s5, 1/s6, 1/s7
	}
	for ; h < g; h++ {
		var sum float32
		for j := h; j < len(probs); j += g {
			sum += probs[j]
		}
		invSum[h] = 1 / sum
	}
}
