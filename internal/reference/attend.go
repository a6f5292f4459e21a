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
// segment scores all g = heads/kvHeads query heads that share it, one
// softmax runs per head over the [g][depth] score scratch, and one pass
// over each V segment accumulates all g output rows. Multihead attention
// is the g = 1 case of the same loop; a float32 and an int8 cache differ
// only in which pair of simd segment kernels score and weigh pick.

// AttnScratch is the reusable scratch AttendSeqInto scores and runs its
// softmax in: g·depth floats for the g query heads of one KV head. One
// scratch serves a whole engine chip (or reference model): every call
// reuses the same backing arrays, growing them only when a call first
// needs more. Reserve pre-sizes it so a capacity-bounded decode loop never
// grows it at all. Not safe for concurrent use.
//
// Both arrays own every cache line they touch (ownLines). The score kernel
// updates a head's running max in memory once per K row, and a mesh's chips
// walk their caches at the same time on different cores: left to the heap,
// the few floats of two chips' per-head state land in one cache line — which
// two depends on where the chips' goroutines first ran — and that line then
// bounces between the cores for the length of every walk.
type AttnScratch struct {
	probs []float32 // [g][depth]: scores, then softmax weights
	small []float32 // one int8 K row as float32 | per head: running max | 1/Σ
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

func (s *AttnScratch) buf(n int) []float32 {
	s.Reserve(n)
	return s.probs[:n]
}

// perHead returns the per-head max and 1/Σ vectors and the int8 row buffer.
func (s *AttnScratch) perHead(g, dh int) (maxes, invSum, widen []float32) {
	if cap(s.small) < dh+2*g {
		s.small = ownLines(dh + 2*g)
	}
	return s.small[dh : dh+g], s.small[dh+g : dh+2*g], s.small[:dh]
}

// score fills out[h*ld+j] with inv·(q_h · k_j) — times k_j's scale when
// quantized — for the first rows rows of s, one of a slot's K segments, at
// columns [kvo, kvo+dh) and every query head in q, raising maxes[h] to head
// h's largest score.
func score(s kvcache.Rows, out []float32, ld int, maxes, q []float32, kvo, rows int, inv float32, widen []float32) {
	switch {
	case rows == 0:
	case s.I8 != nil:
		simd.ScoreRowsF32I8(out, ld, maxes, q, s.I8[kvo:], s.Scales, s.Cols, rows, inv, widen)
	default:
		simd.ScoreRowsF32(out, ld, maxes, q, s.F32[kvo:], s.Cols, rows, inv)
	}
}

// weigh turns w[h*ld+j] from exp(score − max) into row j's softmax weight
// for head h — times invSum[h], and v_j's scale when quantized — and
// accumulates the first rows rows of s, one of a slot's V segments, so
// weighted, into the len(invSum) output rows in out.
func weigh(s kvcache.Rows, out, w []float32, ld int, invSum []float32, kvo, rows int) {
	switch {
	case rows == 0:
	case s.I8 != nil:
		simd.WeighRowsF32I8(out, w, ld, invSum, s.I8[kvo:], s.Scales, s.Cols, rows)
	default:
		simd.WeighRowsF32(out, w, ld, invSum, s.F32[kvo:], s.Cols, rows)
	}
}

// AttendSeqInto computes masked attention of a single sequence's queries
// ([steps, localHeads·dh]) against cache slot `slot` into dst, which must
// already be shaped [steps, q.Cols]. Semantics are identical to AttendSeq
// (see its doc comment for the head mapping and depth contract); this is
// the fused, allocation-free form the engine's hot path calls. It panics
// on a head geometry the cache cannot serve: widths that are not whole
// heads, or query heads that do not divide evenly over the KV heads.
func AttendSeqInto(dst *tensor.Mat, dh int, q *tensor.Mat, cache *kvcache.Cache, layer, slot, steps int, scr *AttnScratch) *tensor.Mat {
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
	past := cache.SeqLen(slot)
	total := past + steps
	inv := float32(1 / math.Sqrt(float64(dh)))

	preK, privK, preV, privV := cache.Segments(layer, slot, total)
	pl := preK.N
	maxes, invSum, widen := scr.perHead(g, dh)

	for kv := 0; kv < kvHeads; kv++ {
		kvo, qo := kv*dh, kv*g*dh
		for t := 0; t < steps; t++ {
			limit := past + t + 1 // causal: query past+t sees keys 0..past+t
			npre := min(limit, pl)
			qg := q.Row(t)[qo : qo+g*dh]
			probs := scr.buf(g * limit)
			for h := range maxes {
				maxes[h] = float32(math.Inf(-1))
			}
			score(privK, probs[npre:], limit, maxes, qg, kvo, limit-npre, inv, widen)
			score(preK, probs, limit, maxes, qg, kvo, npre, inv, widen)
			softmaxHeads(probs, limit, maxes, invSum)
			og := dst.Row(t)[qo : qo+g*dh]
			clear(og)
			weigh(preV, og, probs, limit, invSum, kvo, npre)
			weigh(privV, og, probs[npre:], limit, invSum, kvo, limit-npre)
		}
	}
	return dst
}

// softmaxHeads exponentiates each head's max-subtracted scores in place
// (probs is [len(maxes)][ld]) and leaves the reciprocal of each head's sum
// in invSum — the 1/Σ factor the weigh passes fold into their per-row
// weights. Each head's sum runs in index order; four heads' sums advance
// together because one float32 add chain alone waits on its own latency.
func softmaxHeads(probs []float32, ld int, maxes, invSum []float32) {
	for h, m := range maxes {
		row := probs[h*ld : (h+1)*ld]
		for j := range row {
			row[j] -= m
		}
	}
	simd.Exp32Rows(probs)
	h := 0
	for ; h+4 <= len(invSum); h += 4 {
		r0, r1 := probs[h*ld:(h+1)*ld], probs[(h+1)*ld:(h+2)*ld]
		r2, r3 := probs[(h+2)*ld:(h+3)*ld], probs[(h+3)*ld:(h+4)*ld]
		var s0, s1, s2, s3 float32
		for j := range r0 {
			s0 += r0[j]
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		invSum[h], invSum[h+1], invSum[h+2], invSum[h+3] = 1/s0, 1/s1, 1/s2, 1/s3
	}
	for ; h < len(invSum); h++ {
		var sum float32
		for _, p := range probs[h*ld : (h+1)*ld] {
			sum += p
		}
		invSum[h] = 1 / sum
	}
}
