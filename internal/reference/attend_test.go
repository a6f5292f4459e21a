package reference

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"esti/internal/kvcache"
	"esti/internal/simd"
	"esti/internal/tensor"
)

// attendSeqNaive is the original composed-primitive attention — per-head
// query copy, K/V column slices, scores matmul, mask, softmax, weighted
// sum — retained here as the oracle the fused kernel is property-tested
// against.
func attendSeqNaive(dh int, q *tensor.Mat, cache *kvcache.Cache, layer, slot, steps int) *tensor.Mat {
	heads := q.Cols / dh
	kvHeads := cache.KVWidth / dh
	headsPerKV := heads / kvHeads
	past := cache.SeqLen(slot)
	total := past + steps
	inv := float32(1 / math.Sqrt(float64(dh)))

	kRows := cache.RowsK(layer, slot, total)
	vRows := cache.RowsV(layer, slot, total)
	out := tensor.New(steps, q.Cols)
	for hIdx := 0; hIdx < heads; hIdx++ {
		kvIdx := hIdx / headsPerKV
		qh := tensor.New(steps, dh)
		for t := 0; t < steps; t++ {
			copy(qh.Row(t), q.Row(t)[hIdx*dh:(hIdx+1)*dh])
		}
		kh := tensor.SliceCols(kRows, kvIdx*dh, (kvIdx+1)*dh)
		vh := tensor.SliceCols(vRows, kvIdx*dh, (kvIdx+1)*dh)
		scores := tensor.Scale(tensor.MatMulT(qh, kh), inv)
		for t := 0; t < steps; t++ {
			row := scores.Row(t)
			for j := past + t + 1; j < total; j++ {
				row[j] = float32(math.Inf(-1))
			}
		}
		tensor.SoftmaxRows(scores)
		oh := tensor.MatMul(scores, vh)
		for t := 0; t < steps; t++ {
			copy(out.Row(t)[hIdx*dh:(hIdx+1)*dh], oh.Row(t))
		}
	}
	return out
}

// The fused kernel must match the composed-primitive oracle across MHA,
// GQA-style head sharing, MQA, multiple steps, odd depths that are not
// multiples of the four-row blocking, and prefix-aliased slots.
func TestAttendSeqIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cases := []struct {
		name               string
		dh, heads, kvHeads int
		past, steps        int
		prefixLen          int
	}{
		{"mha-decode", 8, 4, 4, 13, 1, 0},
		{"mha-prefill", 8, 4, 4, 0, 6, 0},
		{"mqa-deep", 8, 8, 1, 29, 1, 0},
		{"gqa-steps", 4, 6, 2, 7, 3, 0},
		{"odd-dh", 5, 3, 3, 10, 2, 0},
		{"prefix-aliased", 8, 4, 1, 9, 2, 5},
		{"prefix-boundary", 8, 2, 2, 4, 1, 4},
		{"depth-not-multiple-of-4", 8, 4, 1, 6, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			width := tc.kvHeads * tc.dh
			cache := kvcache.New(1, 1, 64, width)
			if tc.prefixLen > 0 {
				store := kvcache.NewPrefixStore(1, width, 0)
				pk := []*tensor.Mat{tensor.New(tc.prefixLen, width).FillRand(rng, 1)}
				pv := []*tensor.Mat{tensor.New(tc.prefixLen, width).FillRand(rng, 1)}
				toks := make([]int, tc.prefixLen)
				for i := range toks {
					toks[i] = i + 1
				}
				p, err := store.Insert(toks, pk, pv)
				if err != nil {
					t.Fatal(err)
				}
				if err := cache.AttachPrefix(0, p.Block(0)); err != nil {
					t.Fatal(err)
				}
			}
			// Commit `past` positions (prefix contributes tc.prefixLen of
			// them), then append the new steps uncommitted, as the engine
			// does mid-pass.
			privPast := tc.past - tc.prefixLen
			if privPast > 0 {
				k := tensor.New(privPast, width).FillRand(rng, 1)
				v := tensor.New(privPast, width).FillRand(rng, 1)
				cache.AppendSeq(0, 0, k, v, privPast)
				cache.AdvanceSeq(0, privPast)
			}
			kNew := tensor.New(tc.steps, width).FillRand(rng, 1)
			vNew := tensor.New(tc.steps, width).FillRand(rng, 1)
			cache.AppendSeq(0, 0, kNew, vNew, tc.steps)

			q := tensor.New(tc.steps, tc.heads*tc.dh).FillRand(rng, 1)
			want := attendSeqNaive(tc.dh, q, cache, 0, 0, tc.steps)
			got := AttendSeq(tc.dh, q, cache, 0, 0, tc.steps)
			if d := tensor.MaxAbsDiff(got, want); d > 1e-5 {
				t.Errorf("fused attention differs from naive by %g", d)
			}

			// The Into form with a shared scratch must agree exactly with
			// the wrapper across repeated calls (scratch reuse is benign).
			var scr AttnScratch
			dst := tensor.New(tc.steps, tc.heads*tc.dh)
			for i := 0; i < 3; i++ {
				AttendSeqInto(dst, tc.dh, q, cache, 0, 0, tc.steps, &scr)
				if d := tensor.MaxAbsDiff(dst, got); d != 0 {
					t.Fatalf("run %d: AttendSeqInto differs from AttendSeq by %g", i, d)
				}
			}
		})
	}
}

// Steady-state fused attention must not allocate (the engine asserts the
// whole decode path; this isolates the kernel).
func TestAttendSeqIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	cache := kvcache.New(1, 1, 128, 8)
	k := tensor.New(20, 8).FillRand(rng, 1)
	v := tensor.New(20, 8).FillRand(rng, 1)
	cache.AppendSeq(0, 0, k, v, 20)
	cache.AdvanceSeq(0, 20)
	q := tensor.New(1, 16).FillRand(rng, 1)
	dst := tensor.New(1, 16)
	var scr AttnScratch
	scr.Reserve(128)
	AttendSeqInto(dst, 8, q, cache, 0, 0, 1, &scr)
	if avg := testing.AllocsPerRun(100, func() {
		AttendSeqInto(dst, 8, q, cache, 0, 0, 1, &scr)
	}); avg != 0 {
		t.Errorf("AttendSeqInto allocates %v times per call", avg)
	}
}

// attendSeqPerHead is the walk AttendSeqInto ran before it was rebuilt
// around the KV row: one pass over the whole cache per query head, one
// row-at-a-time simd kernel call per row (per four rows when weighing).
// Retained as the bit-exactness oracle: the segment-at-a-time walk must
// reproduce every output element of this one.
func attendSeqPerHead(dh int, q *tensor.Mat, cache *kvcache.Cache, layer, slot, steps int) *tensor.Mat {
	heads := q.Cols / dh
	headsPerKV := heads / (cache.KVWidth / dh)
	past := cache.SeqLen(slot)
	total := past + steps
	inv := float32(1 / math.Sqrt(float64(dh)))
	dst := tensor.New(steps, q.Cols)
	probs := make([]float32, total)

	preK, privK, preV, privV := cache.Segments(layer, slot, total)
	pl := preK.N
	score := func(out []float32, k kvcache.Rows, kvo int, qrow []float32, maxV float32) float32 {
		for j := range out {
			o := j*k.Cols + kvo
			var s float32
			if k.I8 != nil {
				s = inv * k.Scales[j] * simd.DotF32I8(qrow, k.I8[o:o+dh])
			} else {
				s = inv * simd.DotF32(qrow, k.F32[o:o+dh])
			}
			out[j] = s
			if s > maxV {
				maxV = s
			}
		}
		return maxV
	}
	weigh := func(orow, p []float32, v kvcache.Rows, kvo int, scale float32) {
		w := func(j int) float32 {
			if v.I8 != nil {
				return p[j] * scale * v.Scales[j]
			}
			return p[j] * scale
		}
		j := 0
		for ; j+4 <= len(p); j += 4 {
			o, c := j*v.Cols+kvo, v.Cols
			if v.I8 != nil {
				simd.MulAdd4F32I8(orow, v.I8[o:o+dh], v.I8[o+c:o+c+dh], v.I8[o+2*c:o+2*c+dh], v.I8[o+3*c:o+3*c+dh],
					w(j), w(j+1), w(j+2), w(j+3))
			} else {
				simd.MulAdd4F32(orow, v.F32[o:o+dh], v.F32[o+c:o+c+dh], v.F32[o+2*c:o+2*c+dh], v.F32[o+3*c:o+3*c+dh],
					w(j), w(j+1), w(j+2), w(j+3))
			}
		}
		for ; j < len(p); j++ {
			o := j*v.Cols + kvo
			if v.I8 != nil {
				simd.AxpyF32I8(orow, w(j), v.I8[o:o+dh])
			} else {
				simd.ScalarAxpy(orow, w(j), v.F32[o:o+dh])
			}
		}
	}

	for h := 0; h < heads; h++ {
		qo := h * dh
		kvo := (h / headsPerKV) * dh
		for t := 0; t < steps; t++ {
			qrow := q.Row(t)[qo : qo+dh]
			limit := past + t + 1
			npre := min(limit, pl)
			maxV := score(probs[:npre], preK, kvo, qrow,
				score(probs[npre:limit], privK, kvo, qrow, float32(math.Inf(-1))))
			for j := range probs[:limit] {
				probs[j] -= maxV
			}
			simd.Exp32Rows(probs[:limit])
			var sum float32
			for _, p := range probs[:limit] {
				sum += p
			}
			orow := dst.Row(t)[qo : qo+dh]
			weigh(orow, probs[:npre], preV, kvo, 1/sum)
			weigh(orow, probs[npre:limit], privV, kvo, 1/sum)
		}
	}
	return dst
}

// The segment-at-a-time walk must reproduce the per-head oracle bit for
// bit over generated geometry: head dims on both sides of the 8- and
// 16-element kernel blocks, multiquery / grouped / multihead sharing,
// decode, short and chunk-sized query blocks, one and two whole 8-head
// vectors per KV head (the lane-parallel score path), depths that are not
// multiples of the four-row grouping, the shared-prefix split at nowhere,
// mid-depth and the boundary, float32 and int8 caches. (Both dispatch paths
// run it: the default suite on AVX2, the ESTI_NOSIMD=1 suite on the twins.)
func TestAttendSeqIntoBitIdenticalToPerHeadWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, heads := range []int{4, 16} {
		for _, dh := range []int{5, 8, 16, 32, 40, 64} {
			for _, kvHeads := range []int{1, 2, heads} {
				for _, steps := range []int{1, 3, 16} {
					for _, int8KV := range []bool{false, true} {
						past := []int{1, 6, 21, 37}[rng.Intn(4)] + rng.Intn(2)*16
						for _, prefix := range []int{0, past / 2, past} {
							name := fmt.Sprintf("heads%d/dh%d/kv%d/steps%d/int8=%v/past%d/prefix%d", heads, dh, kvHeads, steps, int8KV, past, prefix)
							width := kvHeads * dh
							cache, store := kvcache.New(1, 1, past+steps, width), kvcache.NewPrefixStore(1, width, 0)
							if int8KV {
								cache, store = kvcache.NewInt8(1, 1, past+steps, width), kvcache.NewPrefixStoreInt8(1, width, 0)
							}
							rows := func(n int) *tensor.Mat { return tensor.New(n, width).FillRand(rng, 1) }
							if prefix > 0 {
								toks := make([]int, prefix)
								p, err := store.Insert(toks, []*tensor.Mat{rows(prefix)}, []*tensor.Mat{rows(prefix)})
								if err != nil {
									t.Fatal(name, err)
								}
								if err := cache.AttachPrefix(0, p.Block(0)); err != nil {
									t.Fatal(name, err)
								}
							}
							if n := past - prefix; n > 0 {
								cache.AppendSeq(0, 0, rows(n), rows(n), n)
								cache.AdvanceSeq(0, n)
							}
							cache.AppendSeq(0, 0, rows(steps), rows(steps), steps)

							q := tensor.New(steps, heads*dh).FillRand(rng, 1)
							want := attendSeqPerHead(dh, q, cache, 0, 0, steps)
							var scr AttnScratch
							got := AttendSeqInto(tensor.New(steps, q.Cols), dh, q, cache, 0, 0, steps, &scr)
							for i := range got.Data {
								if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
									t.Fatalf("%s: element %d = %g (%#08x), per-head walk %g (%#08x)", name, i,
										got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
								}
							}
						}
					}
				}
			}
		}
	}
}

// A head geometry the cache cannot serve is reported with its sizes, not
// as an integer divide by zero or a silent read past the KV width.
func TestAttendSeqIntoRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name                    string
		dh, qCols, kvWidth      int
		dstRows, dstCols, steps int
		want                    string
	}{
		{"query not whole heads", 8, 20, 8, 1, 20, 1, "query width 20"},
		{"KV not whole heads", 8, 16, 12, 1, 16, 1, "KV width 12"},
		{"more KV heads than query heads", 8, 8, 16, 1, 8, 1, "1 query heads do not divide over 2 KV heads"},
		{"heads not a multiple of KV heads", 4, 12, 8, 1, 12, 1, "3 query heads do not divide over 2 KV heads"},
		{"dst too narrow", 8, 16, 8, 1, 8, 1, "output is [1, 8], want [1, 16]"},
		{"dst wrong rows", 8, 16, 8, 2, 16, 1, "output is [2, 16], want [1, 16]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache := kvcache.New(1, 1, 8, tc.kvWidth)
			kv := tensor.New(tc.steps, tc.kvWidth)
			cache.AppendSeq(0, 0, kv, kv, tc.steps)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			var scr AttnScratch
			AttendSeqInto(tensor.New(tc.dstRows, tc.dstCols), tc.dh, tensor.New(tc.steps, tc.qCols), cache, 0, 0, tc.steps, &scr)
		})
	}
}

// The scratch's arrays must start on a cache line and reach the end of
// their last one inside their own allocation, whatever the sizes: the score
// kernel writes the per-head maxima once per K row, and a line shared with
// another chip's scratch would bounce between cores for the whole walk.
func TestAttnScratchOwnsItsCacheLines(t *testing.T) {
	const line = 64
	owns := func(name string, buf []float32) {
		t.Helper()
		if addr := uintptr(unsafe.Pointer(unsafe.SliceData(buf))); addr%line != 0 {
			t.Errorf("%s starts %d bytes into a cache line", name, addr%line)
		}
		if whole := (4*len(buf) + line - 1) / line * line; 4*cap(buf) < whole {
			t.Errorf("%s: %d bytes in use, allocation ends after %d, before the line does (%d)", name, 4*len(buf), 4*cap(buf), whole)
		}
	}
	for _, c := range []struct{ g, dh, n int }{{1, 5, 1}, {1, 16, 224}, {2, 40, 77}, {8, 32, 8 * 1041}} {
		var scr AttnScratch
		scr.Reserve(c.n)
		maxes, invSum, widen, lanes := scr.perHead(c.g, c.dh)
		if len(maxes) != c.g || len(invSum) != c.g || len(widen) != c.dh || len(lanes) != c.g*c.dh {
			t.Fatalf("perHead(%d, %d) returned lengths %d, %d, %d, %d", c.g, c.dh, len(maxes), len(invSum), len(widen), len(lanes))
		}
		owns("probs", scr.buf(c.n))
		owns("per-head state", scr.small[:c.g*c.dh+c.dh+2*c.g])
	}
}
