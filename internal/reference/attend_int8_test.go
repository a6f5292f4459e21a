package reference

import (
	"math"
	"math/rand"
	"testing"

	"esti/internal/kvcache"
	"esti/internal/tensor"
)

// Property suite for the quantized attention walk: over shapes spanning
// the head mappings (MHA, multiquery, grouped), block-boundary depths
// (the 4-row-blocked loops' odd tails), multi-step queries, and
// prefix-attached slots, the int8 walk's output stays within a small
// relative error of the float32 walk on the same K/V — the bound that
// makes the end-to-end greedy-token agreement in package engine hold.
// Per-row symmetric quantization bounds each stored element's error at
// 0.5/127 ≈ 0.4% of its row's max magnitude; softmax averaging keeps the
// output error in the same class.
func TestAttendSeqInt8MatchesFP32(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct {
		name               string
		heads, kvHeads, dh int
		past, steps        int
		prefix             int // rows attached as a shared prefix
	}{
		{"mq-depth1", 4, 1, 8, 0, 1, 0},
		{"mq-odd-tail", 4, 1, 8, 6, 1, 0},
		{"mq-block-boundary", 4, 1, 8, 15, 1, 0},
		{"mq-deep", 4, 1, 8, 63, 1, 0},
		{"mha", 4, 4, 8, 9, 1, 0},
		{"grouped", 8, 2, 4, 17, 1, 0},
		{"multi-step", 4, 1, 8, 5, 4, 0},
		{"prefix", 4, 1, 8, 10, 1, 6},
		{"prefix-multi-step", 8, 2, 4, 12, 3, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			width := tc.kvHeads * tc.dh
			total := tc.past + tc.steps
			fp := kvcache.New(1, 1, total, width)
			q8 := kvcache.NewInt8(1, 1, total, width)

			// Shared prefix rows (if any) go through the stores; the rest
			// are appended privately to both caches.
			if tc.prefix > 0 {
				pk := tensor.New(tc.prefix, width).FillRand(rng, 1)
				pv := tensor.New(tc.prefix, width).FillRand(rng, 1)
				toks := make([]int, tc.prefix)
				for i := range toks {
					toks[i] = i + 1
				}
				fpStore := kvcache.NewPrefixStore(1, width, 0)
				q8Store := kvcache.NewPrefixStoreInt8(1, width, 0)
				fpP, err := fpStore.Insert(toks, []*tensor.Mat{pk}, []*tensor.Mat{pv})
				if err != nil {
					t.Fatal(err)
				}
				q8P, err := q8Store.Insert(toks, []*tensor.Mat{pk}, []*tensor.Mat{pv})
				if err != nil {
					t.Fatal(err)
				}
				if err := fp.AttachPrefix(0, fpP.Block(0)); err != nil {
					t.Fatal(err)
				}
				if err := q8.AttachPrefix(0, q8P.Block(0)); err != nil {
					t.Fatal(err)
				}
			}
			privPast := tc.past - tc.prefix
			if privPast < 0 {
				t.Fatalf("bad case: prefix %d > past %d", tc.prefix, tc.past)
			}
			if privPast > 0 {
				k := tensor.New(privPast, width).FillRand(rng, 1)
				v := tensor.New(privPast, width).FillRand(rng, 1)
				fp.AppendSeq(0, 0, k, v, privPast)
				q8.AppendSeq(0, 0, k, v, privPast)
			}
			fp.AdvanceSeq(0, privPast)
			q8.AdvanceSeq(0, privPast)

			// New positions' K/V (appended, not yet committed — the
			// mid-pass state AttendSeqInto reads).
			kNew := tensor.New(tc.steps, width).FillRand(rng, 1)
			vNew := tensor.New(tc.steps, width).FillRand(rng, 1)
			fp.AppendSeq(0, 0, kNew, vNew, tc.steps)
			q8.AppendSeq(0, 0, kNew, vNew, tc.steps)

			q := tensor.New(tc.steps, tc.heads*tc.dh).FillRand(rng, 1)
			var scrF, scrQ AttnScratch
			outF := AttendSeqInto(tensor.New(tc.steps, q.Cols), tc.dh, q, fp, 0, 0, tc.steps, &scrF)
			outQ := AttendSeqInto(tensor.New(tc.steps, q.Cols), tc.dh, q, q8, 0, 0, tc.steps, &scrQ)

			// Normalize by the output's dynamic range: quantization noise
			// is relative to row magnitudes, not to near-zero elements.
			var ref float64
			for _, v := range outF.Data {
				if a := math.Abs(float64(v)); a > ref {
					ref = a
				}
			}
			if ref == 0 {
				ref = 1
			}
			if d := tensor.MaxAbsDiff(outF, outQ) / ref; d > 0.03 {
				t.Errorf("int8 attention deviates %.4f (relative), want <= 0.03", d)
			}
		})
	}
}

// The int8 walk shares the zero-allocation contract of the float32 walk:
// once the scratch is warm, a call allocates nothing (by-value views,
// in-place softmax, shared int8-dot kernels).
func TestAttendSeqInt8ZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const heads, dh, width, depth = 4, 8, 8, 33
	c := kvcache.NewInt8(1, 1, depth+1, width)
	k := tensor.New(depth, width).FillRand(rng, 1)
	v := tensor.New(depth, width).FillRand(rng, 1)
	c.AppendSeq(0, 0, k, v, depth)
	c.AdvanceSeq(0, depth)
	kn := tensor.New(1, width).FillRand(rng, 1)
	vn := tensor.New(1, width).FillRand(rng, 1)
	c.AppendSeq(0, 0, kn, vn, 1)

	q := tensor.New(1, heads*dh).FillRand(rng, 1)
	out := tensor.New(1, heads*dh)
	var scr AttnScratch
	scr.Reserve(depth + 1)
	AttendSeqInto(out, dh, q, c, 0, 0, 1, &scr)
	if avg := testing.AllocsPerRun(100, func() {
		AttendSeqInto(out, dh, q, c, 0, 0, 1, &scr)
	}); avg != 0 {
		t.Errorf("int8 AttendSeqInto allocates %v per call, want 0", avg)
	}
}
