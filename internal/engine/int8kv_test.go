package engine

import (
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/tensor"
)

// ciConfig is the model the committed CI benchmarks run
// (BenchmarkEngineDecodeStep and its int8-KV twin): the configuration the
// acceptance bar's 64-step greedy-agreement check is defined on.
func ciConfig() model.Config {
	return model.Config{
		Name: "bench", Layers: 2, DModel: 64, DFF: 128,
		Heads: 8, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 64,
	}
}

// The int8 KV cache's end-to-end accuracy contract: greedy decoding with a
// quantized cache produces the same tokens as the float32 cache over a
// 64-step horizon — the perplexity-proxy check. Per-row symmetric
// quantization bounds each stored K/V element's error at 0.5/127 of its
// row's max magnitude; that noise must stay far below the logit gaps that
// decide argmax. Verified on the CI config across the functional layouts
// (including the multi-chip meshes, whose wire traffic int8 KV leaves
// untouched).
func TestInt8KVGreedyMatchesFP32(t *testing.T) {
	cfg := ciConfig()
	const batch, promptLen, gen, maxLen = 8, 4, 64, 128
	prompt := make([]int, batch*promptLen)
	for i := range prompt {
		prompt[i] = (i*7 + 3) % cfg.Vocab
	}

	layouts := []struct {
		name  string
		torus hardware.Torus
		opts  Options
	}{
		{"2dws-batch-1chip", hardware.Torus{X: 1, Y: 1, Z: 1},
			Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}},
		{"2dws-batch-8chip", hardware.Torus{X: 2, Y: 2, Z: 2},
			Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}},
		{"1dws-heads-2chip", hardware.Torus{X: 2, Y: 1, Z: 1},
			Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}},
		{"wgxyz-batch-2chip", hardware.Torus{X: 2, Y: 1, Z: 1},
			Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch}},
	}
	w := reference.NewWeights(cfg, 11)
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			fp, err := New(w, lay.torus, lay.opts, batch, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			o8 := lay.opts
			o8.KVDType = model.Int8
			q8, err := New(w, lay.torus, o8, batch, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			want := generate(t, fp, prompt, promptLen, gen)
			got := generate(t, q8, prompt, promptLen, gen)
			for s := 0; s < batch; s++ {
				for g := 0; g < gen; g++ {
					if got[s][g] != want[s][g] {
						t.Fatalf("seq %d diverges at step %d: int8 token %d, fp32 token %d",
							s, g, got[s][g], want[s][g])
					}
				}
			}
		})
	}
}

// The int8 session's cache must report true quantized backing bytes —
// at most 0.55× the float32 session's for the same shape (1 byte per
// element plus a 4-byte row scale, vs 4 bytes per element).
func TestInt8KVCacheBytesHalved(t *testing.T) {
	cfg := ciConfig()
	w := reference.NewWeights(cfg, 11)
	opts := Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}
	fp, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, opts, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	opts.KVDType = model.Int8
	q8, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, opts, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	fpB, q8B := fp.ChipCacheBytes(0), q8.ChipCacheBytes(0)
	if q8B <= 0 || fpB <= 0 {
		t.Fatalf("degenerate cache bytes: fp32 %d, int8 %d", fpB, q8B)
	}
	if ratio := float64(q8B) / float64(fpB); ratio > 0.55 {
		t.Errorf("int8 cache is %.2fx the fp32 bytes (%d vs %d), want <= 0.55x", ratio, q8B, fpB)
	}
}

// The quantized cache keeps the hot path's headline contract: a warm
// decode iteration allocates nothing. The int8 walk reads Cache.Segments
// (by-value views), quantizes appends into preallocated storage, and runs
// its softmax in the same pre-sized scratch as the float32 walk.
func TestInt8KVDecodeSteadyStateZeroAllocs(t *testing.T) {
	cfg := ciConfig()
	const batch, maxLen = 4, 512
	w := reference.NewWeights(cfg, 7)
	eng, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		KVDType: model.Int8,
	}, batch, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]int, batch*4)
	for i := range tokens {
		tokens[i] = i % cfg.Vocab
	}
	prefill(t, eng, tokens, 4)

	last, ones := make([]int, batch), uniform(batch, 1)
	active := []bool{true, false, true, true}
	logits := tensor.New(batch, cfg.Vocab)
	for i := 0; i < 8; i++ {
		eng.Step(logits, last, ones)
		eng.DecodeSlotsInto(logits, last, active)
	}
	if avg := testing.AllocsPerRun(100, func() {
		eng.Step(logits, last, ones)
	}); avg != 0 {
		t.Errorf("int8-KV Step allocates %v times per steady-state iteration, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		eng.DecodeSlotsInto(logits, last, active)
	}); avg != 0 {
		t.Errorf("int8-KV DecodeSlotsInto allocates %v times per steady-state iteration, want 0", avg)
	}
}

// Shared-prefix admission under int8 KV: capturing a quantized slot into
// the (quantized) per-chip stores and re-attaching it is bit-lossless —
// dequantize→requantize reproduces the same int8 values — so the cached
// admission's logits are exactly the cold path's trailing rows, the same
// token-exactness contract the float32 prefix cache has.
func TestInt8KVPrefixCachedAdmissionExact(t *testing.T) {
	cfg := ciConfig()
	const batch, maxLen = 4, 128
	w := reference.NewWeights(cfg, 13)
	for _, attn := range []partition.AttnLayout{partition.AttnShardBatch, partition.AttnShardHeads} {
		eng, err := New(w, hardware.Torus{X: 2, Y: 1, Z: 1}, Options{
			FFN: partition.FFN1DWeightStationary, Attn: attn, KVDType: model.Int8,
		}, batch, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		eng.EnablePrefixCache(0)

		template := []int{5, 9, 2, 7, 1, 4, 8, 3}
		suffixA := []int{10, 11, 12}
		suffixB := []int{20, 21}
		promptA := append(append([]int(nil), template...), suffixA...)
		promptB := append(append([]int(nil), template...), suffixB...)

		// Cold admission of prompt A seeds the template.
		coldA, cached := eng.PrefillSlotCached(0, promptA, len(template))
		if cached != 0 {
			t.Fatalf("attn %v: first admission served %d cached tokens, want 0", attn, cached)
		}
		// Cold reference for prompt B in another slot, before the cached
		// admission (same engine, so identical quantized arithmetic).
		coldB := eng.PrefillSlot(1, promptB)

		logitsB, cachedB := eng.PrefillSlotCached(2, promptB, 0)
		if cachedB != len(template) {
			t.Fatalf("attn %v: cached admission served %d tokens, want %d", attn, cachedB, len(template))
		}
		suffixRows := tensor.SliceRows(coldB, len(template), len(promptB))
		if d := tensor.MaxAbsDiff(logitsB, suffixRows); d != 0 {
			t.Errorf("attn %v: cached admission logits differ from cold path by %g, want exact", attn, d)
		}
		_ = coldA
	}
}
