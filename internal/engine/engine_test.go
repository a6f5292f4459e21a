package engine

import (
	"fmt"
	"testing"

	"esti/internal/commcost"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

func tinyMQA() model.Config {
	return model.Config{
		Name: "tiny", Layers: 2, DModel: 64, DFF: 128,
		Heads: 8, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 64,
	}
}

func tinyMHA() model.Config {
	c := tinyMQA()
	c.Name = "tiny-mha"
	c.KVHeads = 8
	c.Attn = model.Multihead
	c.FFNKind = model.GELU
	c.ParallelBlock = false
	return c
}

func torus222() hardware.Torus { return hardware.Torus{X: 2, Y: 2, Z: 2} }

func tokens(batch, steps int) []int {
	out := make([]int, batch*steps)
	for i := range out {
		out[i] = (i*13 + 5) % 64
	}
	return out
}

// uniform is a lockstep pass's counts: n tokens for each of batch slots.
func uniform(batch, n int) []int {
	counts := make([]int, batch)
	for s := range counts {
		counts[s] = n
	}
	return counts
}

// step is Step for a test, which fails on an error.
func step(t testing.TB, e *Engine, dst *tensor.Mat, toks, counts []int) *tensor.Mat {
	t.Helper()
	out, err := e.Step(dst, toks, counts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// prefill feeds every slot steps tokens (slot-major) and returns their
// logits, [batch·steps, vocab].
func prefill(t testing.TB, e *Engine, toks []int, steps int) *tensor.Mat {
	t.Helper()
	return step(t, e, nil, toks, uniform(e.batch, steps))
}

// decode feeds every slot one token, writing [batch, vocab] logits into dst.
func decode(t testing.TB, e *Engine, dst *tensor.Mat, last []int) *tensor.Mat {
	t.Helper()
	return step(t, e, dst, last, uniform(e.batch, 1))
}

// generate greedily decodes gen tokens per slot after a lockstep prefill of
// promptLen tokens each, mirroring reference.Model.Generate.
func generate(t testing.TB, e *Engine, prompt []int, promptLen, gen int) [][]int {
	t.Helper()
	logits := prefill(t, e, prompt, promptLen)
	out := make([][]int, e.batch)
	last := make([]int, e.batch)
	for g := 0; g < gen; g++ {
		for s := range last {
			last[s] = sampling.Greedy(logits.Row((s+1)*logits.Rows/e.batch - 1))
			out[s] = append(out[s], last[s])
		}
		if g+1 < gen {
			logits = decode(t, e, logits, last)
		}
	}
	return out
}

// checkAgainstReference runs the same prefill+decode on the sharded engine
// and the reference model and requires near-identical logits at every step.
func checkAgainstReference(t *testing.T, cfg model.Config, tr hardware.Torus, opts Options, batch int) {
	t.Helper()
	w := reference.NewWeights(cfg, 42)
	const promptLen, gen = 4, 3
	prompt := tokens(batch, promptLen)

	ref := reference.New(w, batch, promptLen+gen+1)
	eng, err := New(w, tr, opts, batch, promptLen+gen+1)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}

	refLogits := ref.Prefill(prompt, promptLen)
	engLogits := prefill(t, eng, prompt, promptLen)
	assertClose(t, "prefill", refLogits, engLogits)

	last := make([]int, batch)
	for s := 0; s < batch; s++ {
		last[s] = sampling.Greedy(refLogits.Row(s*promptLen + promptLen - 1))
	}
	for g := 0; g < gen; g++ {
		refL := ref.Decode(last)
		engL := decode(t, eng, nil, last)
		assertClose(t, fmt.Sprintf("decode step %d", g), refL, engL)
		for s := 0; s < batch; s++ {
			last[s] = sampling.Greedy(refL.Row(s))
		}
	}
}

func assertClose(t *testing.T, what string, ref, got *tensor.Mat) {
	t.Helper()
	if ref.Rows != got.Rows || ref.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, got.Rows, got.Cols, ref.Rows, ref.Cols)
	}
	if d := tensor.MaxAbsDiff(ref, got); d > 2e-3 {
		t.Fatalf("%s: sharded logits differ from reference by %g", what, d)
	}
}

// The core contract, over the full layout matrix.
func TestShardedMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  model.Config
		ffn  partition.FFNLayout
		attn partition.AttnLayout
	}{
		{"mqa-2dws-batch", tinyMQA(), partition.FFN2DWeightStationary, partition.AttnShardBatch},
		{"mqa-2dws-heads", tinyMQA(), partition.FFN2DWeightStationary, partition.AttnShardHeads},
		{"mqa-1dws-batch", tinyMQA(), partition.FFN1DWeightStationary, partition.AttnShardBatch},
		{"mqa-1dws-heads", tinyMQA(), partition.FFN1DWeightStationary, partition.AttnShardHeads},
		{"mha-2dws-heads", tinyMHA(), partition.FFN2DWeightStationary, partition.AttnShardHeads},
		{"mha-1dws-heads", tinyMHA(), partition.FFN1DWeightStationary, partition.AttnShardHeads},
		{"mha-2dws-batch", tinyMHA(), partition.FFN2DWeightStationary, partition.AttnShardBatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, tc.cfg, torus222(), Options{FFN: tc.ffn, Attn: tc.attn}, 8)
		})
	}
}

// Different torus shapes for the same chip count must all be correct.
func TestTorusShapes(t *testing.T) {
	for _, tr := range []hardware.Torus{
		{X: 8, Y: 1, Z: 1},
		{X: 1, Y: 8, Z: 1},
		{X: 4, Y: 2, Z: 1},
		{X: 2, Y: 2, Z: 2},
		{X: 1, Y: 1, Z: 1},
	} {
		t.Run(tr.String(), func(t *testing.T) {
			checkAgainstReference(t, tinyMQA(), tr,
				Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}, 8)
		})
	}
}

// Int8 weights: engine vs a reference whose weights were quantized the same
// way would match exactly; against the float reference the drift must stay
// within quantization error, and greedy decoding should rarely diverge on a
// well-separated argmax. We assert bounded logit drift.
func TestInt8CloseToFloat(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 7)
	const batch, promptLen = 8, 4
	prompt := tokens(batch, promptLen)

	ref := reference.New(w, batch, 8)
	eng, err := New(w, torus222(), Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Int8Weights: true,
	}, batch, 8)
	if err != nil {
		t.Fatal(err)
	}
	refL := ref.Prefill(prompt, promptLen)
	engL := prefill(t, eng, prompt, promptLen)
	d := tensor.MaxAbsDiff(refL, engL)
	if d == 0 {
		t.Error("int8 engine suspiciously identical to float reference")
	}
	if d > 0.5 {
		t.Errorf("int8 drift %g too large", d)
	}
}

// Generate must agree token-for-token with the reference under greedy
// decoding (float weights).
func TestGenerateMatchesReference(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 9)
	const batch, promptLen, gen = 8, 4, 5
	prompt := tokens(batch, promptLen)
	refOut := reference.New(w, batch, promptLen+gen+1).Generate(prompt, promptLen, gen)
	eng, err := New(w, torus222(), Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
	}, batch, promptLen+gen+1)
	if err != nil {
		t.Fatal(err)
	}
	engOut := generate(t, eng, prompt, promptLen, gen)
	for s := range refOut {
		for i := range refOut[s] {
			if refOut[s][i] != engOut[s][i] {
				t.Fatalf("seq %d token %d: engine %d vs reference %d",
					s, i, engOut[s][i], refOut[s][i])
			}
		}
	}
}

// Per-chip KV cache bytes must follow the paper's Table 1 law: batch
// sharding divides the logical cache by nchips; head-sharded multiquery
// replicates it fully.
func TestKVCacheShardingBytes(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 3)
	const batch = 8
	mkBytes := func(attn partition.AttnLayout) int {
		eng, err := New(w, torus222(), Options{FFN: partition.FFN2DWeightStationary, Attn: attn}, batch, 8)
		if err != nil {
			t.Fatal(err)
		}
		return eng.chips[0].cache.Bytes()
	}
	batchBytes := mkBytes(partition.AttnShardBatch)
	headBytes := mkBytes(partition.AttnShardHeads)
	if headBytes != 8*batchBytes {
		t.Errorf("head-sharded multiquery cache %dB vs batch-sharded %dB: want 8x replication",
			headBytes, batchBytes)
	}

	// Multihead head-sharded shards KV over heads: same per-chip bytes as
	// batch sharding (both divide by nchips), but 8x the multiquery width.
	mha := tinyMHA()
	wm := reference.NewWeights(mha, 3)
	engM, err := New(wm, torus222(), Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads}, batch, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := engM.chips[0].cache.Bytes(); got != batchBytes*8 {
		t.Errorf("multihead head-sharded cache = %dB, want %dB", got, batchBytes*8)
	}
}

// Measured per-layer block communication must match the analytic volume
// formulas (Appendix A.2). The final norm and logit gathers add their own
// traffic, so we isolate the blocks' bytes by differencing two engines that
// share everything but the layout: commcost.FFNLayerComm at the fused
// widths, plus the norm statistic the 2D in-projection's reduce-scatter
// carries. 1D gathers and reduce-scatters over all chips; 2D gathers and
// reduce-scatters over YZ and moves the fused projections over X. On this
// model 2D moves more (the difference is negative, −4,352 B/chip): its
// in-projection traffic over X, with the multiquery K/V in every chunk,
// outweighs the smaller YZ collectives.
func TestFFNCommMatchesAnalyticDifference(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 11)
	const batch, steps = 8, 4
	tr := torus222()
	run := func(ffn partition.FFNLayout) float64 {
		eng, err := New(w, tr, Options{FFN: ffn, Attn: partition.AttnShardHeads}, batch, 8)
		if err != nil {
			t.Fatal(err)
		}
		eng.Mesh().ResetCounters()
		prefill(t, eng, tokens(batch, steps), steps)
		return float64(eng.Mesh().BytesSent()) / float64(tr.Chips())
	}
	got1D := run(partition.FFN1DWeightStationary)
	got2D := run(partition.FFN2DWeightStationary)

	nTok := float64(batch * steps)
	const actBytes = 4 // engine activations are float32
	attn := partition.PlanAttn(partition.AttnShardHeads, tr, cfg.Heads, cfg.KVHeads)
	attnIn, ffnIn, attnOut, ffnOut := commcost.BlockWidths(cfg)
	fIn := attnIn + ffnIn + float64((commcost.KVCopies(cfg, attn)-1)*2*cfg.KVHeads*cfg.HeadDim)
	block := func(l partition.FFNLayout) float64 {
		p := partition.PlanFFN(l, tr)
		return float64(cfg.Layers) * (commcost.FFNLayerComm(p, nTok, float64(cfg.DModel), fIn, attnOut+ffnOut, actBytes, 0).Total() +
			commcost.NormStatVolume(p, nTok))
	}
	gotDiff := got1D - got2D
	wantDiff := block(partition.FFN1DWeightStationary) - block(partition.FFN2DWeightStationary)
	if relErr(gotDiff, wantDiff) > 1e-9 {
		t.Errorf("block comm difference %g bytes/chip, want %g (1D: %g, 2D: %g)",
			gotDiff, wantDiff, got1D, got2D)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / abs(want)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// The all-to-all cost of batch sharding is the only traffic difference
// between the two attention layouts — and it is small (Section 3.3).
func TestBatchShardingAddsOnlySmallAllToAll(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 13)
	const batch = 8
	run := func(attn partition.AttnLayout) float64 {
		eng, err := New(w, torus222(), Options{FFN: partition.FFN2DWeightStationary, Attn: attn}, batch, 8)
		if err != nil {
			t.Fatal(err)
		}
		prefill(t, eng, tokens(batch, 2), 2)
		eng.Mesh().ResetCounters()
		decode(t, eng, nil, tokens(batch, 1))
		return float64(eng.Mesh().BytesSent()) / 8
	}
	headBytes := run(partition.AttnShardHeads)
	batchBytes := run(partition.AttnShardBatch)
	extra := batchBytes - headBytes
	if extra <= 0 {
		t.Fatalf("batch sharding should add all-to-all traffic (head %g, batch %g)", headBytes, batchBytes)
	}
	// Two all-to-alls of [batch, H·dh] per layer, (n-1)/n each.
	perLayer := float64(batch*cfg.Heads*cfg.HeadDim*4) / 8 // per-chip shard bytes
	want := float64(cfg.Layers) * 2 * commcost.AllToAllVolume(perLayer, 8)
	if relErr(extra, want) > 1e-9 {
		t.Errorf("all-to-all bytes/chip = %g, want %g", extra, want)
	}
	if extra > 0.2*headBytes {
		t.Errorf("all-to-all overhead %g is not small vs base traffic %g", extra, headBytes)
	}
}

func TestNewRejectsBadShapes(t *testing.T) {
	w := reference.NewWeights(tinyMQA(), 1)
	cases := []struct {
		name  string
		torus hardware.Torus
		opts  Options
		batch int
	}{
		{"indivisible dmodel", hardware.Torus{X: 3, Y: 1, Z: 1},
			Options{FFN: partition.FFN2DWeightStationary}, 8},
		{"batch not divisible", torus222(),
			Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}, 6},
		{"unsupported layout", torus222(),
			Options{FFN: partition.FFNWeightGatheredXYZ}, 8},
		{"too many chips for heads", hardware.Torus{X: 16, Y: 1, Z: 1},
			Options{FFN: partition.FFN1DWeightStationary}, 16},
		{"partial weight gather", torus222(),
			Options{FFN: partition.FFNWeightGatheredX, Attn: partition.AttnShardBatch}, 8},
		// On one chip every group has size one: support is decided by the
		// groups, not their sizes.
		{"one-chip weight-gathered, head-sharded", hardware.Torus{X: 1, Y: 1, Z: 1},
			Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardHeads}, 8},
		{"one-chip weight-gathered, int8 weights", hardware.Torus{X: 1, Y: 1, Z: 1},
			Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch, Int8Weights: true}, 8},
	}
	for _, tc := range cases {
		if _, err := New(w, tc.torus, tc.opts, tc.batch, 8); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// A single-chip "mesh" must reproduce the reference trivially and move zero
// bytes.
func TestSingleChipNoComm(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 17)
	eng, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1},
		Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref := reference.New(w, 2, 8)
	prompt := tokens(2, 3)
	assertClose(t, "single chip", ref.Prefill(prompt, 3), prefill(t, eng, prompt, 3))
	if eng.Mesh().BytesSent() != 0 {
		t.Errorf("single chip sent %d bytes", eng.Mesh().BytesSent())
	}
}
