package engine

import (
	"fmt"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/tensor"
)

// generateWith builds an engine and runs greedy generation, returning the
// per-sequence token outputs and the measured overlap fraction.
func generateWith(t *testing.T, cfg model.Config, tr hardware.Torus, opts Options,
	batch, promptLen, gen int) ([][]int, float64) {
	t.Helper()
	w := reference.NewWeights(cfg, 42)
	prompt := make([]int, batch*promptLen)
	for i := range prompt {
		prompt[i] = (i*13 + 5) % cfg.Vocab
	}
	eng, err := New(w, tr, opts, batch, promptLen+gen+1)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return eng.Generate(prompt, promptLen, gen), eng.MeasuredOverlap()
}

// TestStreamedTokenExactVsBarrier is the tentpole acceptance matrix: the
// chunk-streamed FFN and weight-staging paths produce exactly the same
// greedy tokens as the barrier engine on 1-, 2-, and 8-chip meshes, across
// the weight-stationary layouts and the weight-gathered path, for fp32 and
// int8 wire, with float and int8 weights, SwiGLU-parallel and GELU-serial
// blocks. Token-exact (not logit-bitwise: gather-side chunked accumulation
// reorders float sums; the down-projection chunks are bitwise by
// construction).
func TestStreamedTokenExactVsBarrier(t *testing.T) {
	type tcase struct {
		name string
		cfg  model.Config
		opts Options
	}
	cases := []tcase{
		{"1d-heads", tinyMQA(), Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}},
		{"2d-batch", tinyMQA(), Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}},
		{"wg-xyz", tinyMQA(), wgOpts()},
		{"2d-heads-gelu-serial", tinyMHA(), Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads}},
		{"1d-batch-int8wire", tinyMQA(), Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardBatch, WireDType: model.Int8}},
		{"2d-batch-int8wire", tinyMQA(), Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch, WireDType: model.Int8}},
		{"wg-xyz-int8wire", tinyMQA(), func() Options { o := wgOpts(); o.WireDType = model.Int8; return o }()},
		{"2d-batch-int8weights", tinyMQA(), Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch, Int8Weights: true}},
	}
	tori := []hardware.Torus{{X: 1, Y: 1, Z: 1}, {X: 2, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 2}}
	const batch, promptLen, gen = 8, 4, 6
	for _, tc := range cases {
		for _, tr := range tori {
			t.Run(fmt.Sprintf("%s/%s", tc.name, tr), func(t *testing.T) {
				barrier, _ := generateWith(t, tc.cfg, tr, tc.opts, batch, promptLen, gen)
				streamOpts := tc.opts
				streamOpts.Streamed = true
				streamed, frac := generateWith(t, tc.cfg, tr, streamOpts, batch, promptLen, gen)
				for s := range barrier {
					for i := range barrier[s] {
						if barrier[s][i] != streamed[s][i] {
							t.Fatalf("seq %d token %d: streamed %d vs barrier %d",
								s, i, streamed[s][i], barrier[s][i])
						}
					}
				}
				if frac < 0 || frac > 1 {
					t.Fatalf("measured overlap fraction %g outside [0, 1]", frac)
				}
				if tr.Chips() > 1 && frac == 0 {
					t.Errorf("multi-chip streamed run measured zero overlap work")
				}
			})
		}
	}
}

// A streamed single-chip engine takes the barrier path (nothing to
// overlap), so the steady-state zero-allocation decode contract holds
// unchanged with Options.Streamed set.
func TestStreamedSingleChipDecodeZeroAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	cfg := model.Config{
		Name: "alloc-stream", Layers: 2, DModel: 32, DFF: 64,
		Heads: 4, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 32,
	}
	const batch, maxLen = 4, 256
	w := reference.NewWeights(cfg, 7)
	eng, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Streamed: true,
	}, batch, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Streamed() {
		t.Fatal("Streamed() accessor should report the option")
	}
	toks := make([]int, batch*4)
	for i := range toks {
		toks[i] = i % cfg.Vocab
	}
	eng.Prefill(toks, 4)
	last := make([]int, batch)
	logits := tensor.New(batch, cfg.Vocab)
	for i := 0; i < 8; i++ {
		eng.DecodeInto(logits, last)
	}
	if avg := testing.AllocsPerRun(100, func() {
		eng.DecodeInto(logits, last)
	}); avg != 0 {
		t.Errorf("streamed single-chip DecodeInto allocates %v times per iteration, want 0", avg)
	}
}

// The streamed engine matches the unsharded reference model too (not just
// the barrier engine): same transitive correctness contract every other
// layout test pins.
func TestStreamedMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		ffn  partition.FFNLayout
		attn partition.AttnLayout
	}{
		{"1d-heads", partition.FFN1DWeightStationary, partition.AttnShardHeads},
		{"2d-batch", partition.FFN2DWeightStationary, partition.AttnShardBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, tinyMQA(), torus222(),
				Options{FFN: tc.ffn, Attn: tc.attn, Streamed: true}, 8)
		})
	}
}

// Wire traffic is unchanged by streaming: same message sizes and counts as
// the barrier engine, on both payload formats — the streamed forms ride the
// identical ring schedule.
func TestStreamedWireBytesIdentical(t *testing.T) {
	cfg := tinyMQA()
	const batch, promptLen, gen = 8, 4, 4
	w := reference.NewWeights(cfg, 42)
	prompt := make([]int, batch*promptLen)
	for i := range prompt {
		prompt[i] = (i*13 + 5) % cfg.Vocab
	}
	for _, wire := range []model.DType{model.FP32, model.Int8} {
		run := func(streamed bool) (int64, int64, int64) {
			eng, err := New(w, torus222(), Options{
				FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
				WireDType: wire, Streamed: streamed,
			}, batch, promptLen+gen+1)
			if err != nil {
				t.Fatal(err)
			}
			eng.Generate(prompt, promptLen, gen)
			m := eng.Mesh()
			return m.BytesSent(), m.Int8BytesSent(), m.MessagesSent()
		}
		bB, b8, bM := run(false)
		sB, s8, sM := run(true)
		if bB != sB || b8 != s8 || bM != sM {
			t.Errorf("wire %v: streamed traffic (%d B, %d int8 B, %d msgs) differs from barrier (%d, %d, %d)",
				wire, sB, s8, sM, bB, b8, bM)
		}
	}
}
