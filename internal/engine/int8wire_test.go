package engine

import (
	"math"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/tensor"
)

// wireLayouts are the functional layouts the int8-wire contract is pinned
// on, across 1-, 2- and 8-chip meshes: both weight-stationary FFN layouts,
// both attention shardings (head-sharded has no all-to-all; batch-sharded
// adds the Figure 5(b) reshards), and the weight-gathered path whose
// traffic is all weight staging.
var wireLayouts = []struct {
	name  string
	torus hardware.Torus
	opts  Options
}{
	{"2dws-batch-1chip", hardware.Torus{X: 1, Y: 1, Z: 1},
		Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}},
	{"2dws-batch-2chip", hardware.Torus{X: 2, Y: 1, Z: 1},
		Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}},
	{"2dws-batch-8chip", hardware.Torus{X: 2, Y: 2, Z: 2},
		Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}},
	{"1dws-heads-2chip", hardware.Torus{X: 2, Y: 1, Z: 1},
		Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}},
	{"1dws-heads-8chip", hardware.Torus{X: 2, Y: 2, Z: 2},
		Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}},
	{"wgxyz-batch-2chip", hardware.Torus{X: 2, Y: 1, Z: 1},
		Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch}},
	{"wgxyz-batch-8chip", hardware.Torus{X: 2, Y: 2, Z: 2},
		Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch}},
}

// The int8 wire's end-to-end accuracy contract, mirroring the int8-KV
// one: greedy decoding with quantized collective payloads produces the
// same tokens as the float32 wire over a 64-step horizon on the CI
// config. Per-chunk symmetric quantization bounds each transported
// element's error at 0.5/127 of its chunk's max magnitude (reductions: at
// most K-1 such half-steps); that noise must stay far below the logit
// gaps that decide argmax.
func TestInt8WireGreedyMatchesFP32(t *testing.T) {
	cfg := ciConfig()
	const batch, promptLen, gen, maxLen = 8, 4, 64, 128
	prompt := make([]int, batch*promptLen)
	for i := range prompt {
		prompt[i] = (i*7 + 3) % cfg.Vocab
	}
	w := reference.NewWeights(cfg, 11)
	for _, lay := range wireLayouts {
		t.Run(lay.name, func(t *testing.T) {
			fp, err := New(w, lay.torus, lay.opts, batch, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			o8 := lay.opts
			o8.WireDType = model.Int8
			q8, err := New(w, lay.torus, o8, batch, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			want := generate(t, fp, prompt, promptLen, gen)
			got := generate(t, q8, prompt, promptLen, gen)
			for s := 0; s < batch; s++ {
				for g := 0; g < gen; g++ {
					if got[s][g] != want[s][g] {
						t.Fatalf("seq %d diverges at step %d: int8-wire token %d, fp32-wire token %d",
							s, g, got[s][g], want[s][g])
					}
				}
			}
		})
	}
}

// A loud token must not cost its batch-mates their int8-wire resolution.
// One sequence's residual is 100× everyone else's (its token's embedding
// row is scaled up, as outlier tokens do in trained models); the int8
// wire's logit error on the other sequences must stay within a small
// multiple of its error when every residual has the same magnitude. The
// block's input gather carries the raw residual, so a scale shared by the
// whole chunk would let the loud row set every row's quantization step.
// The tied embedding makes the loud token's logit column 100× as well, and
// the logit gather shares one scale per vocab block, so the loud token's
// block is left out of the comparison.
func TestInt8WireLoudTokenKeepsOthersResolution(t *testing.T) {
	cfg := ciConfig()
	const batch, promptLen, loud = 8, 4, 5
	prompt := make([]int, batch*promptLen)
	for i := range prompt {
		prompt[i] = (i*7 + 3) % (cfg.Vocab - 1) // never the loud token...
		if prompt[i] >= loud {
			prompt[i]++
		}
		if i < promptLen {
			prompt[i] = loud // ...except in sequence 0
		}
	}
	for _, lay := range wireLayouts {
		n := lay.torus.Chips()
		if n == 1 || lay.opts.FFN == partition.FFNWeightGatheredXYZ {
			continue // no activation group: the residual never crosses the wire
		}
		t.Run(lay.name, func(t *testing.T) {
			vBlock := cfg.Vocab / n
			quietErr := func(scale float32) float64 {
				w := reference.NewWeights(cfg, 11)
				for j := range w.Embed.Row(loud) {
					w.Embed.Row(loud)[j] *= scale
				}
				logits := func(wire model.DType) *tensor.Mat {
					o := lay.opts
					o.WireDType = wire
					eng, err := New(w, lay.torus, o, batch, 16)
					if err != nil {
						t.Fatal(err)
					}
					return prefill(t, eng, prompt, promptLen)
				}
				fp, q8 := logits(model.FP32), logits(model.Int8)
				var worst float64
				for i := promptLen; i < fp.Rows; i++ {
					for j := range fp.Row(i) {
						if j/vBlock == loud/vBlock {
							continue
						}
						worst = max(worst, math.Abs(float64(q8.Row(i)[j]-fp.Row(i)[j])))
					}
				}
				return worst
			}
			base, loudErr := quietErr(1), quietErr(100)
			t.Logf("quiet-row logit error: %.3g with equal residuals, %.3g beside a 100x token", base, loudErr)
			if loudErr > 4*base {
				t.Errorf("a 100x token raises the other sequences' int8-wire logit error from %.3g to %.3g (> 4x)", base, loudErr)
			}
		})
	}
}

// The wire volume contract on the mesh counters: with an int8 wire every
// collective's bytes shrink to ≤0.55× the fp32 session's — comfortably
// met, since int8 is ~0.3× with the residual gathers' per-token scales —
// and no float32 byte remains: the RMS norm gathers the residual in the
// wire format and normalizes locally.
// Asserted for a full prefill+decode pass per layout.
func TestInt8WireVolumeHalved(t *testing.T) {
	cfg := ciConfig()
	const batch, steps = 8, 4
	w := reference.NewWeights(cfg, 11)
	for _, lay := range wireLayouts {
		n := lay.torus.Chips()
		if n == 1 {
			continue // no wire at all
		}
		t.Run(lay.name, func(t *testing.T) {
			run := func(opts Options) (total, int8Part float64) {
				eng, err := New(w, lay.torus, opts, batch, 16)
				if err != nil {
					t.Fatal(err)
				}
				prefill(t, eng, tokens(batch, steps), steps)
				decode(t, eng, nil, tokens(batch, 1))
				m := eng.Mesh()
				return float64(m.BytesSent()), float64(m.Int8BytesSent())
			}
			fpTotal, fpInt8 := run(lay.opts)
			o8 := lay.opts
			o8.WireDType = model.Int8
			q8Total, q8Int8 := run(o8)
			if fpInt8 != 0 {
				t.Fatalf("fp32 session sent %g int8 bytes", fpInt8)
			}
			if gotF32 := q8Total - q8Int8; gotF32 != 0 {
				t.Errorf("int8 session sent %g float32 bytes, want 0", gotF32)
			}
			if ratio := q8Total / fpTotal; ratio > 0.55 {
				t.Errorf("int8 wire bytes are %.3fx the fp32 wire bytes (%g vs %g), want <= 0.55x",
					ratio, q8Total, fpTotal)
			}
		})
	}
}

// Steady-state decode under an int8 wire keeps the zero-alloc contract on the
// single-chip mesh (where the whole pass is chip-local; collectives are
// size-1 no-ops). The multi-chip wire path's buffers come from the mesh
// message pools — covered by the volume tests above and by the root
// package's TestEngineDecodeStepAllocs, which holds an eight-chip int8-wire
// step to an empty mesh pass's allocations.
func TestInt8WireDecodeSteadyStateZeroAllocs(t *testing.T) {
	cfg := ciConfig()
	const batch, maxLen = 4, 512
	w := reference.NewWeights(cfg, 7)
	eng, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		WireDType: model.Int8,
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
		t.Errorf("int8-wire Step allocates %v times per steady-state iteration, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		eng.DecodeSlotsInto(logits, last, active)
	}); avg != 0 {
		t.Errorf("int8-wire DecodeSlotsInto allocates %v times per steady-state iteration, want 0", avg)
	}
}

// The three int8 options are orthogonal and compose: weights, KV cache
// and wire all quantized at once still runs every layout and generates
// sane tokens (no exactness claim — int8 weights alone already change
// the logits — but the pipeline must hold together).
func TestInt8EverythingComposes(t *testing.T) {
	cfg := ciConfig()
	const batch, promptLen, gen, maxLen = 8, 4, 8, 32
	prompt := make([]int, batch*promptLen)
	for i := range prompt {
		prompt[i] = (i*5 + 1) % cfg.Vocab
	}
	w := reference.NewWeights(cfg, 19)
	eng, err := New(w, hardware.Torus{X: 2, Y: 2, Z: 2}, Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Int8Weights: true, KVDType: model.Int8, WireDType: model.Int8,
	}, batch, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	out := generate(t, eng, prompt, promptLen, gen)
	for s := range out {
		if len(out[s]) != gen {
			t.Fatalf("seq %d generated %d tokens, want %d", s, len(out[s]), gen)
		}
		for _, tok := range out[s] {
			if tok < 0 || tok >= cfg.Vocab {
				t.Fatalf("seq %d produced out-of-vocab token %d", s, tok)
			}
		}
	}
	if eng.Mesh().Int8BytesSent() == 0 {
		t.Error("composed session moved no int8 wire bytes")
	}
}

// The multi-chip steady-state decode must also stop allocating once the
// message pools are warm: every wire buffer — including the int8 encode
// scratch — is drawn from and recycled to the per-chip pools. A handful
// of warmup steps, then an 8-chip decode iteration is measured; mesh.Run
// itself allocates (goroutines, wait-group), so the assertion is that the
// int8 session allocates no more than the fp32 session, not zero.
func TestInt8WireMultiChipNoExtraAllocs(t *testing.T) {
	cfg := ciConfig()
	const batch, maxLen = 8, 512
	w := reference.NewWeights(cfg, 7)
	run := func(wire model.DType) float64 {
		eng, err := New(w, hardware.Torus{X: 2, Y: 2, Z: 2}, Options{
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
			WireDType: wire,
		}, batch, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		toks := make([]int, batch*4)
		prefill(t, eng, toks, 4)
		last, ones := make([]int, batch), uniform(batch, 1)
		logits := tensor.New(batch, cfg.Vocab)
		for i := 0; i < 16; i++ {
			eng.Step(logits, last, ones)
		}
		return testing.AllocsPerRun(50, func() {
			eng.Step(logits, last, ones)
		})
	}
	fp, q8 := run(model.FP32), run(model.Int8)
	if q8 > fp {
		t.Errorf("int8-wire 8-chip decode allocates %v/op vs %v/op fp32 — wire scratch not pooled?", q8, fp)
	}
}
