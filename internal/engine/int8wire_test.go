package engine

import (
	"testing"

	"esti/internal/commcost"
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
			want := fp.Generate(prompt, promptLen, gen)
			got := q8.Generate(prompt, promptLen, gen)
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

// The wire volume contract on the mesh counters: with an int8 wire every
// data-plane collective's bytes shrink to ≤0.55× the fp32 session's —
// comfortably met, since per-chunk int8 is ~0.26× — while the float32
// remainder is exactly the RMS-norm all-reduces, which commcost predicts
// in closed form. Asserted for a full prefill+decode pass per layout.
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
				eng.Prefill(tokens(batch, steps), steps)
				eng.Decode(tokens(batch, 1))
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

			// The fp32 remainder of the int8 session is the norm
			// all-reduces: per shardNorm call, an all-reduce (RS+AG) of
			// `padded` floats over all chips. ParallelBlock runs one norm
			// per layer plus the final norm; every pass gathers tokens
			// rounded up to a multiple of the group. The weight-gathered
			// layout's activations are token-sharded, so its norms are
			// chip-local — zero fp32 remainder.
			var normBytes float64
			if lay.opts.FFN != partition.FFNWeightGatheredXYZ {
				norms := float64(cfg.Layers + 1)
				passes := []int{batch * steps, batch} // prefill, decode tokens
				for _, nTok := range passes {
					padded := (nTok + n - 1) / n * n
					normBytes += norms * commcost.AllReduceVolume(float64(4*padded), n) * float64(n)
				}
			}
			gotF32 := q8Total - q8Int8
			if relErr(gotF32, normBytes) > 1e-9 {
				t.Errorf("int8 session's fp32 remainder = %g bytes, want %g (norm all-reduces)", gotF32, normBytes)
			}

			// Data-plane bytes: everything except the norm reductions.
			fpData := fpTotal - normBytes
			if ratio := q8Int8 / fpData; ratio > 0.55 {
				t.Errorf("int8 data-plane bytes are %.3fx the fp32 data-plane bytes (%g vs %g), want <= 0.55x",
					ratio, q8Int8, fpData)
			}
			if q8Total >= fpTotal*0.55 {
				t.Errorf("int8 total %g not <= 0.55x fp32 total %g", q8Total, fpTotal)
			}
		})
	}
}

// Steady-state decode under an int8 wire keeps the zero-alloc contract on the
// single-chip mesh (where the whole pass is chip-local; collectives are
// size-1 no-ops). The multi-chip wire path's buffers come from the mesh
// message pools — covered by the volume tests above and the gated
// BenchmarkEngineDecodeStepInt8Wire, whose allocs/op must stay at the
// fp32 path's figure.
func TestInt8WireDecodeSteadyStateZeroAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

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
	eng.Prefill(tokens, 4)

	last := make([]int, batch)
	active := []bool{true, false, true, true}
	logits := tensor.New(batch, cfg.Vocab)
	for i := 0; i < 8; i++ {
		eng.DecodeInto(logits, last)
		eng.DecodeSlotsInto(logits, last, active)
	}
	if avg := testing.AllocsPerRun(100, func() {
		eng.DecodeInto(logits, last)
	}); avg != 0 {
		t.Errorf("int8-wire DecodeInto allocates %v times per steady-state iteration, want 0", avg)
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
	out := eng.Generate(prompt, promptLen, gen)
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
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

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
		eng.Prefill(toks, 4)
		last := make([]int, batch)
		logits := tensor.New(batch, cfg.Vocab)
		for i := 0; i < 16; i++ {
			eng.DecodeInto(logits, last)
		}
		return testing.AllocsPerRun(50, func() {
			eng.DecodeInto(logits, last)
		})
	}
	fp, q8 := run(model.FP32), run(model.Int8)
	if q8 > fp {
		t.Errorf("int8-wire 8-chip decode allocates %v/op vs %v/op fp32 — wire scratch not pooled?", q8, fp)
	}
}
