package engine

import (
	"testing"

	"esti/internal/commcost"
	"esti/internal/hardware"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

func wgOpts() Options {
	return Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch}
}

// The weight-gathered path must match the reference exactly like the
// weight-stationary paths do.
func TestWGMatchesReference(t *testing.T) {
	checkAgainstReference(t, tinyMQA(), torus222(), wgOpts(), 8)
	checkAgainstReference(t, tinyMHA(), torus222(), wgOpts(), 8)
}

func TestWGTorusShapes(t *testing.T) {
	for _, tr := range []hardware.Torus{
		{X: 8, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 2}, {X: 1, Y: 4, Z: 2}, {X: 1, Y: 1, Z: 1},
	} {
		t.Run(tr.String(), func(t *testing.T) {
			checkAgainstReference(t, tinyMQA(), tr, wgOpts(), 8)
		})
	}
}

// The defining property of XYZ weight gathering: per-chip communication is
// the gathered weight volume, layerBytes·(n-1)/n per layer — independent of
// batch — and there is no activation traffic at all: every activation
// collective runs over the empty group.
func TestWGCommIsWeightVolumeOnly(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 51)
	tr := torus222()
	run := func(batch, steps int) float64 {
		eng, err := New(w, tr, wgOpts(), batch, 8)
		if err != nil {
			t.Fatal(err)
		}
		eng.Mesh().ResetCounters()
		eng.Prefill(tokens(batch, steps), steps)
		return float64(eng.Mesh().BytesSent()) / float64(tr.Chips())
	}
	small := run(8, 1)
	large := run(8, 6)
	if small != large {
		t.Errorf("WG traffic varies with batch tokens: %g vs %g bytes/chip", small, large)
	}
	// Expected: per layer, every weight matrix all-gathered over 8 chips.
	e, f := float64(cfg.DModel), float64(cfg.DFF)
	hq := float64(cfg.Heads * cfg.HeadDim)
	kvq := float64(cfg.KVHeads * cfg.HeadDim)
	perLayerFloats := 2*e*f + e*f + e*hq + 2*e*kvq + hq*e // gate+up, down, q, k+v, o
	wantPerChip := float64(cfg.Layers) * commcost.AllGatherVolume(perLayerFloats*4, 8)
	if relErr(small, wantPerChip) > 1e-9 {
		t.Errorf("WG bytes/chip = %g, want %g (weight volume only)", small, wantPerChip)
	}
}

// Figure 3's economics, measured on the mesh: at large token counts the
// weight-gathered layout moves fewer bytes than 2D weight-stationary; at
// tiny token counts it moves more.
func TestWGvsWSMeasuredCrossover(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 53)
	tr := torus222()
	traffic := func(opts Options, batch, steps, maxLen int) float64 {
		eng, err := New(w, tr, opts, batch, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		eng.Mesh().ResetCounters()
		eng.Prefill(tokens(batch, steps), steps)
		return float64(eng.Mesh().BytesSent())
	}
	ws := Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}
	// Tiny pass: 8 tokens total — weights dwarf activations, WS wins.
	if wg, wsB := traffic(wgOpts(), 8, 1, 4), traffic(ws, 8, 1, 4); wg <= wsB {
		t.Errorf("at 8 tokens WG (%g B) should move more than WS (%g B)", wg, wsB)
	}
	// Large pass: 512 tokens — activations dwarf weights, WG wins.
	if wg, wsB := traffic(wgOpts(), 8, 64, 70), traffic(ws, 8, 64, 70); wg >= wsB {
		t.Errorf("at 512 tokens WG (%g B) should move less than WS (%g B)", wg, wsB)
	}
}

// Greedy generation through the WG path matches the reference.
func TestWGGenerate(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 55)
	const batch, promptLen, gen = 8, 4, 4
	prompt := tokens(batch, promptLen)
	refOut := reference.New(w, batch, promptLen+gen+1).Generate(prompt, promptLen, gen)
	eng, err := New(w, torus222(), wgOpts(), batch, promptLen+gen+1)
	if err != nil {
		t.Fatal(err)
	}
	engOut := eng.Generate(prompt, promptLen, gen)
	for s := range refOut {
		for i := range refOut[s] {
			if refOut[s][i] != engOut[s][i] {
				t.Fatalf("seq %d token %d: %d vs %d", s, i, engOut[s][i], refOut[s][i])
			}
		}
	}
}

// Mixed-phase session: prefill with the weight-gathered engine, then decode
// the same cache state with a weight-stationary engine — the paper's actual
// serving pattern ("the same weight layout for weight-gathered (during
// prefill) and weight-stationary (during decoding)"). Functionally we
// emulate the handoff by replaying the prompt, since cache layouts match
// (both batch-sharded).
func TestWGPrefillThenWSDecodeEquivalent(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 57)
	const batch, promptLen = 8, 5
	prompt := tokens(batch, promptLen)

	wgEng, err := New(w, torus222(), wgOpts(), batch, 16)
	if err != nil {
		t.Fatal(err)
	}
	wsEng, err := New(w, torus222(),
		Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}, batch, 16)
	if err != nil {
		t.Fatal(err)
	}
	a := wgEng.Prefill(prompt, promptLen)
	b := wsEng.Prefill(prompt, promptLen)
	if d := tensor.MaxAbsDiff(a, b); d > 1e-4 {
		t.Fatalf("WG and WS prefill logits differ by %g", d)
	}
	last := make([]int, batch)
	for s := range last {
		last[s] = sampling.Greedy(a.Row(s*promptLen + promptLen - 1))
	}
	da := wgEng.Decode(last)
	db := wsEng.Decode(last)
	if d := tensor.MaxAbsDiff(da, db); d > 1e-4 {
		t.Errorf("decode after WG vs WS prefill differs by %g", d)
	}
}

func TestWGValidation(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 59)
	if _, err := New(w, torus222(),
		Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardHeads}, 8, 8); err == nil {
		t.Error("WG with head-sharded attention should be rejected")
	}
	if _, err := New(w, torus222(),
		Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch, Int8Weights: true}, 8, 8); err == nil {
		t.Error("WG with int8 should be rejected")
	}
	if _, err := New(w, torus222(), wgOpts(), 6, 8); err == nil {
		t.Error("WG with indivisible batch should be rejected")
	}
}
