package engine

import (
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/tensor"
)

// Incremental (chunked) prefill across the mesh must be equivalent to
// one-shot prefill — the engine-side version of the paper's "incremental
// processing of sequences during prefill".
func TestEngineIncrementalPrefill(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 21)
	const batch = 8
	opts := Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}

	oneShot, err := New(w, torus222(), opts, batch, 16)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := New(w, torus222(), opts, batch, 16)
	if err != nil {
		t.Fatal(err)
	}

	full := tokens(batch, 6)
	prefill(t, oneShot, full, 6)

	// Chunk each sequence's 6 tokens into 2 + 4.
	chunk1 := make([]int, 0, batch*2)
	chunk2 := make([]int, 0, batch*4)
	for s := 0; s < batch; s++ {
		chunk1 = append(chunk1, full[s*6:s*6+2]...)
		chunk2 = append(chunk2, full[s*6+2:(s+1)*6]...)
	}
	prefill(t, chunked, chunk1, 2)
	prefill(t, chunked, chunk2, 4)

	last := make([]int, batch)
	for s := range last {
		last[s] = (s * 3) % cfg.Vocab
	}
	a := decode(t, oneShot, nil, last)
	b := decode(t, chunked, nil, last)
	if d := tensor.MaxAbsDiff(a, b); d > 1e-4 {
		t.Errorf("chunked mesh prefill diverges from one-shot by %g", d)
	}
}

// A 16-chip mesh with a 16-head model: every head lives on its own chip, the
// strongest sharding the engine supports.
func TestSixteenChips(t *testing.T) {
	cfg := model.Config{
		Name: "tiny16", Layers: 2, DModel: 64, DFF: 128,
		Heads: 16, HeadDim: 4, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 64,
	}
	for _, tr := range []hardware.Torus{{X: 4, Y: 2, Z: 2}, {X: 2, Y: 4, Z: 2}, {X: 16, Y: 1, Z: 1}} {
		t.Run(tr.String(), func(t *testing.T) {
			checkAgainstReference(t, cfg, tr,
				Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}, 16)
		})
	}
}

// Serial block + batch-sharded multiquery + int8 all at once — the most
// option-laden path. Int8 drift is bounded, and the sharded int8 engine
// must agree with a single-chip int8 engine exactly (same quantized
// weights, same arithmetic, different partitioning).
func TestInt8ShardedMatchesInt8SingleChip(t *testing.T) {
	cfg := tinyMQA()
	cfg.ParallelBlock = false
	w := reference.NewWeights(cfg, 23)
	const batch, steps = 8, 4
	opts := Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch, Int8Weights: true}

	sharded, err := New(w, torus222(), opts, batch, 8)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, opts, batch, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := tokens(batch, steps)
	a := prefill(t, sharded, p, steps)
	b := prefill(t, solo, p, steps)
	// Not bit-identical (summation order differs across shards) but far
	// tighter than the int8-vs-float tolerance.
	if d := tensor.MaxAbsDiff(a, b); d > 1e-3 {
		t.Errorf("sharded int8 differs from single-chip int8 by %g", d)
	}
}

// Byte traffic must be identical across repeated identical steps
// (determinism of the communication schedule).
func TestTrafficDeterministic(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 29)
	eng, err := New(w, torus222(),
		Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	prefill(t, eng, tokens(8, 2), 2)
	last := make([]int, 8)

	eng.Mesh().ResetCounters()
	decode(t, eng, nil, last)
	first := eng.Mesh().BytesSent()
	eng.Mesh().ResetCounters()
	decode(t, eng, nil, last)
	second := eng.Mesh().BytesSent()
	if first != second {
		t.Errorf("decode traffic varied: %d then %d bytes", first, second)
	}
	if first == 0 {
		t.Error("decode moved no bytes on an 8-chip mesh")
	}
}

// Every chip computes identical full logits (the final all-gather
// replicates them); spot-check chips agree.
func TestAllChipsAgreeOnLogits(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 31)
	eng, err := New(w, torus222(),
		Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// forward() returns chip 0's logits; run reference for ground truth
	// and require chip 0 to match — combined with determinism this pins
	// the collective schedule. (Per-chip outputs are asserted equal inside
	// the engine by construction of the final all-gather.)
	ref := reference.New(w, 8, 8)
	p := tokens(8, 3)
	if d := tensor.MaxAbsDiff(ref.Prefill(p, 3), prefill(t, eng, p, 3)); d > 2e-3 {
		t.Errorf("logits differ by %g", d)
	}
}

// A KV overflow is rejected on the host rather than deadlocking the mesh:
// Step returns an error, and the DecodeSlotsInto wrapper panics with it.
func TestEngineCacheOverflowPanics(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 37)
	eng, err := New(w, torus222(),
		Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	prefill(t, eng, tokens(8, 3), 3)
	if _, err := eng.Step(nil, make([]int, 8), uniform(8, 1)); err == nil {
		t.Error("Step: expected an overflow error")
	}
	defer func() {
		if recover() == nil {
			t.Error("DecodeSlotsInto: expected overflow panic")
		}
	}()
	eng.DecodeSlotsInto(nil, make([]int, 8), nil)
}

func TestEngineTokenValidation(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 41)
	eng, err := New(w, torus222(),
		Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, pass := range map[string]struct{ toks, counts []int }{
		"wrong count":    {[]int{1, 2}, uniform(8, 1)},
		"short counts":   {[]int{1, 2}, []int{1, 1}},
		"negative count": {[]int{1, 2}, []int{3, -1, 0, 0, 0, 0, 0, 0}},
		"bad token":      {[]int{0, 0, 0, 0, 0, 0, 0, 9999}, uniform(8, 1)},
	} {
		if _, err := eng.Step(nil, pass.toks, pass.counts); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	if got := eng.SlotLen(0); got != 0 {
		t.Errorf("rejected passes moved slot 0 to length %d", got)
	}
}
