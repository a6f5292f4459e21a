package engine

import (
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/tensor"
)

// The decode hot path's headline contract: once warm, a decode iteration
// through DecodeSlotsInto/DecodeInto performs zero heap allocations. Every
// temporary comes from per-chip arenas, attention reads the KV cache
// through zero-copy views with a pre-sized softmax scratch, the SPMD body
// is a closure bound at construction, and the caller reuses the logits
// buffer. The single-chip mesh is the configuration where the whole
// program is chip-local (a multi-chip mesh adds goroutine scheduling and
// wire copies that are part of the simulation, not the compute path).
func TestDecodeSteadyStateZeroAllocs(t *testing.T) {
	// Force serial kernels so the worker pool's task dispatch (which does
	// allocate) can't trigger on machines where the matmuls clear the
	// parallel threshold.
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	cfg := model.Config{
		Name: "alloc", Layers: 2, DModel: 32, DFF: 64,
		Heads: 4, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 32,
	}
	const batch, maxLen = 4, 512
	w := reference.NewWeights(cfg, 7)
	eng, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
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
	active := []bool{true, false, true, true} // exercise the masked path too
	logits := tensor.New(batch, cfg.Vocab)

	// Warm the arenas and scratch through both hot entry points.
	for i := 0; i < 8; i++ {
		eng.DecodeInto(logits, last)
		eng.DecodeSlotsInto(logits, last, active)
	}

	if avg := testing.AllocsPerRun(100, func() {
		eng.DecodeInto(logits, last)
	}); avg != 0 {
		t.Errorf("DecodeInto allocates %v times per steady-state iteration, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		eng.DecodeSlotsInto(logits, last, active)
	}); avg != 0 {
		t.Errorf("DecodeSlotsInto allocates %v times per steady-state iteration, want 0", avg)
	}
}

// The same assertion for the serial-block (non-parallel) formulation and
// head-sharded attention — the other chip-local decode shape.
func TestDecodeZeroAllocsHeadShardedSerialBlock(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	cfg := model.Config{
		Name: "alloc2", Layers: 2, DModel: 32, DFF: 64,
		Heads: 4, HeadDim: 8, KVHeads: 4, Attn: model.Multihead,
		FFNKind: model.GELU, ParallelBlock: false, Vocab: 32,
	}
	const batch, maxLen = 2, 256
	w := reference.NewWeights(cfg, 9)
	eng, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, Options{
		FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads,
	}, batch, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	eng.Prefill([]int{1, 2, 3, 4}, 2)

	last := make([]int, batch)
	logits := tensor.New(batch, cfg.Vocab)
	for i := 0; i < 8; i++ {
		eng.DecodeInto(logits, last)
	}
	if avg := testing.AllocsPerRun(100, func() {
		eng.DecodeInto(logits, last)
	}); avg != 0 {
		t.Errorf("head-sharded DecodeInto allocates %v times per iteration, want 0", avg)
	}
}

// Admission on a batch-sharded mesh: in each layer the chips that do not own
// the slot take part in the output all-to-all with all-zero shards. Those
// come from the chip's arena and shard table, not the heap — they used to
// cost every non-owner chip n+1 allocations a layer, 63 a layer on this
// mesh on top of the 97 the collectives' result tables and messages make,
// which the per-layer slope of a warm PrefillSlot shows.
func TestPrefillSlotBatchShardedAllocsPerLayer(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	allocs := func(layers int) float64 {
		cfg := ciConfig()
		cfg.Layers = layers
		eng, err := New(reference.NewWeights(cfg, 7), hardware.Torus{X: 2, Y: 2, Z: 2}, Options{
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		}, 8, 32)
		if err != nil {
			t.Fatal(err)
		}
		prompt := make([]int, 16)
		admit := func() {
			eng.PrefillSlot(0, prompt)
			eng.ReleaseSlot(0)
		}
		for i := 0; i < 3; i++ {
			admit()
		}
		return testing.AllocsPerRun(20, admit)
	}
	const limit = 130 // between the 97 of today and the 160 with heap-allocated zero shards
	if perLayer := (allocs(4) - allocs(2)) / 2; perLayer > limit {
		t.Errorf("a warm PrefillSlot allocates %.0f times per layer on 8 chips, want at most %d", perLayer, limit)
	}
}
