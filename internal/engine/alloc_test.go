package engine

import (
	"runtime"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/tensor"
)

// The decode hot path's headline contract: once warm, a decode iteration
// through Step or DecodeSlotsInto performs zero heap allocations. Every
// temporary comes from per-chip arenas, attention reads the KV cache
// through zero-copy views with a pre-sized softmax scratch, the SPMD body
// is a closure bound at construction, and the caller reuses the logits
// buffer. The single-chip mesh is the configuration where the whole
// program is chip-local; on eight chips a step allocates only what an empty
// mesh.Run does, its goroutines and closures (the root package's
// TestEngineDecodeStepAllocs). The weight-gathered layout's per-layer
// gather runs here too, over a group of one, into staging weights
// allocated at construction.
func TestDecodeSteadyStateZeroAllocs(t *testing.T) {
	cfg := model.Config{
		Name: "alloc", Layers: 2, DModel: 32, DFF: 64,
		Heads: 4, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 32,
	}
	const batch, maxLen = 4, 512
	w := reference.NewWeights(cfg, 7)
	for _, ffn := range []partition.FFNLayout{partition.FFN2DWeightStationary, partition.FFNWeightGatheredXYZ} {
		eng, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, Options{
			FFN: ffn, Attn: partition.AttnShardBatch,
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
		active := []bool{true, false, true, true} // exercise the masked path too
		logits := tensor.New(batch, cfg.Vocab)

		// Warm the arenas and scratch through both hot entry points.
		for i := 0; i < 8; i++ {
			eng.Step(logits, last, ones)
			eng.DecodeSlotsInto(logits, last, active)
		}

		if avg := testing.AllocsPerRun(100, func() {
			eng.Step(logits, last, ones)
		}); avg != 0 {
			t.Errorf("%v: Step allocates %v times per steady-state iteration, want 0", ffn, avg)
		}
		if avg := testing.AllocsPerRun(100, func() {
			eng.DecodeSlotsInto(logits, last, active)
		}); avg != 0 {
			t.Errorf("%v: DecodeSlotsInto allocates %v times per steady-state iteration, want 0", ffn, avg)
		}
	}
}

// The same assertion for the serial-block (non-parallel) formulation and
// head-sharded attention — the other chip-local decode shape.
func TestDecodeZeroAllocsHeadShardedSerialBlock(t *testing.T) {
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
	prefill(t, eng, []int{1, 2, 3, 4}, 2)

	last, ones := make([]int, batch), uniform(batch, 1)
	logits := tensor.New(batch, cfg.Vocab)
	for i := 0; i < 8; i++ {
		eng.Step(logits, last, ones)
	}
	if avg := testing.AllocsPerRun(100, func() {
		eng.Step(logits, last, ones)
	}); avg != 0 {
		t.Errorf("head-sharded Step allocates %v times per iteration, want 0", avg)
	}
}

// Step's allocation contract on a ragged pass: a warm one-chip Step whose
// pass holds a prompt chunk, decodes and idle slots allocates nothing when
// the caller reuses dst — the offsets come from a buffer allocated at New,
// and an idle slot costs no row. The chunk's slot is released between
// passes so the pass repeats at a fixed depth.
func TestStepRaggedPassZeroAllocs(t *testing.T) {
	// Two workers, so the pass's seven-row in-projection splits across the
	// pool by strips inside the measured pass: AllocsPerRun runs at
	// GOMAXPROCS 1, where the pool would otherwise stay idle.
	defer tensor.SetWorkers(tensor.SetWorkers(2))
	cfg := ciConfig()
	const batch, maxLen = 4, 512
	w := reference.NewWeights(cfg, 7)
	for _, attn := range []partition.AttnLayout{partition.AttnShardBatch, partition.AttnShardHeads} {
		eng, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, Options{
			FFN: partition.FFN2DWeightStationary, Attn: attn,
		}, batch, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		counts := []int{1, 5, 0, 1} // a decode, a 5-token chunk, an idle slot, a decode
		toks := tokens(1, 7)
		logits := new(tensor.Mat)
		pass := func() {
			eng.ReleaseSlot(1)
			if _, err := eng.Step(logits, toks, counts); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			pass()
		}
		if logits.Rows != len(toks) {
			t.Fatalf("%v: %d logits rows for %d tokens", attn, logits.Rows, len(toks))
		}
		if avg := testing.AllocsPerRun(100, pass); avg != 0 {
			t.Errorf("%v: a warm ragged Step allocates %v times, want 0", attn, avg)
		}
	}
}

// The split attention walk keeps the zero-allocation contract: a warm
// long-context decode whose walk splits across two workers (the ciConfig
// decodes above sit below the split threshold) allocates nothing — the walk
// is a task bound at New, and each part's scratch is sized before its first
// walk — and starts no goroutine, the warm-up having started the pool.
func TestSplitWalkDecodeZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(2))
	e, last, _ := longContextEngine(t)
	logits := new(tensor.Mat)
	decode := func() { e.DecodeSlotsInto(logits, last, nil) }
	for i := 0; i < 4; i++ {
		decode()
	}
	before := runtime.NumGoroutine()
	if avg := testing.AllocsPerRun(50, decode); avg != 0 {
		t.Errorf("a warm split-walk decode allocates %v times, want 0", avg)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("split-walk decodes left %d goroutines, %d before", after, before)
	}
}

// A long-context prefill chunk keeps it too: a warm Step of four rows onto a
// slot past the 1,024-token document, whose walk the pool cuts by rows
// into two parts of one slot, allocates nothing — the scratch table grew
// to the pass's rows in the warm-up — and starts no goroutine.
func TestSplitWalkChunkZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(2))
	e, _, _ := longContextEngine(t)
	const chunk = 4
	toks := make([]int, chunk)
	counts := make([]int, e.batch)
	counts[0] = chunk
	logits := new(tensor.Mat)
	pass := func() {
		if _, err := e.Step(logits, toks, counts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		pass()
	}
	before := runtime.NumGoroutine()
	if avg := testing.AllocsPerRun(20, pass); avg != 0 {
		t.Errorf("a warm split-walk chunk Step allocates %v times, want 0", avg)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("split-walk chunk Steps left %d goroutines, %d before", after, before)
	}
}

// Admission on a batch-sharded mesh: in each layer the chips that do not own
// the slot take part in the output all-to-all with all-zero shards. Those
// come from the chip's arena and shard table, not the heap — they used to
// cost every non-owner chip n+1 allocations a layer, 63 a layer on this
// mesh on top of the 97 the collectives' result tables and messages make,
// which the per-layer slope of a warm PrefillSlot shows.
func TestPrefillSlotBatchShardedAllocsPerLayer(t *testing.T) {
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

// A weight-gathered decode step stages each layer's weights into buffers
// allocated at construction, so per layer it allocates no more than the 2D
// weight-stationary step on the same mesh — what the collectives and their
// messages cost — where it once allocated every layer's full weights again
// (2,627 allocations a step at two layers).
func TestWGDecodeAllocsPerLayer(t *testing.T) {
	perLayer := func(ffn partition.FFNLayout) float64 {
		allocs := func(layers int) float64 {
			cfg := ciConfig()
			cfg.Layers = layers
			eng, err := New(reference.NewWeights(cfg, 7), torus222(), Options{
				FFN: ffn, Attn: partition.AttnShardBatch,
			}, 8, 64)
			if err != nil {
				t.Fatal(err)
			}
			prefill(t, eng, tokens(8, 4), 4)
			last, ones := make([]int, 8), uniform(8, 1)
			logits := tensor.New(8, cfg.Vocab)
			step := func() { eng.Step(logits, last, ones) }
			for i := 0; i < 3; i++ {
				step()
			}
			return testing.AllocsPerRun(20, step)
		}
		return (allocs(4) - allocs(2)) / 2
	}
	ws, wg := perLayer(partition.FFN2DWeightStationary), perLayer(partition.FFNWeightGatheredXYZ)
	if wg > ws {
		t.Errorf("a warm weight-gathered decode step allocates %.0f times per layer on 8 chips, 2D weight-stationary %.0f", wg, ws)
	}
}
