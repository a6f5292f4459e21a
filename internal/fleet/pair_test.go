package fleet

import (
	"testing"

	"esti/internal/engine"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

func tinyConfig() model.Config {
	return model.Config{
		Name: "tiny", Layers: 2, DModel: 64, DFF: 128,
		Heads: 8, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 64,
	}
}

// singleEngineGreedy is the unified baseline: one engine prefills and
// decodes the whole request on one slot.
func singleEngineGreedy(t *testing.T, e *engine.Engine, slot int, prompt []int, gen int) []int {
	t.Helper()
	logits := e.PrefillSlot(slot, prompt)
	tok := sampling.Greedy(logits.Row(logits.Rows - 1))
	out := []int{tok}
	last := make([]int, e.Batch())
	active := make([]bool, e.Batch())
	active[slot] = true
	var lg *tensor.Mat
	for len(out) < gen {
		last[slot] = tok
		lg = e.DecodeSlotsInto(lg, last, active)
		tok = sampling.Greedy(lg.Row(slot))
		out = append(out, tok)
	}
	return out
}

// The fleet's executable contract: an EnginePair — prefill on one engine,
// KV handoff, decode on another — generates exactly the tokens a single
// engine would, in float and int8 KV modes.
func TestEnginePairTokenExact(t *testing.T) {
	cfg := tinyConfig()
	const batch, gen, maxLen = 8, 16, 48
	prompt := []int{5, 18, 31, 44, 57, 6}
	w := reference.NewWeights(cfg, 42)
	torus := hardware.Torus{X: 2, Y: 2, Z: 2}
	for _, int8kv := range []bool{false, true} {
		name := "float"
		if int8kv {
			name = "int8kv"
		}
		t.Run(name, func(t *testing.T) {
			opts := engine.Options{
				FFN:     partition.FFN2DWeightStationary,
				Attn:    partition.AttnShardBatch,
				KVDType: model.BF16,
			}
			if int8kv {
				opts.KVDType = model.Int8
			}
			mk := func() *engine.Engine {
				e, err := engine.New(w, torus, opts, batch, maxLen)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			base := mk()
			want := singleEngineGreedy(t, base, 1, prompt, gen)

			pair := &EnginePair{Prefill: mk(), Decode: mk()}
			got, err := pair.Generate(1, 3, prompt, gen)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != gen {
				t.Fatalf("pair generated %d/%d tokens", len(got), gen)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("token %d: pair %d vs unified %d\nwant %v\ngot  %v",
						i, got[i], want[i], want, got)
				}
			}
			if pair.HandoffBytes <= 0 {
				t.Error("pair moved no KV bytes")
			}
			// The released slots are reusable: a second request through the
			// same pair must also match.
			want2 := singleEngineGreedy(t, mk(), 0, prompt[:4], 8)
			got2, err := pair.Generate(0, 0, prompt[:4], 8)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want2 {
				if got2[i] != want2[i] {
					t.Fatalf("second request token %d: pair %d vs unified %d", i, got2[i], want2[i])
				}
			}
		})
	}
}

// The recovery contract: a decode-side failure — mid-handoff or after some
// decode steps — followed by a checkpoint re-import and token replay yields
// exactly the tokens of a failure-free run, in float and int8 KV modes.
func TestEnginePairRecoveryTokenExact(t *testing.T) {
	cfg := tinyConfig()
	const batch, gen, maxLen = 8, 16, 48
	prompt := []int{5, 18, 31, 44, 57, 6}
	w := reference.NewWeights(cfg, 42)
	torus := hardware.Torus{X: 2, Y: 2, Z: 2}
	for _, int8kv := range []bool{false, true} {
		name := "float"
		if int8kv {
			name = "int8kv"
		}
		t.Run(name, func(t *testing.T) {
			opts := engine.Options{
				FFN:     partition.FFN2DWeightStationary,
				Attn:    partition.AttnShardBatch,
				KVDType: model.BF16,
			}
			if int8kv {
				opts.KVDType = model.Int8
			}
			mk := func() *engine.Engine {
				e, err := engine.New(w, torus, opts, batch, maxLen)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			want := singleEngineGreedy(t, mk(), 1, prompt, gen)

			// failAfter 0 is the mid-handoff crash (KV imported, no decode
			// step ran); 5 loses five generated positions that the replay
			// must rebuild.
			for _, failAfter := range []int{0, 5} {
				pair := &EnginePair{Prefill: mk(), Decode: mk()}
				got, err := pair.GenerateWithFailure(1, 3, 6, prompt, gen, failAfter)
				if err != nil {
					t.Fatalf("failAfter %d: %v", failAfter, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("failAfter %d token %d: recovered %d vs unified %d\nwant %v\ngot  %v",
							failAfter, i, got[i], want[i], want, got)
					}
				}
				if pair.Failures != 1 {
					t.Errorf("failAfter %d: Failures = %d, want 1", failAfter, pair.Failures)
				}
				if pair.RecoveredTokens != failAfter {
					t.Errorf("failAfter %d: RecoveredTokens = %d", failAfter, pair.RecoveredTokens)
				}
				// The checkpoint crossed the wire twice.
				single := &EnginePair{Prefill: mk(), Decode: mk()}
				if _, err := single.Generate(1, 3, prompt, gen); err != nil {
					t.Fatal(err)
				}
				if pair.HandoffBytes != 2*single.HandoffBytes {
					t.Errorf("failAfter %d: HandoffBytes = %d, want 2×%d",
						failAfter, pair.HandoffBytes, single.HandoffBytes)
				}
				// Recovery may land on the same slot the failed attempt used.
				pair2 := &EnginePair{Prefill: mk(), Decode: mk()}
				got2, err := pair2.GenerateWithFailure(1, 3, 3, prompt, gen, failAfter)
				if err != nil {
					t.Fatalf("failAfter %d same-slot: %v", failAfter, err)
				}
				for i := range want {
					if got2[i] != want[i] {
						t.Fatalf("failAfter %d same-slot token %d: %d vs %d", failAfter, i, got2[i], want[i])
					}
				}
			}
		})
	}
}

func TestEnginePairRecoveryErrors(t *testing.T) {
	cfg := tinyConfig()
	w := reference.NewWeights(cfg, 9)
	opts := engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}
	mk := func() *engine.Engine {
		e, err := engine.New(w, hardware.Torus{X: 2, Y: 1, Z: 1}, opts, 4, 32)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	pair := &EnginePair{Prefill: mk(), Decode: mk()}
	if _, err := pair.GenerateWithFailure(0, 1, 2, []int{1, cfg.Vocab}, 8, 0); err == nil {
		t.Error("out-of-vocab prompt token should fail")
	}
	if _, err := pair.GenerateWithFailure(0, 1, 4, []int{1, 2}, 8, 0); err == nil {
		t.Error("out-of-range recovery slot should fail")
	}
	if _, err := pair.GenerateWithFailure(0, 1, 2, nil, 8, 0); err == nil {
		t.Error("empty prompt should fail")
	}
	if _, err := pair.GenerateWithFailure(0, 1, 2, []int{1, 2}, 0, 0); err == nil {
		t.Error("gen 0 should fail")
	}
	if _, err := pair.GenerateWithFailure(0, 1, 2, []int{1, 2}, 8, 7); err == nil {
		t.Error("failAfter past gen-1 should fail (the request would finish before the crash)")
	}
	if _, err := pair.GenerateWithFailure(0, 1, 2, []int{1, 2}, 8, -1); err == nil {
		t.Error("negative failAfter should fail")
	}
}

func TestEnginePairErrors(t *testing.T) {
	cfg := tinyConfig()
	w := reference.NewWeights(cfg, 9)
	mk := func(tr hardware.Torus, o engine.Options) *engine.Engine {
		e, err := engine.New(w, tr, o, 8, 32)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Head-sharded KV is replicated per chip, so a snapshot from an 8-chip
	// mesh cannot land on a 2-chip one (batch-sharded snapshots, by
	// contrast, are a single owner block and do cross meshes).
	opts := engine.Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}
	pair := &EnginePair{
		Prefill: mk(hardware.Torus{X: 2, Y: 2, Z: 2}, opts),
		Decode:  mk(hardware.Torus{X: 2, Y: 1, Z: 1}, opts),
	}
	if _, err := pair.Generate(0, 0, []int{1, 2, 3}, 4); err == nil {
		t.Error("cross-mesh handoff should fail")
	}
	if _, err := pair.Generate(0, 0, []int{1, 2, 3}, 0); err == nil {
		t.Error("gen 0 should fail")
	}
	if _, err := pair.Generate(0, 0, nil, 4); err == nil {
		t.Error("empty prompt should fail")
	}

	same := &EnginePair{Prefill: mk(hardware.Torus{X: 2, Y: 1, Z: 1}, opts), Decode: mk(hardware.Torus{X: 2, Y: 1, Z: 1}, opts)}
	if _, err := same.Generate(0, 0, []int{1, cfg.Vocab}, 4); err == nil {
		t.Error("out-of-vocab prompt token should fail")
	}
	for _, slots := range [][2]int{{8, 0}, {-1, 0}, {0, 8}} {
		if _, err := same.Generate(slots[0], slots[1], []int{1, 2, 3}, 4); err == nil {
			t.Errorf("prefill slot %d, decode slot %d should fail", slots[0], slots[1])
		}
	}
	if _, err := same.Generate(0, 0, []int{1, 2, 3}, 4); err != nil {
		t.Errorf("rejected requests left the pair unusable: %v", err)
	}
}
