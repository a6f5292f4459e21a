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

// greedyDecode runs greedy decode steps on slot alone, each feeding the
// last token of out and appending the argmax, until out holds n tokens.
func greedyDecode(e *engine.Engine, slot int, out []int, n int) []int {
	last := make([]int, e.Batch())
	active := make([]bool, e.Batch())
	active[slot] = true
	var lg *tensor.Mat
	for len(out) < n {
		last[slot] = out[len(out)-1]
		lg = e.DecodeSlotsInto(lg, last, active)
		out = append(out, sampling.Greedy(lg.Row(slot)))
	}
	return out
}

// singleEngineGreedy is the unified baseline: one engine prefills and
// decodes the whole request on one slot.
func singleEngineGreedy(e *engine.Engine, slot int, prompt []int, gen int) []int {
	logits := e.PrefillSlot(slot, prompt)
	first := sampling.Greedy(logits.Row(logits.Rows - 1))
	out := greedyDecode(e, slot, []int{first}, gen)
	e.ReleaseSlot(slot)
	return out
}

// pairGreedy is one request through a disaggregated engine pair, the path
// a prefill-pool replica and a decode-pool replica take in the simulation:
// prefill on pre's prefillSlot, export the slot's KV and release the slot,
// import the snapshot into dec's decodeSlot, and decode there until gen
// tokens exist (the first comes from the prefill logits). It returns the
// tokens and the snapshot's wire bytes; both slots end released.
func pairGreedy(t *testing.T, pre, dec *engine.Engine, prefillSlot, decodeSlot int, prompt []int, gen int) ([]int, int) {
	t.Helper()
	logits := pre.PrefillSlot(prefillSlot, prompt)
	first := sampling.Greedy(logits.Row(logits.Rows - 1))
	kv, err := pre.ExportSlotKV(prefillSlot)
	if err != nil {
		t.Fatal(err)
	}
	pre.ReleaseSlot(prefillSlot)
	if err := dec.ImportSlotKV(decodeSlot, kv); err != nil {
		t.Fatal(err)
	}
	out := greedyDecode(dec, decodeSlot, []int{first}, gen)
	dec.ReleaseSlot(decodeSlot)
	return out, kv.Bytes()
}

// The disaggregated pools' executable contract at the token level: an
// engine pair — prefill on one engine, KV handoff, decode on another —
// generates exactly the tokens a single engine would, in float and int8 KV
// modes, and the slots it released serve a second request through the
// same pair just as exactly. engine.TestHandoffTokenExact holds the
// logits of one handoff bit for bit; this holds whole requests and slot
// reuse across the pair.
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
			want := singleEngineGreedy(mk(), 1, prompt, gen)

			pre, dec := mk(), mk()
			got, bytes := pairGreedy(t, pre, dec, 1, 3, prompt, gen)
			if len(got) != gen {
				t.Fatalf("pair generated %d/%d tokens", len(got), gen)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("token %d: pair %d vs unified %d\nwant %v\ngot  %v",
						i, got[i], want[i], want, got)
				}
			}
			if bytes <= 0 {
				t.Error("pair moved no KV bytes")
			}
			// The released slots are reusable: a second request through the
			// same pair must also match.
			want2 := singleEngineGreedy(mk(), 0, prompt[:4], 8)
			got2, _ := pairGreedy(t, pre, dec, 0, 0, prompt[:4], 8)
			for i := range want2 {
				if got2[i] != want2[i] {
					t.Fatalf("second request token %d: pair %d vs unified %d", i, got2[i], want2[i])
				}
			}
		})
	}
}
