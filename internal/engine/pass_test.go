package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/tensor"
)

// A rejected call must leave the session usable. A pass is checked on the
// host before any chip runs: were the slot's owner to panic mid-pass on a
// batch-sharded mesh, it would stop minting collective ids while its peers
// carried on, and the next pass would block forever (run with -timeout: it
// hangs rather than fails if the check moves back onto the chips). After
// each recovered panic every chip's op counter agrees, and after all of
// them a released slot admits a fresh prompt token-exactly against the
// batch-1 reference.
func TestRejectedCallLeavesMeshUsable(t *testing.T) {
	cfg := tinyMQA()
	const batch, maxLen, slot = 8, 4, 3
	w := reference.NewWeights(cfg, 23)
	for _, lay := range []struct {
		name string
		opts Options
	}{
		{"2d-batch", Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}},
		{"1d-heads-streamed", Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads, Streamed: true}},
		{"wg-xyz", wgOpts()},
	} {
		t.Run(lay.name, func(t *testing.T) {
			eng, err := New(w, torus222(), lay.opts, batch, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			rejected := func(what string, call func()) {
				t.Helper()
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: expected a panic", what)
						}
					}()
					call()
				}()
				for r, st := range eng.chips {
					if st.opID != eng.chips[0].opID {
						t.Fatalf("%s: chip %d minted %d collective ids, chip 0 %d", what, r, st.opID, eng.chips[0].opID)
					}
				}
			}
			last := make([]int, batch)
			active := make([]bool, batch)
			active[slot] = true

			eng.PrefillSlot(slot, []int{1, 2, 3})
			rejected("PrefillSlot overflow", func() { eng.PrefillSlot(slot, []int{4, 5, 6}) })
			eng.DecodeSlots(last, active) // fills the slot
			rejected("DecodeSlots overflow", func() { eng.DecodeSlots(last, active) })
			rejected("PrefillSlot bad token", func() { eng.PrefillSlot(5, []int{1, cfg.Vocab}) })
			last[slot] = -1
			rejected("DecodeSlots bad token", func() { eng.DecodeSlots(last, active) })
			if got := eng.SlotLen(slot); got != maxLen {
				t.Fatalf("rejected calls moved slot %d to length %d, want %d", slot, got, maxLen)
			}

			eng.ReleaseSlot(slot)
			prompt := []int{7, 11}
			want := reference.New(w, 1, maxLen).Generate(prompt, len(prompt), 3)[0]
			got := greedySlot(t, eng, slot, prompt, 3)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("after recovery: tokens %v, batch-1 reference %v", got, want)
				}
			}
		})
	}
}

// The identity the single layout plan rests on: 1D weight-stationary is 2D
// weight-stationary with a trivial inner axis. Over generated
// configurations, FFN1DWeightStationary on a torus of n chips and
// FFN2DWeightStationary on a 1×n×1 torus produce bit-equal prefill and
// decode logits and put the same bytes and messages on the wire.
func TestFFN1DIs2DWithTrivialInnerAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	flip := func() bool { return rng.Intn(2) == 1 }
	toruses := []hardware.Torus{{X: 2, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 1}, {X: 2, Y: 2, Z: 2}}
	const batch, steps, maxLen = 8, 3, 8
	for i := 0; i < 24; i++ {
		tr := toruses[i%len(toruses)]
		cfg := model.Config{
			Name: "gen", Layers: 2, DModel: 64, DFF: 128,
			Heads: 8, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
			FFNKind: model.GELU, ParallelBlock: flip(), Vocab: 64,
		}
		if flip() {
			cfg.KVHeads, cfg.Attn = cfg.Heads, model.Multihead
		}
		if flip() {
			cfg.FFNKind = model.SwiGLU
		}
		opts := Options{Attn: partition.AttnShardHeads, Int8Weights: flip(), Streamed: flip()}
		if flip() {
			opts.Attn = partition.AttnShardBatch
		}
		if flip() {
			opts.WireDType = model.Int8
		}
		name := fmt.Sprintf("%d-chips-%dkv-%v-parallel=%v-%+v", tr.Chips(), cfg.KVHeads, cfg.FFNKind, cfg.ParallelBlock, opts)

		w := reference.NewWeights(cfg, int64(100+i))
		run := func(ffn partition.FFNLayout, tr hardware.Torus) (logits []*tensor.Mat, bytes, msgs int64) {
			opts.FFN = ffn
			eng, err := New(w, tr, opts, batch, maxLen)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			logits = append(logits, eng.Prefill(tokens(batch, steps), steps))
			last := make([]int, batch)
			for g := 0; g < 2; g++ {
				for s := range last {
					last[s] = argmaxRow(logits[g], (s+1)*logits[g].Rows/batch-1)
				}
				logits = append(logits, eng.Decode(last))
			}
			return logits, eng.Mesh().BytesSent(), eng.Mesh().MessagesSent()
		}
		l1, b1, m1 := run(partition.FFN1DWeightStationary, tr)
		l2, b2, m2 := run(partition.FFN2DWeightStationary, hardware.Torus{X: 1, Y: tr.Chips(), Z: 1})
		if b1 != b2 || m1 != m2 {
			t.Errorf("%s: 1D sent %d B in %d messages, 2D over 1×n×1 %d B in %d", name, b1, m1, b2, m2)
		}
		for p := range l1 {
			for j, v := range l1[p].Data {
				if math.Float32bits(v) != math.Float32bits(l2[p].Data[j]) {
					t.Fatalf("%s: pass %d logit %d: 1D %g, 2D over 1×n×1 %g", name, p, j, v, l2[p].Data[j])
				}
			}
		}
	}
}

// Admission runs the pass body that decode runs, so on one chip a warm
// PrefillSlot allocates only the logits it returns.
func TestPrefillSlotSingleChipAllocatesOnlyResult(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	cfg := ciConfig()
	eng, err := New(reference.NewWeights(cfg, 7), hardware.Torus{X: 1, Y: 1, Z: 1}, Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
	}, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	prompt := make([]int, 16)
	var logits *tensor.Mat
	admit := func() {
		logits = eng.PrefillSlot(1, prompt)
		eng.ReleaseSlot(1)
	}
	for i := 0; i < 3; i++ {
		admit()
	}
	result := testing.AllocsPerRun(20, func() { logits.Clone() })
	if got := testing.AllocsPerRun(20, admit); got != result {
		t.Errorf("a warm single-chip PrefillSlot allocates %v times, its result alone %v", got, result)
	}
}
