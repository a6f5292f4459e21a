package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
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
						r := recover()
						if msg, _ := r.(string); !strings.HasPrefix(msg, "engine:") {
							t.Errorf("%s: recovered %v, want an engine: panic", what, r)
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

			rejected("Prefill of no steps", func() { eng.Prefill(nil, 0) })
			eng.PrefillSlot(slot, []int{1, 2, 3})
			rejected("PrefillSlot overflow", func() { eng.PrefillSlot(slot, []int{4, 5, 6}) })
			eng.DecodeSlotsInto(nil, last, active) // fills the slot
			rejected("DecodeSlotsInto overflow", func() { eng.DecodeSlotsInto(nil, last, active) })
			rejected("PrefillSlot bad token", func() { eng.PrefillSlot(5, []int{1, cfg.Vocab}) })
			last[slot] = -1
			rejected("DecodeSlotsInto bad token", func() { eng.DecodeSlotsInto(nil, last, active) })
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
					last[s] = sampling.Greedy(logits[g].Row((s+1)*logits[g].Rows/batch - 1))
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

// Weight-gathered XYZ is the one-chip program run on each chip's sequences:
// its activation and FFN groups are empty, so once a layer's weights are
// staged a chip computes what a one-chip 2D weight-stationary engine
// computes for the same sequences. A prefill and three decode steps give
// bit-equal logits on every mesh shape, for the parallel-block SwiGLU
// multiquery model and the serial-block GELU multihead one.
func TestWGIsOneChipProgram(t *testing.T) {
	const batch, steps, maxLen = 8, 3, 8
	for _, cfg := range []model.Config{tinyMQA(), tinyMHA()} {
		w := reference.NewWeights(cfg, 61)
		run := func(opts Options, tr hardware.Torus) (logits []*tensor.Mat) {
			eng, err := New(w, tr, opts, batch, maxLen)
			if err != nil {
				t.Fatalf("%s on %v: %v", cfg.Name, tr, err)
			}
			logits = append(logits, eng.Prefill(tokens(batch, steps), steps))
			last := make([]int, batch)
			for g := 0; g < 3; g++ {
				for s := range last {
					last[s] = sampling.Greedy(logits[g].Row((s+1)*logits[g].Rows/batch - 1))
				}
				logits = append(logits, eng.Decode(last))
			}
			return logits
		}
		want := run(Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}, hardware.Torus{X: 1, Y: 1, Z: 1})
		for _, tr := range []hardware.Torus{{X: 2, Y: 2, Z: 2}, {X: 8, Y: 1, Z: 1}, {X: 1, Y: 4, Z: 2}} {
			got := run(wgOpts(), tr)
			for p := range want {
				for j, v := range want[p].Data {
					if math.Float32bits(v) != math.Float32bits(got[p].Data[j]) {
						t.Fatalf("%s on %v: pass %d logit %d: weight-gathered %g, one chip %g",
							cfg.Name, tr, p, j, got[p].Data[j], v)
					}
				}
			}
		}
	}
}

// A pass's whole wire schedule is a closed form: every chip sends the same
// messages, and their count and sizes follow from the layout alone. Per
// layer a block makes one input gather (gatherNorm), its attention
// collectives and its FFN's own, and the pass ends with the final norm's
// gather and the logit gather. On 2×2×2 2D batch-sharded that is 34
// messages a chip a layer plus 14; on 2×2×1 1D head-sharded streamed, 9
// plus 6. Checked for a decode step and an admission of an odd-length
// prompt, on both wire formats, to the message and the byte.
func TestPassWireSchedule(t *testing.T) {
	cfg := tinyMQA()
	e, f, v, hd := cfg.DModel, cfg.DFF, cfg.Vocab, cfg.Heads*cfg.HeadDim
	const batch, promptLen = 8, 5
	// sends is one chip's share of a collective: count messages of elems
	// elements each, with rows int8 scales apiece (0 for one chunk scale:
	// only the residual gathers scale each token's row).
	type sends struct{ count, elems, rows int }
	cases := []struct {
		name  string
		tr    hardware.Torus
		opts  Options
		layer func(tok int, admission bool) []sends
		final func(tok int) []sends
	}{
		{"2d-batch", torus222(), Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch},
			func(tok int, admission bool) []sends {
				s := []sends{{7, tok * e / 8, tok}} // the block's input gather over XYZ
				if admission {
					// The queries gathered, the slot owner's output all-to-all.
					s = append(s, sends{7, tok * hd / 8, 0}, sends{7, tok * hd / 8, 0})
				} else {
					s = append(s, sends{14, tok / 8 * hd / 8, 0}) // two all-to-alls
				}
				return append(s,
					sends{7, tok * e / 8, 0}, // attention output reduce-scatter over XYZ
					sends{2, tok * f / 8, 0}, // up and gate reduce-scatters over X
					sends{1, tok * f / 8, 0}, // the hidden gather over X
					sends{3, tok * e / 8, 0}) // the output reduce-scatter over YZ
			},
			func(tok int) []sends { return []sends{{7, tok * e / 8, tok}, {7, tok * v / 8, 0}} }},
		{"1d-heads-streamed", hardware.Torus{X: 2, Y: 2, Z: 1},
			Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads, Streamed: true},
			func(tok int, _ bool) []sends {
				// Input gather, then attention and FFN output reduce-scatters.
				return []sends{{3, tok * e / 4, tok}, {6, tok * e / 4, 0}}
			},
			func(tok int) []sends { return []sends{{3, tok * e / 4, tok}, {3, tok * v / 4, 0}} }},
	}
	w := reference.NewWeights(cfg, 5)
	for _, tc := range cases {
		for _, wire := range []model.DType{model.FP32, model.Int8} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, wire), func(t *testing.T) {
				opts := tc.opts
				opts.WireDType = wire
				eng, err := New(w, tc.tr, opts, batch, 16)
				if err != nil {
					t.Fatal(err)
				}
				check := func(what string, tok int, admission bool, run func()) {
					t.Helper()
					var msgs, bytes int64
					all := tc.final(tok)
					for l := 0; l < cfg.Layers; l++ {
						all = append(all, tc.layer(tok, admission)...)
					}
					for _, s := range all {
						per := 4 * s.elems
						if wire == model.Int8 {
							per = s.elems + 4*max(s.rows, 1) // a byte an element, and the scales
						}
						msgs += int64(s.count)
						bytes += int64(s.count * per)
					}
					n := int64(tc.tr.Chips())
					eng.Mesh().ResetCounters()
					run()
					m := eng.Mesh()
					if m.MessagesSent() != n*msgs || m.BytesSent() != n*bytes {
						t.Errorf("%s: %d messages, %d B; want %d, %d", what, m.MessagesSent(), m.BytesSent(), n*msgs, n*bytes)
					}
				}
				eng.Prefill(tokens(batch, 2), 2)
				check("decode step", batch, false, func() { eng.Decode(tokens(batch, 1)) })
				eng.ReleaseSlot(3)
				check("admission", promptLen, true, func() { eng.PrefillSlot(3, tokens(1, promptLen)) })
			})
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
