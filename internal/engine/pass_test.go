package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"esti/internal/commcost"
	"esti/internal/hardware"
	"esti/internal/mesh"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// A rejected call must leave the session usable. A pass is checked on the
// host before any chip runs: were the slot's owner to panic mid-pass on a
// batch-sharded mesh, the chips past their last collective with it could
// commit the pass while the owner did not. After each recovered panic every
// chip's op counter agrees, and after all of them a released slot admits a
// fresh prompt token-exactly against the batch-1 reference.
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
			// rejected runs a call that must fail: a Step returns its error,
			// a slot wrapper panics with it.
			rejected := func(what string, call func() error) {
				t.Helper()
				var msg string
				func() {
					defer func() {
						if r := recover(); r != nil {
							msg, _ = r.(string)
						}
					}()
					if err := call(); err != nil {
						msg = err.Error()
					}
				}()
				if !strings.HasPrefix(msg, "engine:") {
					t.Errorf("%s: failed with %q, want an engine: error or panic", what, msg)
				}
				for r, st := range eng.chips {
					if st.opID != eng.chips[0].opID {
						t.Fatalf("%s: chip %d minted %d collective ids, chip 0 %d", what, r, st.opID, eng.chips[0].opID)
					}
				}
			}
			last := make([]int, batch)
			active := make([]bool, batch)
			active[slot] = true

			counts := make([]int, batch)
			counts[slot] = 1
			stepErr := func(toks, counts []int) func() error {
				return func() error { _, err := eng.Step(nil, toks, counts); return err }
			}
			rejected("Step of too few counts", stepErr(nil, counts[1:]))
			eng.PrefillSlot(slot, []int{1, 2, 3})
			rejected("PrefillSlot overflow", func() error { eng.PrefillSlot(slot, []int{4, 5, 6}); return nil })
			eng.DecodeSlotsInto(nil, last, active) // fills the slot
			rejected("DecodeSlotsInto overflow", func() error { eng.DecodeSlotsInto(nil, last, active); return nil })
			rejected("Step overflow", stepErr([]int{1}, counts))
			rejected("PrefillSlot bad token", func() error { eng.PrefillSlot(5, []int{1, cfg.Vocab}); return nil })
			last[slot] = -1
			rejected("DecodeSlotsInto bad token", func() error { eng.DecodeSlotsInto(nil, last, active); return nil })
			if got := eng.SlotLen(slot); got != maxLen {
				t.Fatalf("rejected calls moved slot %d to length %d, want %d", slot, got, maxLen)
			}

			eng.ReleaseSlot(slot)
			prompt := []int{7, 11}
			want := reference.New(w, 1, maxLen).Generate(prompt, len(prompt), 3)[0]
			got, _ := greedyLogits(eng, slot, prompt, 3)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("after recovery: tokens %v, batch-1 reference %v", got, want)
				}
			}
		})
	}
}

// A chip that panics inside a pass does not wedge the next one. Chip 3 of
// a batch-sharded 2D mesh panics as the pass starts, so its peers block on
// its first collective, are poisoned and abort before any of them commits:
// mesh.Run re-raises the panic and every slot keeps its length. The next
// Step, on tokens the faulted pass did not carry, must return within the
// deadline — it hung when each chip's collective ids ran on from where its
// aborted pass left them — with logits bit-equal to those of an engine that
// never faulted.
func TestChipPanicLeavesMeshUsable(t *testing.T) {
	cfg := tinyMQA()
	const batch, maxLen = 8, 8
	w := reference.NewWeights(cfg, 23)
	newEng := func() *Engine {
		e, err := New(w, torus222(), Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}, batch, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		prefill(t, e, tokens(batch, 2), 2)
		return e
	}
	faulted, fresh := newEng(), newEng()

	run := faulted.runFwd
	faulted.runFwd = func(c *mesh.Chip) {
		if c.Rank == 3 {
			panic("injected chip fault")
		}
		run(c)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a pass with a faulting chip returned without a panic")
			}
		}()
		faulted.Step(nil, []int{1, 2, 3, 4, 5, 6, 7, 8}, uniform(batch, 1))
	}()
	faulted.runFwd = run
	for s := 0; s < batch; s++ {
		if got := faulted.SlotLen(s); got != 2 {
			t.Fatalf("the faulted pass moved slot %d to length %d, want 2", s, got)
		}
	}

	next := []int{9, 10, 11, 12, 13, 14, 15, 16}
	done := make(chan *tensor.Mat, 1)
	go func() {
		logits, err := faulted.Step(nil, next, uniform(batch, 1))
		if err != nil {
			t.Error(err)
		}
		done <- logits
	}()
	var got *tensor.Mat
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the Step after a chip fault has not returned after 10 s")
	}
	if got == nil {
		return
	}
	want := step(t, fresh, nil, next, uniform(batch, 1))
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("logit %d after a chip fault is %g, %g on an engine that never faulted", i, got.Data[i], want.Data[i])
		}
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
			logits = append(logits, prefill(t, eng, tokens(batch, steps), steps))
			last := make([]int, batch)
			for g := 0; g < 2; g++ {
				for s := range last {
					last[s] = sampling.Greedy(logits[g].Row((s+1)*logits[g].Rows/batch - 1))
				}
				logits = append(logits, decode(t, eng, nil, last))
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
			logits = append(logits, prefill(t, eng, tokens(batch, steps), steps))
			last := make([]int, batch)
			for g := 0; g < 3; g++ {
				for s := range last {
					last[s] = sampling.Greedy(logits[g].Row((s+1)*logits[g].Rows/batch - 1))
				}
				logits = append(logits, decode(t, eng, nil, last))
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

// A pass's whole wire schedule is one closed form, built from one
// partition.PlanFFN per configuration: per layer, perf.ChipMessages — the
// ring steps of perf.CollectiveHops, with the 2·(n-1) direct messages of
// the all-to-alls in place of its diameter term — and the bytes commcost
// prices the
// block's collectives (BlockWireVolume and NormStatVolume, at the widths of
// BlockWidths with KVCopies of the K/V columns), the all-to-alls
// (AttnAllToAllWireVolume) and the weight gather; per pass, the final norm's
// gather and the logit gather. Generated over tori from one chip to
// 2×2×2; the 1D, 2D and weight-gathered layouts; head- and batch-sharded
// attention; barrier and streamed; parallel and serial blocks of multiquery
// and multihead models; both wire formats; and a decode step, an admission
// of an odd-length prompt and a ragged pass (a 5-token chunk, three decodes,
// four idle slots). Only the live rows travel, and the batch-sharded
// all-to-alls carry each chip's slots' rows to it and back, so the chips'
// shares differ; the mesh totals are the closed form, to the message and
// the byte.
func TestPassWireSchedule(t *testing.T) {
	const batch, promptLen = 8, 5
	tori := []hardware.Torus{{X: 1, Y: 1, Z: 1}, {X: 2, Y: 1, Z: 1}, {X: 1, Y: 2, Z: 2}, {X: 2, Y: 2, Z: 1}, {X: 2, Y: 2, Z: 2}}
	var models []model.Config
	for _, base := range []model.Config{tinyMQA(), tinyMHA()} {
		for _, parallel := range []bool{true, false} {
			cfg := base
			cfg.ParallelBlock = parallel
			models = append(models, cfg)
		}
	}
	type layout struct {
		name string
		opts Options
	}
	var layouts []layout
	for _, ffn := range []struct {
		name string
		l    partition.FFNLayout
	}{{"1d", partition.FFN1DWeightStationary}, {"2d", partition.FFN2DWeightStationary}, {"wg", partition.FFNWeightGatheredXYZ}} {
		for _, attn := range []partition.AttnLayout{partition.AttnShardHeads, partition.AttnShardBatch} {
			if ffn.l.WeightGathered() && attn != partition.AttnShardBatch {
				continue
			}
			for _, streamed := range []bool{false, true} {
				name := ffn.name + "-" + map[partition.AttnLayout]string{partition.AttnShardHeads: "heads", partition.AttnShardBatch: "batch"}[attn]
				if streamed {
					name += "-streamed"
				}
				layouts = append(layouts, layout{name, Options{FFN: ffn.l, Attn: attn, Streamed: streamed}})
			}
		}
	}
	for _, lay := range layouts {
		for _, wire := range []model.DType{model.FP32, model.Int8} {
			t.Run(fmt.Sprintf("%s/%v", lay.name, wire), func(t *testing.T) {
				for i, tr := range tori {
					cfg := models[i%len(models)]
					if lay.opts.Streamed {
						cfg = models[(i+1)%len(models)]
					}
					opts := lay.opts
					opts.WireDType = wire
					checkWireSchedule(t, cfg, tr, opts, batch, promptLen)
				}
			})
		}
	}
}

// checkWireSchedule runs TestPassWireSchedule's three passes on one
// configuration and checks each against the closed form.
func checkWireSchedule(t *testing.T, cfg model.Config, tr hardware.Torus, opts Options, batch, promptLen int) {
	t.Helper()
	name := fmt.Sprintf("%v %s parallel=%v", tr, cfg.Name, cfg.ParallelBlock)
	eng, err := New(reference.NewWeights(cfg, 5), tr, opts, batch, 16)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	plan := partition.PlanFFN(opts.FFN, tr)
	attn := partition.PlanAttn(opts.Attn, tr, cfg.Heads, cfg.KVHeads)
	n := tr.Chips()
	nAct := n / plan.GatherFactor()
	rowsWire, chunkWire := commcost.WireFP32, commcost.WireFP32
	if opts.WireDType == model.Int8 {
		rowsWire, chunkWire = commcost.WireInt8, commcost.WireInt8
	}
	e := float64(cfg.DModel)
	attnIn, ffnIn, attnOut, ffnOut := commcost.BlockWidths(cfg)
	kv := float64(2 * cfg.KVHeads * cfg.HeadDim)
	attnIn += float64(commcost.KVCopies(cfg, attn)-1) * kv
	sets := [][2]float64{{attnIn + ffnIn, attnOut + ffnOut}}
	if !cfg.ParallelBlock {
		sets = [][2]float64{{attnIn, attnOut}, {ffnIn, ffnOut}}
	}
	layerElems := e*(attnIn+ffnIn-float64(commcost.KVCopies(cfg, attn)-1)*kv) + (attnOut+ffnOut)*e

	msgs := perf.ChipMessages(plan, attn, cfg.ParallelBlock)
	want := func(tok int) (int64, int64) {
		tk := float64(tok)
		var bytes float64 // per chip, every chip alike but the all-to-alls
		for _, s := range sets {
			bytes += commcost.BlockWireVolume(plan, tk, e, s[0], s[1], rowsWire) + commcost.NormStatVolume(plan, tk)
		}
		bytes += commcost.AllGatherWireVolume(layerElems/float64(plan.GatherFactor()), plan.GatherFactor(), chunkWire)
		if nAct > 1 {
			bytes += commcost.AttnAllToAllWireVolume(attn, tk, cfg.HeadDim, chunkWire)
		}
		bytes *= float64(cfg.Layers)
		// The final norm's gather and the logit gather.
		bytes += tk*commcost.AllGatherWireVolume(e/float64(nAct), nAct, rowsWire) +
			commcost.AllGatherWireVolume(tk*float64(cfg.Vocab)/float64(nAct), nAct, chunkWire)
		return int64(n * (msgs*cfg.Layers + 2*(nAct-1))), int64(math.Round(float64(n) * bytes))
	}
	check := func(what string, counts []int, run func()) {
		t.Helper()
		tok := 0
		for _, c := range counts {
			tok += c
		}
		wantMsgs, wantBytes := want(tok)
		eng.Mesh().ResetCounters()
		run()
		m := eng.Mesh()
		if m.MessagesSent() != wantMsgs || m.BytesSent() != wantBytes {
			t.Errorf("%s, %s: %d messages, %d B; want %d, %d", name, what, m.MessagesSent(), m.BytesSent(), wantMsgs, wantBytes)
		}
	}
	prefill(t, eng, tokens(batch, 2), 2)
	check("decode step", uniform(batch, 1), func() { decode(t, eng, nil, tokens(batch, 1)) })
	eng.ReleaseSlot(3)
	admit := make([]int, batch)
	admit[3] = promptLen
	check("admission", admit, func() { eng.PrefillSlot(3, tokens(1, promptLen)) })
	eng.ReleaseSlot(1)
	ragged := []int{1, 5, 0, 0, 1, 0, 1, 0}
	check("ragged pass", ragged, func() { step(t, eng, nil, tokens(1, 8), ragged) })
}

// Admission runs the pass body that decode runs, so on one chip a warm
// PrefillSlot allocates only the logits it returns.
func TestPrefillSlotSingleChipAllocatesOnlyResult(t *testing.T) {
	// Two workers, so the 16-row projections split across the pool by rows
	// inside the measured admission (AllocsPerRun runs at GOMAXPROCS 1).
	defer tensor.SetWorkers(tensor.SetWorkers(2))
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
