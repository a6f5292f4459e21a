package engine

import (
	"fmt"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// admission schedules one request: at iteration `iter`, a prompt of
// `promptLen` tokens enters slot `slot` and then decodes for `decodes`
// further steps before completing and freeing the slot.
type admission struct {
	iter      int
	slot      int
	promptLen int
	decodes   int
}

// continuousScript is a mixed-length, interleaved workload: requests of
// different prompt lengths arrive at different iterations, finish at
// different times, and slot 1 is reused by a later request mid-stream while
// its neighbors are still decoding.
func continuousScript() []admission {
	return []admission{
		{iter: 0, slot: 0, promptLen: 3, decodes: 6},
		{iter: 0, slot: 1, promptLen: 5, decodes: 1},
		{iter: 2, slot: 2, promptLen: 2, decodes: 4},
		{iter: 3, slot: 1, promptLen: 4, decodes: 3}, // reuses freed slot 1
		{iter: 4, slot: 7, promptLen: 6, decodes: 2},
	}
}

// checkContinuousAgainstReference drives the engine through interleaved
// PrefillSlot admissions and variable-length DecodeSlotsInto steps, comparing
// every logit row against an independent batch-1 reference model per
// request. This is the engine-level contract of continuous batching: a
// batch whose sequences sit at different KV depths, with slots freed and
// re-admitted mid-stream, must be numerically indistinguishable from
// serving each request alone.
func checkContinuousAgainstReference(t *testing.T, cfg model.Config, opts Options) {
	t.Helper()
	const batch, maxLen = 8, 16
	w := reference.NewWeights(cfg, 42)
	eng, err := New(w, torus222(), opts, batch, maxLen)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}

	refs := make([]*reference.Model, batch)
	active := make([]bool, batch)
	last := make([]int, batch)
	remaining := make([]int, batch)

	script := continuousScript()
	prompt := func(n, seed int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = (i*13 + seed*7 + 5) % cfg.Vocab
		}
		return p
	}

	maxIter := 0
	for _, a := range script {
		if end := a.iter + a.decodes; end > maxIter {
			maxIter = end
		}
	}

	for iter := 0; iter <= maxIter; iter++ {
		// Admissions scheduled for this iteration.
		for ai, a := range script {
			if a.iter != iter {
				continue
			}
			if active[a.slot] {
				t.Fatalf("script error: slot %d still active at iter %d", a.slot, iter)
			}
			p := prompt(a.promptLen, ai)
			refs[a.slot] = reference.New(w, 1, maxLen)
			refL := refs[a.slot].Prefill(p, a.promptLen)
			engL := eng.PrefillSlot(a.slot, p)
			assertClose(t, fmt.Sprintf("iter %d: slot %d admission", iter, a.slot), refL, engL)
			if got := eng.SlotLen(a.slot); got != a.promptLen {
				t.Fatalf("iter %d: slot %d len %d after prefill, want %d", iter, a.slot, got, a.promptLen)
			}
			active[a.slot] = true
			last[a.slot] = sampling.Greedy(refL.Row(a.promptLen - 1))
			remaining[a.slot] = a.decodes
		}

		anyActive := false
		for _, a := range active {
			anyActive = anyActive || a
		}
		if !anyActive {
			continue
		}

		// One variable-length decode step over whatever is active; slots
		// sit at different depths by construction.
		engL := eng.DecodeSlotsInto(nil, last, active)
		for s := 0; s < batch; s++ {
			if !active[s] {
				// Inactive slots must stay untouched: zero logits, no
				// cache growth.
				for _, v := range engL.Row(s) {
					if v != 0 {
						t.Fatalf("iter %d: inactive slot %d has nonzero logits", iter, s)
					}
				}
				continue
			}
			refL := refs[s].Decode([]int{last[s]})
			engRow := tensor.FromSlice(engL.Row(s), 1, engL.Cols)
			assertClose(t, fmt.Sprintf("iter %d: slot %d decode", iter, s), refL, engRow)
			last[s] = sampling.Greedy(refL.Row(0))
			remaining[s]--
			if remaining[s] == 0 {
				eng.ReleaseSlot(s)
				active[s] = false
				refs[s] = nil
				if got := eng.SlotLen(s); got != 0 {
					t.Fatalf("iter %d: released slot %d has len %d", iter, s, got)
				}
			}
		}
	}

	for s, a := range active {
		if a {
			t.Errorf("slot %d still active after script end", s)
		}
	}
}

// The continuous-batching contract over the layout matrix, including the
// weight-gathered path (token-sharded, batch-sharded cache).
func TestContinuousBatchingMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  model.Config
		ffn  partition.FFNLayout
		attn partition.AttnLayout
	}{
		{"mqa-2dws-batch", tinyMQA(), partition.FFN2DWeightStationary, partition.AttnShardBatch},
		{"mqa-2dws-heads", tinyMQA(), partition.FFN2DWeightStationary, partition.AttnShardHeads},
		{"mqa-1dws-batch", tinyMQA(), partition.FFN1DWeightStationary, partition.AttnShardBatch},
		{"mha-2dws-heads", tinyMHA(), partition.FFN2DWeightStationary, partition.AttnShardHeads},
		{"mha-2dws-batch", tinyMHA(), partition.FFN2DWeightStationary, partition.AttnShardBatch},
		{"mqa-wgxyz-batch", tinyMQA(), partition.FFNWeightGatheredXYZ, partition.AttnShardBatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkContinuousAgainstReference(t, tc.cfg, Options{FFN: tc.ffn, Attn: tc.attn})
		})
	}
}

// A static lockstep batch run through DecodeSlotsInto with a nil mask must be
// identical to Decode — the uniform path is a special case of the
// variable-length one.
func TestDecodeSlotsNilMaskEqualsDecode(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 42)
	mk := func() *Engine {
		eng, err := New(w, torus222(), Options{
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		}, 8, 12)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := mk(), mk()
	prompt := tokens(8, 3)
	prefill(t, a, prompt, 3)
	prefill(t, b, prompt, 3)
	lastTok := tokens(8, 1)
	assertClose(t, "nil-mask decode", decode(t, a, nil, lastTok), b.DecodeSlotsInto(nil, lastTok, nil))
}

// Single-chip sanity: slot admission and variable-length decode with no
// communication at all.
func TestContinuousSingleChip(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 17)
	eng, err := New(w, hardware.Torus{X: 1, Y: 1, Z: 1}, Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
	}, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	ref := reference.New(w, 1, 12)
	p := []int{1, 2, 3}
	assertClose(t, "single-chip admission", ref.Prefill(p, 3), eng.PrefillSlot(1, p))
	engL := eng.DecodeSlotsInto(nil, []int{0, 5}, []bool{false, true})
	refL := ref.Decode([]int{5})
	assertClose(t, "single-chip decode", refL, tensor.FromSlice(engL.Row(1), 1, engL.Cols))
}
