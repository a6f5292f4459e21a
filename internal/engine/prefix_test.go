package engine

import (
	"fmt"
	"testing"

	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// sysPrompt is the shared "system prompt" the prefix-cache tests reuse.
func sysPrompt(cfg model.Config) []int {
	p := []int{3, 1, 4, 1, 5}
	for i := range p {
		p[i] %= cfg.Vocab
	}
	return p
}

// checkPrefixCachedAgainstCold verifies the tentpole contract on one
// layout: admissions that reuse a cached system prompt's K/V must be
// token-exact against (a) a cold engine prefilling the whole prompt and
// (b) an independent batch-1 reference model — at admission and through
// every subsequent decode step, including slots owned by different chips.
func checkPrefixCachedAgainstCold(t *testing.T, cfg model.Config, opts Options) {
	t.Helper()
	const batch, maxLen = 8, 16
	w := reference.NewWeights(cfg, 42)
	mk := func() *Engine {
		eng, err := New(w, torus222(), opts, batch, maxLen)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		return eng
	}
	warm, cold := mk(), mk()
	warm.EnablePrefixCache(0)
	sys := sysPrompt(cfg)

	// Seed: prefill the system prompt once, capture it, free the slot.
	warm.PrefillSlot(0, sys)
	if err := warm.CachePrefix(0, sys); err != nil {
		t.Fatalf("cache prefix: %v", err)
	}
	warm.ReleaseSlot(0)
	if st := warm.PrefixStats(); st.Entries != 1 {
		t.Fatalf("store entries = %d after seed", st.Entries)
	}

	// Two requests share the prompt; their slots live on different chips
	// under batch sharding (batch 8 over 8 chips = one slot per chip).
	reqs := []struct {
		slot    int
		suffix  []int
		decodes int
	}{
		{slot: 0, suffix: []int{7, 8}, decodes: 3},
		{slot: 3, suffix: []int{9}, decodes: 4},
	}
	refs := make(map[int]*reference.Model)
	last := make([]int, batch)
	lastCold := make([]int, batch)
	active := make([]bool, batch)

	for _, rq := range reqs {
		prompt := append(append([]int(nil), sys...), rq.suffix...)
		ref := warm.AcquirePrefix(prompt)
		if ref == nil {
			t.Fatalf("slot %d: prefix miss for a seeded prompt", rq.slot)
		}
		if ref.Len() != len(sys) {
			t.Fatalf("slot %d: acquired %d tokens, want %d", rq.slot, ref.Len(), len(sys))
		}
		warmL := warm.PrefillSlotFrom(rq.slot, ref, rq.suffix)
		coldL := cold.PrefillSlot(rq.slot, prompt)

		rm := reference.New(w, 1, maxLen)
		refL := rm.Prefill(prompt, len(prompt))
		refs[rq.slot] = rm

		suffixRef := tensor.SliceRows(refL, len(sys), len(prompt))
		suffixCold := tensor.SliceRows(coldL, len(sys), len(prompt))
		assertClose(t, fmt.Sprintf("slot %d cached admission vs reference", rq.slot), suffixRef, warmL)
		assertClose(t, fmt.Sprintf("slot %d cached admission vs cold path", rq.slot), suffixCold, warmL)

		if got := warm.SlotLen(rq.slot); got != len(prompt) {
			t.Fatalf("slot %d: len %d after cached prefill, want %d", rq.slot, got, len(prompt))
		}
		active[rq.slot] = true
		last[rq.slot] = sampling.Greedy(refL.Row(len(prompt) - 1))
		lastCold[rq.slot] = last[rq.slot]
	}
	if st := warm.PrefixStats(); st.Hits != 2 || st.HitTokens != int64(2*len(sys)) {
		t.Fatalf("stats after two cached admissions: %+v", st)
	}

	// Decode both engines in lockstep against the references: a slot
	// aliasing a shared prefix must decode exactly like one that owns its
	// whole context.
	maxDecodes := 0
	remaining := map[int]int{}
	for _, rq := range reqs {
		remaining[rq.slot] = rq.decodes
		if rq.decodes > maxDecodes {
			maxDecodes = rq.decodes
		}
	}
	for step := 0; step < maxDecodes; step++ {
		warmL := warm.DecodeSlotsInto(nil, last, active)
		coldL := cold.DecodeSlotsInto(nil, lastCold, active)
		for s := 0; s < batch; s++ {
			if !active[s] {
				continue
			}
			refL := refs[s].Decode([]int{last[s]})
			warmRow := tensor.FromSlice(warmL.Row(s), 1, warmL.Cols)
			coldRow := tensor.FromSlice(coldL.Row(s), 1, coldL.Cols)
			assertClose(t, fmt.Sprintf("step %d slot %d cached decode vs reference", step, s), refL, warmRow)
			assertClose(t, fmt.Sprintf("step %d slot %d cached decode vs cold path", step, s), refL, coldRow)
			last[s] = sampling.Greedy(refL.Row(0))
			lastCold[s] = last[s]
			remaining[s]--
			if remaining[s] == 0 {
				warm.ReleaseSlot(s)
				cold.ReleaseSlot(s)
				active[s] = false
			}
		}
	}

	// All refs returned: the seeded prefix must be reacquirable (and would
	// now be LRU-evictable).
	ref := warm.AcquirePrefix(append(append([]int(nil), sys...), 2))
	if ref == nil || ref.Len() != len(sys) {
		t.Fatal("prefix not reacquirable after slots released")
	}
	warm.ReleasePrefix(ref)
}

// The tentpole acceptance matrix: cached-prefix admission and decode are
// token-exact across head-sharded, batch-sharded, and weight-gathered
// layouts.
func TestPrefixCachedMatchesColdAndReference(t *testing.T) {
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
			checkPrefixCachedAgainstCold(t, tc.cfg, Options{FFN: tc.ffn, Attn: tc.attn})
		})
	}
}

// PrefillSlotCached is the one-call serving path: miss → cold prefill plus
// capture, hit → suffix-only prefill, identical logits either way.
func TestPrefillSlotCachedServingPath(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 42)
	const maxLen = 16
	eng, err := New(w, torus222(), Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
	}, 8, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	eng.EnablePrefixCache(0)
	sys := sysPrompt(cfg)
	promptA := append(append([]int(nil), sys...), 7, 8)
	promptB := append(append([]int(nil), sys...), 9, 10, 11)

	// First admission: miss, remember the template boundary.
	logitsA, cachedA := eng.PrefillSlotCached(0, promptA, len(sys))
	if cachedA != 0 {
		t.Fatalf("first admission reported %d cached tokens", cachedA)
	}
	rmA := reference.New(w, 1, maxLen)
	assertClose(t, "miss admission", rmA.Prefill(promptA, len(promptA)), logitsA)

	// Second admission with a different suffix: hits the template.
	logitsB, cachedB := eng.PrefillSlotCached(1, promptB, len(sys))
	if cachedB != len(sys) {
		t.Fatalf("second admission cached %d tokens, want %d", cachedB, len(sys))
	}
	rmB := reference.New(w, 1, maxLen)
	refB := rmB.Prefill(promptB, len(promptB))
	assertClose(t, "hit admission", tensor.SliceRows(refB, len(sys), len(promptB)), logitsB)

	if st := eng.PrefixStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	eng.ReleaseSlot(0)
	eng.ReleaseSlot(1)
}

// Chunked prefill must be bit-for-bit the same computation: concatenated
// chunk logits equal the single-shot prefill, and the decode continuation
// matches the reference.
func TestPrefillSlotChunkedMatchesSingleShot(t *testing.T) {
	for _, tc := range []struct {
		name string
		ffn  partition.FFNLayout
		attn partition.AttnLayout
	}{
		{"2dws-batch", partition.FFN2DWeightStationary, partition.AttnShardBatch},
		{"2dws-heads", partition.FFN2DWeightStationary, partition.AttnShardHeads},
		{"wgxyz-batch", partition.FFNWeightGatheredXYZ, partition.AttnShardBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyMQA()
			w := reference.NewWeights(cfg, 42)
			const maxLen = 16
			mk := func() *Engine {
				eng, err := New(w, torus222(), Options{FFN: tc.ffn, Attn: tc.attn}, 8, maxLen)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			chunked, single := mk(), mk()
			prompt := []int{5, 9, 2, 11, 3, 7, 1} // 7 tokens in chunks of 3: 3+3+1
			ls := single.PrefillSlot(2, prompt)
			for lo := 0; lo < len(prompt); lo += 3 {
				hi := min(lo+3, len(prompt))
				lc := chunked.PrefillSlot(2, prompt[lo:hi])
				assertClose(t, "chunked vs single-shot prefill", tensor.SliceRows(ls, lo, hi), lc)
			}
			if got := chunked.SlotLen(2); got != len(prompt) {
				t.Fatalf("chunked slot len %d, want %d", got, len(prompt))
			}

			rm := reference.New(w, 1, maxLen)
			refL := rm.Prefill(prompt, len(prompt))
			last := make([]int, 8)
			active := make([]bool, 8)
			active[2] = true
			last[2] = sampling.Greedy(refL.Row(len(prompt) - 1))
			for step := 0; step < 3; step++ {
				refD := rm.Decode([]int{last[2]})
				engD := chunked.DecodeSlotsInto(nil, last, active)
				assertClose(t, fmt.Sprintf("decode %d after chunked prefill", step),
					refD, tensor.FromSlice(engD.Row(2), 1, engD.Cols))
				last[2] = sampling.Greedy(refD.Row(0))
			}
		})
	}
}

// Eviction integration: a byte budget sized for one prefix evicts the
// older, unreferenced entry when a second is remembered; a still-attached
// prefix is pinned.
func TestPrefixCacheBudgetEvictsLRU(t *testing.T) {
	cfg := tinyMQA()
	w := reference.NewWeights(cfg, 42)
	eng, err := New(w, torus222(), Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
	}, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	// One 5-token prefix costs 2·layers·5·width·4 bytes per chip.
	width := cfg.KVHeads * cfg.HeadDim
	one := 2 * cfg.Layers * 5 * width * 4
	eng.EnablePrefixCache(one + one/2) // room for one, not two

	pA := []int{1, 2, 3, 4, 5}
	pB := []int{6, 7, 8, 9, 10}
	eng.PrefillSlot(0, pA)
	if err := eng.CachePrefix(0, pA); err != nil {
		t.Fatal(err)
	}
	eng.ReleaseSlot(0)

	// While A is attached to a live slot it is pinned: remembering B must
	// fail rather than evict it.
	ref := eng.AcquirePrefix(append(append([]int(nil), pA...), 11))
	if ref == nil {
		t.Fatal("seeded prefix missed")
	}
	eng.PrefillSlotFrom(1, ref, []int{11})
	eng.PrefillSlot(2, pB)
	if err := eng.CachePrefix(2, pB); err == nil {
		t.Error("remember succeeded with the only evictable entry pinned")
	}

	// Release the slot; now B's insert evicts A (LRU, unreferenced).
	eng.ReleaseSlot(1)
	if err := eng.CachePrefix(2, pB); err != nil {
		t.Fatalf("remember after unpin: %v", err)
	}
	if got := eng.AcquirePrefix(append(append([]int(nil), pA...), 11)); got != nil {
		t.Error("evicted prefix still acquirable")
	}
	if got := eng.AcquirePrefix(append(append([]int(nil), pB...), 11)); got == nil {
		t.Error("new prefix not acquirable")
	} else {
		eng.ReleasePrefix(got)
	}
	eng.ReleaseSlot(2)
}
