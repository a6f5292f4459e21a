package engine

import (
	"testing"

	"esti/internal/hardware"
	"esti/internal/kvcache"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// greedySlot prefills `prompt` into `slot` and greedily decodes `gen`
// tokens on that slot alone (the other slots stay inactive), returning the
// generated tokens. This is the single-replica baseline a disaggregated
// handoff must match token for token.
func greedySlot(t *testing.T, e *Engine, slot int, prompt []int, gen int) []int {
	t.Helper()
	logits := e.PrefillSlot(slot, prompt)
	tok := sampling.Greedy(logits.Row(len(prompt) - 1))
	return append([]int{tok}, decodeSlotFrom(e, slot, tok, gen-1)...)
}

// decodeSlotFrom greedily decodes `gen` further tokens on `slot` starting
// from last token `tok` — the decode replica's half of the handoff.
func decodeSlotFrom(e *Engine, slot, tok, gen int) []int {
	out := make([]int, 0, gen)
	last := make([]int, e.Batch())
	active := make([]bool, e.Batch())
	active[slot] = true
	var logits *tensor.Mat
	for g := 0; g < gen; g++ {
		last[slot] = tok
		logits = e.DecodeSlotsInto(logits, last, active)
		tok = sampling.Greedy(logits.Row(slot))
		out = append(out, tok)
	}
	return out
}

// The disaggregated contract: prefill on replica A, hand the slot's KV to
// replica B, decode on B — and the tokens equal a single replica doing both
// phases itself. Verified across the functional layouts (head-sharded
// replication, batch-sharded single-owner, weight-gathered) in both KV
// storage modes; the export and import slots deliberately differ so the
// owner-chip remapping is exercised.
func TestHandoffTokenExact(t *testing.T) {
	cfg := ciConfig()
	const batch, promptLen, gen, maxLen = 8, 5, 24, 64
	prompt := tokens(1, promptLen)

	layouts := []struct {
		name  string
		torus hardware.Torus
		opts  Options
	}{
		{"1dws-heads", torus222(),
			Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}},
		{"2dws-batch", torus222(),
			Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}},
		{"wgxyz-batch", hardware.Torus{X: 2, Y: 1, Z: 1},
			Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch}},
	}
	w := reference.NewWeights(cfg, 42)
	for _, lay := range layouts {
		for _, int8kv := range []bool{false, true} {
			name := lay.name
			if int8kv {
				name += "-int8kv"
			}
			t.Run(name, func(t *testing.T) {
				opts := lay.opts
				if int8kv {
					opts.KVDType = model.Int8
				}
				mk := func() *Engine {
					e, err := New(w, lay.torus, opts, batch, maxLen)
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				base := mk()
				want := greedySlot(t, base, 2, prompt, gen)

				pre, dec := mk(), mk()
				logits := pre.PrefillSlot(2, prompt)
				tok := sampling.Greedy(logits.Row(promptLen - 1))
				if tok != want[0] {
					t.Fatalf("prefill replica's first token %d, baseline %d", tok, want[0])
				}
				kv, err := pre.ExportSlotKV(2)
				if err != nil {
					t.Fatal(err)
				}
				if kv.blocks[0].Len != promptLen {
					t.Fatalf("snapshot Len = %d, want %d", kv.blocks[0].Len, promptLen)
				}
				if kv.Bytes() <= 0 {
					t.Fatal("snapshot reports no wire bytes")
				}
				pre.ReleaseSlot(2) // the block must not alias the freed slot

				if err := dec.ImportSlotKV(5, kv); err != nil {
					t.Fatal(err)
				}
				if dec.SlotLen(5) != promptLen {
					t.Fatalf("imported SlotLen = %d, want %d", dec.SlotLen(5), promptLen)
				}
				got := append([]int{tok}, decodeSlotFrom(dec, 5, tok, gen-1)...)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("token %d: handoff %d vs single-replica %d\nwant %v\ngot  %v",
							i, got[i], want[i], want, got)
					}
				}
			})
		}
	}
}

// A slot whose prefix came from the shared-prefix store must export those
// positions too: the receiving replica has no reference into the sender's
// PrefixStore, so the snapshot carries the full sequence.
func TestHandoffCarriesSharedPrefix(t *testing.T) {
	cfg := ciConfig()
	const batch, gen, maxLen = 8, 12, 64
	w := reference.NewWeights(cfg, 7)
	opts := Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}
	mk := func() *Engine {
		e, err := New(w, torus222(), opts, batch, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	template := tokens(1, 6)
	suffix := []int{9, 21, 33}
	full := append(append([]int{}, template...), suffix...)

	base := mk()
	want := greedySlot(t, base, 0, full, gen)

	pre := mk()
	pre.EnablePrefixCache(0)
	// Seed the template into the store from a scratch admission, then admit
	// the real request — its leading tokens come from the shared prefix.
	if _, cached := pre.PrefillSlotCached(0, full, len(template)); cached != 0 {
		t.Fatalf("first admission hit %d cached tokens", cached)
	}
	pre.ReleaseSlot(0)
	logits, cached := pre.PrefillSlotCached(1, full, 0)
	if cached != len(template) {
		t.Fatalf("prefix hit %d tokens, want %d", cached, len(template))
	}
	tok := sampling.Greedy(logits.Row(logits.Rows - 1))
	if tok != want[0] {
		t.Fatalf("prefill replica's first token %d, baseline %d", tok, want[0])
	}
	kv, err := pre.ExportSlotKV(1)
	if err != nil {
		t.Fatal(err)
	}
	if kv.blocks[0].Len != len(full) {
		t.Fatalf("snapshot Len = %d, want the full %d (prefix materialized)", kv.blocks[0].Len, len(full))
	}
	pre.ReleaseSlot(1)

	dec := mk() // the decode replica has no prefix store at all
	if err := dec.ImportSlotKV(3, kv); err != nil {
		t.Fatal(err)
	}
	got := append([]int{tok}, decodeSlotFrom(dec, 3, tok, gen-1)...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: handoff %d vs single-replica %d", i, got[i], want[i])
		}
	}
}

func TestHandoffErrors(t *testing.T) {
	cfg := ciConfig()
	const batch, maxLen = 8, 32
	w := reference.NewWeights(cfg, 3)
	mk := func(tr hardware.Torus, opts Options) *Engine {
		e, err := New(w, tr, opts, batch, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	headOpts := Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}
	batchOpts := Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}

	head := mk(torus222(), headOpts)
	if _, err := head.ExportSlotKV(0); err == nil {
		t.Error("export of empty slot should fail")
	}
	head.PrefillSlot(0, tokens(1, 4))
	kvHead, err := head.ExportSlotKV(0)
	if err != nil {
		t.Fatal(err)
	}

	if err := mk(torus222(), batchOpts).ImportSlotKV(0, kvHead); err == nil {
		t.Error("head-sharded snapshot into batch-sharded session should fail")
	}
	if err := mk(hardware.Torus{X: 2, Y: 1, Z: 1}, headOpts).ImportSlotKV(0, kvHead); err == nil {
		t.Error("8-chip snapshot into 2-chip session should fail")
	}
	if err := mk(torus222(), headOpts).ImportSlotKV(0, nil); err == nil {
		t.Error("nil snapshot import should fail")
	}

	// Every holder's block is checked before any is written: a snapshot
	// whose last chip's block is malformed leaves every chip's slot empty.
	bad := &SlotKV{blocks: append([]*kvcache.KVBlock(nil), kvHead.blocks...)}
	last := *bad.blocks[len(bad.blocks)-1]
	last.Len++ // the header claims a row the block does not hold
	bad.blocks[len(bad.blocks)-1] = &last
	fresh := mk(torus222(), headOpts)
	if err := fresh.ImportSlotKV(0, bad); err == nil {
		t.Error("snapshot with a malformed last block should fail")
	}
	for r, st := range fresh.chips {
		if n := st.cache.SeqLen(0); n != 0 {
			t.Errorf("refused import left %d positions on chip %d", n, r)
		}
	}

	occupied := mk(torus222(), headOpts)
	occupied.PrefillSlot(0, tokens(1, 3))
	if err := occupied.ImportSlotKV(0, kvHead); err != nil {
		// import into a non-empty slot must fail and leave the slot intact
		if occupied.SlotLen(0) != 3 {
			t.Errorf("failed import disturbed the slot: len %d", occupied.SlotLen(0))
		}
	} else {
		t.Error("import into non-empty slot should fail")
	}

	bsh := mk(torus222(), batchOpts)
	bsh.PrefillSlot(1, tokens(1, 4))
	kvB, err := bsh.ExportSlotKV(1)
	if err != nil {
		t.Fatal(err)
	}
	int8Opts := batchOpts
	int8Opts.KVDType = model.Int8
	if err := mk(torus222(), int8Opts).ImportSlotKV(1, kvB); err == nil {
		t.Error("float snapshot into int8 session should fail")
	}
}

// The slot methods that return errors return one for a slot outside the
// batch, on either sharding, rather than panicking.
func TestSlotMethodsRejectBadSlot(t *testing.T) {
	cfg := ciConfig()
	w := reference.NewWeights(cfg, 3)
	for _, opts := range []Options{
		{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch},
		{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads},
	} {
		eng, err := New(w, hardware.Torus{X: 2, Y: 1, Z: 1}, opts, 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		eng.EnablePrefixCache(0)
		eng.PrefillSlot(0, tokens(1, 4))
		kv, err := eng.ExportSlotKV(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			slot int
			call func(slot int) error
		}{
			{"ExportSlotKV", 5, func(s int) error { _, err := eng.ExportSlotKV(s); return err }},
			{"ImportSlotKV", -1, func(s int) error { return eng.ImportSlotKV(s, kv) }},
			{"RestoreSlotKV", 9, func(s int) error { return eng.RestoreSlotKV(s, kv) }},
			{"CachePrefix", 7, func(s int) error { return eng.CachePrefix(s, tokens(1, 2)) }},
		} {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%v %s(%d) panicked: %v", opts.Attn, tc.name, tc.slot, r)
					}
				}()
				err = tc.call(tc.slot)
			}()
			if err == nil {
				t.Errorf("%v %s(%d) returned no error", opts.Attn, tc.name, tc.slot)
			}
		}
	}
}
