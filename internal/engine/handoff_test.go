package engine

import (
	"fmt"
	"math"
	"testing"

	"esti/internal/hardware"
	"esti/internal/kvcache"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// greedyLogits prefills `prompt` into `slot` and greedily decodes on that
// slot alone (the other slots stay inactive) until `gen` tokens exist. It
// returns them and, for each, a copy of the logits row it was picked from:
// the single-replica baseline a handoff must match bit for bit. A greedy stream alone cannot tell a right
// handoff from a wrong one — a tiny tied-embedding model soon repeats one
// token whatever its cache holds — but its logits can.
func greedyLogits(e *Engine, slot int, prompt []int, gen int) ([]int, [][]float32) {
	logits := e.PrefillSlot(slot, prompt)
	row := logits.Row(len(prompt) - 1)
	toks := []int{sampling.Greedy(row)}
	rows := [][]float32{append([]float32(nil), row...)}
	rows = append(rows, forcedLogits(e, slot, toks, gen-1)...)
	return greedyTokens(toks[0], rows[1:]), rows
}

// greedyTokens is first followed by the argmax of each logits row.
func greedyTokens(first int, rows [][]float32) []int {
	toks := []int{first}
	for _, r := range rows {
		toks = append(toks, sampling.Greedy(r))
	}
	return toks
}

// forcedLogits runs n decode steps on `slot` alone, feeding toks[i] at
// step i, or the argmax of the step before once toks runs out, and returns
// a copy of every step's logits row. Fed a baseline's tokens it is teacher
// forcing: each step sees the baseline's input whatever the replica
// computed, so its logits compare with the baseline's step for step.
func forcedLogits(e *Engine, slot int, toks []int, n int) [][]float32 {
	last := make([]int, e.Batch())
	active := make([]bool, e.Batch())
	active[slot] = true
	var logits *tensor.Mat
	var rows [][]float32
	for i := 0; i < n; i++ {
		if i < len(toks) {
			last[slot] = toks[i]
		} else {
			last[slot] = sampling.Greedy(rows[i-1])
		}
		logits = e.DecodeSlotsInto(logits, last, active)
		rows = append(rows, append([]float32(nil), logits.Row(slot)...))
	}
	return rows
}

// sameBits fails t at the first logit of got whose bits differ from want's.
func sameBits(t *testing.T, what string, want, got [][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logits rows, want %d", what, len(got), len(want))
	}
	for s := range want {
		for j, v := range want[s] {
			if math.Float32bits(v) != math.Float32bits(got[s][j]) {
				t.Fatalf("%s: step %d logit %d is %v, single replica %v", what, s, j, got[s][j], v)
			}
		}
	}
}

// firstBitDiff is the first step whose logits differ in any bit, or -1.
func firstBitDiff(a, b [][]float32) int {
	for s := range a {
		for j, v := range a[s] {
			if math.Float32bits(v) != math.Float32bits(b[s][j]) {
				return s
			}
		}
	}
	return -1
}

// snapshotBytes is a snapshot's wire bytes in closed form: holders ×
// layers × positions × K and V × one stored row (float32 columns, or int8
// columns plus the row's float32 scale). Multiquery keeps its one KV head
// whole on every chip, so a head-sharded snapshot has a holder per chip:
// n× the batch-sharded figure, Figure 4(b)'s replication as handoff
// traffic.
func snapshotBytes(cfg model.Config, holders, positions int, int8KV bool) int {
	width := cfg.KVHeads * cfg.HeadDim
	row := 4 * width
	if int8KV {
		row = width + 4
	}
	return holders * cfg.Layers * positions * 2 * row
}

// The disaggregated contract: prefill on replica A, hand the slot's KV to
// replica B, decode on B — and every logit equals, bit for bit, a single
// replica doing both phases itself. Verified across the functional layouts
// (head-sharded replication, batch-sharded single-owner, weight-gathered)
// in both KV storage modes; the export and import slots deliberately
// differ so the owner-chip remapping is exercised. Importing another
// prompt's snapshot instead must move the logits, so the comparison can
// fail.
func TestHandoffTokenExact(t *testing.T) {
	cfg := ciConfig()
	const batch, promptLen, gen, maxLen = 8, 5, 24, 64
	prompt := tokens(1, promptLen)
	other := []int{40, 3, 27, 61, 12}

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
				want, wantRows := greedyLogits(mk(), 2, prompt, gen)

				// export prefills p on a fresh replica's slot 2 and returns
				// the last prefill logits row and the snapshot, taken after
				// the slot is released (the blocks must not alias it).
				export := func(p []int) ([][]float32, *SlotKV) {
					pre := mk()
					last := [][]float32{pre.PrefillSlot(2, p).Row(promptLen - 1)}
					kv, err := pre.ExportSlotKV(2)
					if err != nil {
						t.Fatal(err)
					}
					if kv.blocks[0].Len != promptLen {
						t.Fatalf("snapshot Len = %d, want %d", kv.blocks[0].Len, promptLen)
					}
					holders := 1
					if opts.Attn == partition.AttnShardHeads {
						holders = lay.torus.Chips()
					}
					if got, want := kv.Bytes(), snapshotBytes(cfg, holders, promptLen, int8kv); got != want {
						t.Fatalf("snapshot moves %d bytes, closed form %d", got, want)
					}
					pre.ReleaseSlot(2)
					return last, kv
				}
				// decode imports kv into slot 5 of a fresh replica and
				// teacher-forces the baseline's tokens through it.
				decode := func(kv *SlotKV) [][]float32 {
					dec := mk()
					if err := dec.ImportSlotKV(5, kv); err != nil {
						t.Fatal(err)
					}
					if dec.SlotLen(5) != promptLen {
						t.Fatalf("imported SlotLen = %d, want %d", dec.SlotLen(5), promptLen)
					}
					return forcedLogits(dec, 5, want[:gen-1], gen-1)
				}

				last, kv := export(prompt)
				sameBits(t, "prefill replica", wantRows[:1], last)
				sameBits(t, "handoff", wantRows[1:], decode(kv))
				if _, kv := export(other); firstBitDiff(wantRows[1:], decode(kv)) < 0 {
					t.Fatal("another prompt's snapshot gives the same logits: the comparison cannot fail")
				}
			})
		}
	}
}

// The recovery contract: the decode replica dies — mid-handoff (failAfter
// 0: KV imported, no decode step ran) or after five decode steps — and
// loses the slot (ReleaseSlot); the retained checkpoint, a deep copy,
// crosses the wire a second time and imports into the same slot or a
// different one, and the replayed and continued decode gives every logit
// of a failure-free single replica bit for bit, in float and int8 KV modes.
func TestHandoffRecoveryTokenExact(t *testing.T) {
	cfg := ciConfig()
	const batch, gen, maxLen = 8, 16, 48
	prompt := []int{5, 18, 31, 44, 57, 6}
	w := reference.NewWeights(cfg, 42)
	for _, int8kv := range []bool{false, true} {
		name := "float"
		if int8kv {
			name = "int8kv"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}
			if int8kv {
				opts.KVDType = model.Int8
			}
			mk := func() *Engine {
				e, err := New(w, torus222(), opts, batch, maxLen)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			want, wantRows := greedyLogits(mk(), 1, prompt, gen)

			for _, failAfter := range []int{0, 5} {
				for _, recoverSlot := range []int{3, 6} {
					what := fmt.Sprintf("failAfter %d, recovery into slot %d", failAfter, recoverSlot)
					pre := mk()
					pre.PrefillSlot(1, prompt)
					ckpt, err := pre.ExportSlotKV(1)
					if err != nil {
						t.Fatal(err)
					}
					pre.ReleaseSlot(1)

					dec := mk()
					if err := dec.ImportSlotKV(3, ckpt); err != nil {
						t.Fatal(err)
					}
					sameBits(t, what+", before the failure", wantRows[1:1+failAfter],
						forcedLogits(dec, 3, want, failAfter))
					dec.ReleaseSlot(3) // the failure: the replica's copy is gone

					if err := dec.ImportSlotKV(recoverSlot, ckpt); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameBits(t, what+", replayed and continued", wantRows[1:],
						forcedLogits(dec, recoverSlot, want[:gen-1], gen-1))
				}
			}
		})
	}
}

// A slot whose prefix came from the shared-prefix store must export those
// positions too: the receiving replica has no reference into the sender's
// PrefixStore, so the snapshot carries the full sequence. (Tokens, not
// bits: the sender's attention walks the prefix and the private rows as
// two segments, the receiver's as one, which rounds differently.)
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

	want, _ := greedyLogits(mk(), 0, full, gen)

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
	got := greedyTokens(tok, forcedLogits(dec, 3, []int{tok}, gen-1))
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
