package reference

import (
	"math"
	"testing"

	"esti/internal/model"
	"esti/internal/tensor"
)

// tiny returns a small multiquery parallel-block config divisible enough for
// sharding tests downstream.
func tiny() model.Config {
	return model.Config{
		Name: "tiny", Layers: 2, DModel: 32, DFF: 64,
		Heads: 8, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 64,
	}
}

func tinyMHA() model.Config {
	c := tiny()
	c.Name = "tiny-mha"
	c.KVHeads = 8
	c.Attn = model.Multihead
	c.FFNKind = model.GELU
	c.ParallelBlock = false
	return c
}

func seqTokens(batch, steps, stride int) []int {
	t := make([]int, batch*steps)
	for i := range t {
		t[i] = (i*stride + 7) % 64
	}
	return t
}

func TestPrefillShapes(t *testing.T) {
	w := NewWeights(tiny(), 1)
	m := New(w, 3, 16)
	logits := m.Prefill(seqTokens(3, 5, 3), 5)
	if logits.Rows != 15 || logits.Cols != 64 {
		t.Fatalf("logits shape %dx%d, want 15x64", logits.Rows, logits.Cols)
	}
	for s := 0; s < 3; s++ {
		if m.Cache.SeqLen(s) != 5 {
			t.Errorf("slot %d cache len %d, want 5", s, m.Cache.SeqLen(s))
		}
	}
}

func TestLogitsAreFinite(t *testing.T) {
	for _, cfg := range []model.Config{tiny(), tinyMHA()} {
		w := NewWeights(cfg, 2)
		m := New(w, 2, 8)
		logits := m.Prefill(seqTokens(2, 4, 5), 4)
		for _, v := range logits.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite logit", cfg.Name)
			}
		}
	}
}

// Incremental prefill must produce the same final state as one-shot prefill:
// decoding after either path yields identical logits. This validates the
// paper's "incremental processing of sequences during prefill".
func TestIncrementalPrefillEquivalence(t *testing.T) {
	cfg := tiny()
	w := NewWeights(cfg, 3)
	tokens := seqTokens(2, 6, 3)

	oneShot := New(w, 2, 16)
	oneShot.Prefill(tokens, 6)

	chunked := New(w, 2, 16)
	// Split each sequence's 6 tokens into chunks of 2 then 4.
	chunk1 := []int{tokens[0], tokens[1], tokens[6], tokens[7]}
	chunk2 := []int{tokens[2], tokens[3], tokens[4], tokens[5], tokens[8], tokens[9], tokens[10], tokens[11]}
	chunked.Prefill(chunk1, 2)
	chunked.Prefill(chunk2, 4)

	last := []int{1, 2}
	a := oneShot.Decode(last)
	b := chunked.Decode(last)
	if d := tensor.MaxAbsDiff(a, b); d > 1e-4 {
		t.Errorf("chunked prefill diverges from one-shot by %g", d)
	}
}

// A decode step must equal prefilling the same token: prefill(prompt+x) and
// prefill(prompt)+decode(x) agree on the final position's logits.
func TestDecodeMatchesPrefillExtension(t *testing.T) {
	for _, cfg := range []model.Config{tiny(), tinyMHA()} {
		w := NewWeights(cfg, 4)
		const steps = 5
		tokens := seqTokens(2, steps, 2)

		full := New(w, 2, 8)
		fullLogits := full.Prefill(tokens, steps)

		inc := New(w, 2, 8)
		prefix := []int{tokens[0], tokens[1], tokens[2], tokens[3],
			tokens[5], tokens[6], tokens[7], tokens[8]}
		inc.Prefill(prefix, steps-1)
		decLogits := inc.Decode([]int{tokens[4], tokens[9]})

		for s := 0; s < 2; s++ {
			fullRow := tensor.SliceRows(fullLogits, s*steps+steps-1, s*steps+steps)
			decRow := tensor.SliceRows(decLogits, s, s+1)
			if d := tensor.MaxAbsDiff(fullRow, decRow); d > 1e-4 {
				t.Errorf("%s seq %d: decode logits differ from prefill by %g", cfg.Name, s, d)
			}
		}
	}
}

// Causality: changing a later token must not change earlier positions'
// logits.
func TestCausalMask(t *testing.T) {
	cfg := tiny()
	w := NewWeights(cfg, 5)
	a := New(w, 1, 8)
	la := a.Prefill([]int{3, 5, 7, 9}, 4)
	b := New(w, 1, 8)
	lb := b.Prefill([]int{3, 5, 7, 42}, 4)
	for pos := 0; pos < 3; pos++ {
		ra := tensor.SliceRows(la, pos, pos+1)
		rb := tensor.SliceRows(lb, pos, pos+1)
		if d := tensor.MaxAbsDiff(ra, rb); d != 0 {
			t.Errorf("position %d leaked future token (diff %g)", pos, d)
		}
	}
	// And the changed position itself must differ.
	if tensor.MaxAbsDiff(tensor.SliceRows(la, 3, 4), tensor.SliceRows(lb, 3, 4)) == 0 {
		t.Error("changed token produced identical logits")
	}
}

// Batch independence: each sequence's logits must not depend on its
// neighbors in the batch.
func TestBatchIndependence(t *testing.T) {
	cfg := tinyMHA()
	w := NewWeights(cfg, 6)
	solo := New(w, 1, 8)
	soloLogits := solo.Prefill([]int{10, 20, 30}, 3)

	duo := New(w, 2, 8)
	duoLogits := duo.Prefill([]int{10, 20, 30, 40, 50, 60}, 3)
	first := tensor.SliceRows(duoLogits, 0, 3)
	if d := tensor.MaxAbsDiff(soloLogits, first); d > 1e-5 {
		t.Errorf("sequence 0 affected by batchmate: diff %g", d)
	}
}

// Multiquery and multihead differ only in KV sharing: with one KV head the
// grouped mapping must send every query head to that head.
func TestMultiqueryUsesSingleKVHead(t *testing.T) {
	cfg := tiny()
	w := NewWeights(cfg, 7)
	m := New(w, 1, 8)
	m.Prefill([]int{1, 2, 3}, 3)
	if got := m.Cache.KVWidth; got != cfg.HeadDim {
		t.Errorf("multiquery KV width %d, want head dim %d", got, cfg.HeadDim)
	}
	mhaW := NewWeights(tinyMHA(), 7)
	mm := New(mhaW, 1, 8)
	mm.Prefill([]int{1, 2, 3}, 3)
	if got := mm.Cache.KVWidth; got != cfg.Heads*cfg.HeadDim {
		t.Errorf("multihead KV width %d, want %d", got, cfg.Heads*cfg.HeadDim)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := tiny()
	w := NewWeights(cfg, 8)
	a := New(w, 2, 16).Generate(seqTokens(2, 4, 3), 4, 5)
	b := New(w, 2, 16).Generate(seqTokens(2, 4, 3), 4, 5)
	for s := range a {
		if len(a[s]) != 5 {
			t.Fatalf("seq %d generated %d tokens, want 5", s, len(a[s]))
		}
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				t.Fatal("greedy generation not deterministic")
			}
		}
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	w := NewWeights(tiny(), 9)
	m := New(w, 2, 8)
	for name, fn := range map[string]func(){
		"wrong token count":  func() { m.Prefill([]int{1, 2, 3}, 2) },
		"token out of vocab": func() { m.Prefill([]int{1, 99999, 2, 3}, 2) },
		"wrong decode width": func() { m.Decode([]int{1, 2, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// KV-cache overflow must be caught.
func TestCacheOverflowPanics(t *testing.T) {
	w := NewWeights(tiny(), 10)
	m := New(w, 1, 4)
	m.Prefill([]int{1, 2, 3, 4}, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected cache overflow panic")
		}
	}()
	m.Decode([]int{5})
}
