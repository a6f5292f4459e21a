package model

import (
	"math"
	"testing"
)

// approxB asserts a parameter count in billions within tol (also billions).
func approxB(t *testing.T, name string, got, wantB, tolB float64) {
	t.Helper()
	gotB := got / 1e9
	if math.Abs(gotB-wantB) > tolB {
		t.Errorf("%s params = %.2fB, want %.1fB ± %.1fB", name, gotB, wantB, tolB)
	}
}

// The presets must land on the published parameter counts: this is the
// paper's "N" in the 2N FLOPs/token rule, so everything downstream depends
// on these being right.
func TestPresetParameterCounts(t *testing.T) {
	approxB(t, "PaLM 8B", PaLM8B().Params(), 8.6, 0.4)
	approxB(t, "PaLM 62B", PaLM62B().Params(), 62.5, 1.5)
	approxB(t, "PaLM 540B", PaLM540B().Params(), 540.3, 5)
	approxB(t, "MT-NLG 530B", MTNLG530B().Params(), 530, 8)
}

// Section 4: padding 48→64 heads "adds 18B parameters to the model".
func TestHeadPaddingAdds18B(t *testing.T) {
	delta := PaLM540BPadded().Params() - PaLM540B().Params()
	approxB(t, "head padding delta", delta, 17.8, 0.5)
}

// Section 4.2: the MHA control halves head dim to keep attention parameter
// count equal to the (padded) multiquery model.
func TestMHAVariantMatchesAttentionParams(t *testing.T) {
	mqa := PaLM540BPadded().AttnParamsPerLayer()
	mha := PaLM540BMHA().AttnParamsPerLayer()
	if rel := math.Abs(mqa-mha) / mqa; rel > 0.05 {
		t.Errorf("attention params differ by %.1f%% (mqa %.3g, mha %.3g), want <5%%",
			rel*100, mqa, mha)
	}
}

func TestValidatePresets(t *testing.T) {
	for _, c := range []Config{PaLM8B(), PaLM62B(), PaLM540BPadded(), MTNLG530B(), PaLM540B(), PaLM540BMHA()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	c := PaLM8B()
	c.KVHeads = 3
	if err := c.Validate(); err == nil {
		t.Error("multiquery with KVHeads=3 validated")
	}
	c = PaLM540BMHA()
	c.KVHeads = 1
	if err := c.Validate(); err == nil {
		t.Error("multihead with KVHeads=1 validated")
	}
	c = PaLM8B()
	c.Layers = 0
	if err := c.Validate(); err == nil {
		t.Error("zero layers validated")
	}
	c = PaLM8B()
	c.Vocab = 0
	if err := c.Validate(); err == nil {
		t.Error("zero vocab validated")
	}
	c = PaLM8B()
	c.Attn = Attention(9)
	if err := c.Validate(); err == nil {
		t.Error("unknown attention validated")
	}
}

// Section 2.1: "for batch size 512 and context length 2048, the KV cache
// totals 3TB, which is 3 times the size of the model's parameters" — this
// is stated for a 500B+ model with multihead attention.
func TestKVCache3TBClaim(t *testing.T) {
	// The paper's hypothetical is the unpadded 48-head / d_head-128
	// multihead 540B: "for batch size 512 and context length 2048, the KV
	// cache totals 3TB, which is 3 times the size of the model's
	// parameters".
	c := PaLM540BMHA()
	c.Heads, c.KVHeads = 48, 48
	kv := c.KVBytesPerToken() * 512 * 2048
	tb := kv / 1e12
	if tb < 2.7 || tb > 3.5 {
		t.Errorf("MHA KV cache at B=512 L=2048 = %.2f TB, want ~3TB", tb)
	}
	if ratio := kv / (2 * PaLM540B().Params()); ratio < 2.5 || ratio > 3.5 {
		t.Errorf("KV/params ratio = %.2f, want ~3", ratio)
	}
}

func TestKVBytesPerTokenPerLayer(t *testing.T) {
	// Multiquery: 2 tensors (K,V) × 1 head × 256 dims × 2 bytes = 1024 B.
	if got := PaLM540B().KVBytesPerTokenPerLayerAs(BF16); got != 1024 {
		t.Errorf("MQA KV bytes/token/layer = %g, want 1024", got)
	}
	// Multihead at d_head 128, 64 heads: 2 × 64 × 128 × 2 = 32768 B —
	// exactly 32× the multiquery figure, which is where Table 1's "32x
	// larger context" headline comes from.
	if got := PaLM540BMHA().KVBytesPerTokenPerLayerAs(BF16); got != 32768 {
		t.Errorf("MHA KV bytes/token/layer = %g, want 32768", got)
	}
	if ratio := PaLM540BMHA().KVBytesPerTokenPerLayerAs(BF16) / PaLM540B().KVBytesPerTokenPerLayerAs(BF16); ratio != 32 {
		t.Errorf("MHA/MQA KV ratio = %g, want 32", ratio)
	}
}

func TestWeightBytesDtype(t *testing.T) {
	c := PaLM62B()
	if got, want := c.WeightBytes(BF16), 2*c.Params(); got != want {
		t.Errorf("bf16 bytes = %g, want %g", got, want)
	}
	if got, want := c.WeightBytes(Int8), c.Params(); got != want {
		t.Errorf("int8 bytes = %g, want %g", got, want)
	}
	if BF16.String() != "bf16" || Int8.String() != "int8" {
		t.Error("DType.String mismatch")
	}
}

func TestMatmulFLOPsPerTokenIs2N(t *testing.T) {
	c := PaLM8B()
	if got, want := c.MatmulFLOPsPerToken(), 2*c.Params(); got != want {
		t.Errorf("FLOPs/token = %g, want 2N = %g", got, want)
	}
}

func TestFFNMatrices(t *testing.T) {
	if PaLM8B().FFNMatrices() != 3 {
		t.Error("SwiGLU should have 3 matrices")
	}
	if MTNLG530B().FFNMatrices() != 2 {
		t.Error("GELU should have 2 matrices")
	}
}

func TestWithLayers(t *testing.T) {
	c := PaLM540BPadded().WithLayers(8)
	if c.Layers != 8 {
		t.Errorf("WithLayers(8).Layers = %d", c.Layers)
	}
	if c.DModel != PaLM540B().DModel {
		t.Error("WithLayers should not change other fields")
	}
}

func TestStringers(t *testing.T) {
	if Multihead.String() != "multihead" || Multiquery.String() != "multiquery" {
		t.Error("Attention.String mismatch")
	}
	if GELU.String() != "gelu" || SwiGLU.String() != "swiglu" {
		t.Error("FFN.String mismatch")
	}
	if Attention(7).String() == "" || FFN(7).String() == "" {
		t.Error("unknown enum String should be non-empty")
	}
}

// Table D.1 hyperparameters, verbatim.
func TestTableD1(t *testing.T) {
	p := PaLM540BPadded()
	m := MTNLG530B()
	if p.Layers != 118 || p.DModel != 18432 || p.DFF != 73728 || p.HeadDim != 256 {
		t.Errorf("PaLM 540B dims wrong: %+v", p)
	}
	if m.Layers != 105 || m.DModel != 20480 || m.DFF != 81920 || m.Heads != 128 || m.HeadDim != 160 {
		t.Errorf("MT-NLG dims wrong: %+v", m)
	}
	if p.Attn != Multiquery || m.Attn != Multihead {
		t.Error("attention kinds wrong")
	}
	if !p.ParallelBlock || m.ParallelBlock {
		t.Error("block formulations wrong")
	}
}

// An int8 KV cache stores one byte per element instead of bf16's two:
// exactly half the bytes per token, at every granularity.
func TestKVBytesPerTokenAs(t *testing.T) {
	c := PaLM540B()
	if got, want := c.KVBytesPerTokenPerLayerAs(Int8), c.KVBytesPerTokenPerLayerAs(BF16)/2; got != want {
		t.Errorf("int8 KV bytes/token/layer = %g, want %g", got, want)
	}
	if got, want := c.KVBytesPerTokenAs(Int8), c.KVBytesPerToken()/2; got != want {
		t.Errorf("int8 KV bytes/token = %g, want %g", got, want)
	}
	if c.KVBytesPerTokenAs(BF16) != c.KVBytesPerToken() {
		t.Error("BF16 KVBytesPerTokenAs does not match the default")
	}
}
