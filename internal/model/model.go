// Package model describes decoder-only Transformer architectures at the
// level of detail the paper's inference-cost analysis needs: layer counts,
// hidden dimensions, attention variant (multihead vs multiquery), block
// formulation (serial vs parallel), and the derived quantities — parameter
// count, weight bytes, KV-cache bytes, and matmul FLOPs per token.
//
// Presets cover the PaLM family (8B, 62B, 540B and the padded-heads 540B
// variant the paper actually benchmarks) and Megatron-Turing NLG 530B
// (Table D.1), plus the reduced variants used in Figure 8.
package model

import "fmt"

// Attention enumerates the attention variants the paper analyzes.
type Attention int

const (
	// Multihead attention: every head has its own K and V projections.
	Multihead Attention = iota
	// Multiquery attention: all query heads share a single K/V head
	// (Shazeer 2019), shrinking the KV cache by a factor of nheads.
	Multiquery
)

func (a Attention) String() string {
	switch a {
	case Multihead:
		return "multihead"
	case Multiquery:
		return "multiquery"
	}
	return fmt.Sprintf("Attention(%d)", int(a))
}

// FFN enumerates feedforward variants. PaLM uses a gated (SwiGLU) MLP with
// three weight matrices; Megatron uses the classic two-matrix GELU MLP.
type FFN int

const (
	// GELU is the two-matrix MLP: W_in [E,F], W_out [F,E].
	GELU FFN = iota
	// SwiGLU is the gated three-matrix MLP: W_gate and W_up [E,F],
	// W_down [F,E].
	SwiGLU
)

func (f FFN) String() string {
	switch f {
	case GELU:
		return "gelu"
	case SwiGLU:
		return "swiglu"
	}
	return fmt.Sprintf("FFN(%d)", int(f))
}

// DType enumerates storage/wire element formats. Matmul arithmetic stays
// bf16 in all cases (matching the paper: int8 affects weight memory,
// KV-cache bytes and communication volume only).
type DType int

const (
	// BF16: 2 bytes per element (weights, activations and the KV cache
	// default to it).
	BF16 DType = iota
	// Int8: 1 byte per element (AQT-style weight quantization, the
	// quantize-at-append KV cache, and int8 collective payloads).
	Int8
	// FP32: 4 bytes per element — the functional engine's exact wire and
	// storage format, used when the analytic model prices the simulated
	// mesh rather than real hardware.
	FP32
)

// Bytes returns the storage size of one element.
func (d DType) Bytes() float64 {
	switch d {
	case Int8:
		return 1
	case FP32:
		return 4
	}
	return 2
}

func (d DType) String() string {
	switch d {
	case Int8:
		return "int8"
	case FP32:
		return "fp32"
	}
	return "bf16"
}

// Config is a decoder-only Transformer architecture.
type Config struct {
	Name    string
	Layers  int
	DModel  int // embedding / residual width (E)
	DFF     int // feedforward intermediate width (F)
	Heads   int // query heads (H)
	HeadDim int // per-head dimension (Q)
	// KVHeads is the number of key/value heads: Heads for multihead,
	// 1 for multiquery.
	KVHeads int
	Attn    Attention
	FFNKind FFN
	// ParallelBlock indicates the PaLM-style formulation where attention
	// and FFN both read the layernormed input and are summed, rather than
	// being applied serially.
	ParallelBlock bool
	Vocab         int
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Layers <= 0 || c.DModel <= 0 || c.DFF <= 0 || c.Heads <= 0 || c.HeadDim <= 0 {
		return fmt.Errorf("model %q: non-positive dimension", c.Name)
	}
	if c.Vocab <= 0 {
		return fmt.Errorf("model %q: non-positive vocab", c.Name)
	}
	switch c.Attn {
	case Multihead:
		if c.KVHeads != c.Heads {
			return fmt.Errorf("model %q: multihead needs KVHeads == Heads (%d != %d)", c.Name, c.KVHeads, c.Heads)
		}
	case Multiquery:
		if c.KVHeads != 1 {
			return fmt.Errorf("model %q: multiquery needs KVHeads == 1, got %d", c.Name, c.KVHeads)
		}
	default:
		return fmt.Errorf("model %q: unknown attention %d", c.Name, int(c.Attn))
	}
	return nil
}

// FFNMatrices is the number of weight matrices in the MLP.
func (c Config) FFNMatrices() int {
	if c.FFNKind == SwiGLU {
		return 3
	}
	return 2
}

// FFNParamsPerLayer counts MLP parameters in one layer.
func (c Config) FFNParamsPerLayer() float64 {
	return float64(c.FFNMatrices()) * float64(c.DModel) * float64(c.DFF)
}

// AttnParamsPerLayer counts attention projection parameters in one layer:
// W_Q [E, H·Q], W_K and W_V [E, KVHeads·Q], W_O [H·Q, E].
func (c Config) AttnParamsPerLayer() float64 {
	e := float64(c.DModel)
	hq := float64(c.Heads * c.HeadDim)
	kvq := float64(c.KVHeads * c.HeadDim)
	return e*hq + 2*e*kvq + hq*e
}

// ParamsPerLayer counts all matmul parameters in one Transformer layer.
func (c Config) ParamsPerLayer() float64 {
	return c.FFNParamsPerLayer() + c.AttnParamsPerLayer()
}

// EmbeddingParams counts the (shared input/output) token embedding table.
func (c Config) EmbeddingParams() float64 {
	return float64(c.Vocab) * float64(c.DModel)
}

// Params is the total parameter count, embedding included.
func (c Config) Params() float64 {
	return float64(c.Layers)*c.ParamsPerLayer() + c.EmbeddingParams()
}

// WeightBytes is the total weight footprint for the given storage dtype.
func (c Config) WeightBytes(d DType) float64 { return c.Params() * d.Bytes() }

// WeightBytesPerLayer is one layer's weight footprint.
func (c Config) WeightBytesPerLayer(d DType) float64 {
	return c.ParamsPerLayer() * d.Bytes()
}

// KVBytesPerTokenPerLayerAs is the KV-cache footprint of one token in one
// layer (K and V) with the cache stored in the given dtype: an int8 KV
// cache (quantize at append, dequantize in the attention walk) halves the
// bytes per cached token, which halves the decode step's dominant HBM traffic and doubles the
// context that fits a chip's memory budget. The per-row quantization
// scales are a <2% overhead at real KV widths and are ignored here, like
// every other sub-percent constant in the analytic model.
func (c Config) KVBytesPerTokenPerLayerAs(d DType) float64 {
	return 2 * float64(c.KVHeads) * float64(c.HeadDim) * d.Bytes()
}

// KVBytesPerToken is the full-model KV-cache footprint of one token.
func (c Config) KVBytesPerToken() float64 {
	return c.KVBytesPerTokenAs(BF16)
}

// KVBytesPerTokenAs is KVBytesPerToken for a KV cache stored in the given
// dtype.
func (c Config) KVBytesPerTokenAs(d DType) float64 {
	return float64(c.Layers) * c.KVBytesPerTokenPerLayerAs(d)
}

// MatmulFLOPsPerToken is the forward-pass matmul work per token: 2 FLOPs per
// parameter (Kaplan et al. 2020), embedding/unembedding included (the output
// projection is a real matmul; the input lookup is free but its parameters
// are shared with the output projection, so 2·Params is the standard count
// the paper uses as "2N").
func (c Config) MatmulFLOPsPerToken() float64 { return 2 * c.Params() }

// WithHeads returns a copy with the query-head count (and, for multihead
// models, the KV-head count) replaced. Used for the paper's 48→64 head
// padding ablation on PaLM 540B.
func (c Config) WithHeads(heads int) Config {
	out := c
	out.Heads = heads
	if c.Attn == Multihead {
		out.KVHeads = heads
	}
	out.Name = fmt.Sprintf("%s-h%d", c.Name, heads)
	return out
}

// WithLayers returns a copy with the layer count replaced (Figure 8 uses an
// 8-layer variant of PaLM 540B).
func (c Config) WithLayers(layers int) Config {
	out := c
	out.Layers = layers
	out.Name = fmt.Sprintf("%s-l%d", c.Name, layers)
	return out
}

const palmVocab = 256000

// PaLM8B is the PaLM 8B architecture (32 layers, d_model 4096, 16 heads of
// dim 256, multiquery, parallel block, SwiGLU).
func PaLM8B() Config {
	return Config{
		Name: "PaLM 8B", Layers: 32, DModel: 4096, DFF: 16384,
		Heads: 16, HeadDim: 256, KVHeads: 1, Attn: Multiquery,
		FFNKind: SwiGLU, ParallelBlock: true, Vocab: palmVocab,
	}
}

// PaLM62B is the PaLM 62B architecture (64 layers, d_model 8192, 32 heads).
func PaLM62B() Config {
	return Config{
		Name: "PaLM 62B", Layers: 64, DModel: 8192, DFF: 32768,
		Heads: 32, HeadDim: 256, KVHeads: 1, Attn: Multiquery,
		FFNKind: SwiGLU, ParallelBlock: true, Vocab: palmVocab,
	}
}

// PaLM540B is the published PaLM 540B architecture (118 layers, d_model
// 18432, 48 heads of dim 256, multiquery, parallel block).
func PaLM540B() Config {
	return Config{
		Name: "PaLM 540B", Layers: 118, DModel: 18432, DFF: 73728,
		Heads: 48, HeadDim: 256, KVHeads: 1, Attn: Multiquery,
		FFNKind: SwiGLU, ParallelBlock: true, Vocab: palmVocab,
	}
}

// PaLM540BPadded is PaLM 540B with attention heads padded from 48 to 64 so
// the head dimension partitions evenly on 64+ chips; the paper reports this
// adds 18B parameters at a 3% MFU cost and is what they benchmark.
func PaLM540BPadded() Config {
	c := PaLM540B().WithHeads(64)
	c.Name = "PaLM 540B (64 heads)"
	return c
}

// PaLM540BMHA is the paper's multihead-attention control variant of PaLM
// 540B: head dim shrunk 256→128 so attention parameter count matches the
// multiquery variant (Section 4.2, Figure 8, Table 1). Like the benchmarked
// multiquery model it uses the padded 64-head count — Table 1's published
// max-context values (1320 at batch 128, 330 at batch 512) only reconcile
// with 64 KV heads of dim 128.
func PaLM540BMHA() Config {
	return Config{
		Name: "PaLM 540B-MHA", Layers: 118, DModel: 18432, DFF: 73728,
		Heads: 64, HeadDim: 128, KVHeads: 64, Attn: Multihead,
		FFNKind: SwiGLU, ParallelBlock: true, Vocab: palmVocab,
	}
}

// MTNLG530B is Megatron-Turing NLG 530B per Table D.1: 105 layers, d_model
// 20480, d_ff 81920, 128 heads of dim 160, multihead, serial block, GELU.
func MTNLG530B() Config {
	return Config{
		Name: "MT-NLG 530B", Layers: 105, DModel: 20480, DFF: 81920,
		Heads: 128, HeadDim: 160, KVHeads: 128, Attn: Multihead,
		FFNKind: GELU, ParallelBlock: false, Vocab: 51200,
	}
}
