// Package reference implements an unsharded, single-device decoder-only
// Transformer forward pass (prefill with KV-cache fill, then incremental
// decode). It is the golden model the sharded engine is verified against:
// both consume the same Weights, and the engine's distributed output must
// match this package's output to float tolerance.
//
// Architecture knobs follow package model: multihead or multiquery
// attention, GELU or SwiGLU feedforward, serial or parallel block, RMS
// normalization, tied input/output embeddings (PaLM-style, minus position
// embeddings — PaLM's rotary embeddings are orthogonal to partitioning and
// omitted so the verification surface stays the sharding itself).
package reference

import (
	"fmt"
	"math"
	"math/rand"

	"esti/internal/kvcache"
	"esti/internal/model"
	"esti/internal/tensor"
)

// LayerWeights holds one Transformer layer.
type LayerWeights struct {
	NormGain    []float32   // pre-block RMS norm gain [E]
	FFNNormGain []float32   // second norm for the serial formulation [E]
	WQ          *tensor.Mat // [E, H·Dh]
	WK, WV      *tensor.Mat // [E, KVH·Dh]
	WO          *tensor.Mat // [H·Dh, E]
	WGate       *tensor.Mat // [E, F]; nil for GELU models
	WUp         *tensor.Mat // [E, F]
	WDown       *tensor.Mat // [F, E]
}

// Weights is a full model: tied embedding plus layers.
type Weights struct {
	Cfg       model.Config
	Embed     *tensor.Mat // [vocab, E]
	Layers    []LayerWeights
	FinalGain []float32 // final RMS norm gain [E]
}

// NewWeights builds reproducible random weights for a (small) config.
func NewWeights(cfg model.Config, seed int64) *Weights {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	e, f := cfg.DModel, cfg.DFF
	hq := cfg.Heads * cfg.HeadDim
	kvq := cfg.KVHeads * cfg.HeadDim
	scale := func(fanIn int) float32 { return float32(1 / math.Sqrt(float64(fanIn))) }
	w := &Weights{
		Cfg:       cfg,
		Embed:     tensor.New(cfg.Vocab, e).FillRand(rng, 0.5),
		FinalGain: ones(e),
	}
	for l := 0; l < cfg.Layers; l++ {
		lw := LayerWeights{
			NormGain:    ones(e),
			FFNNormGain: ones(e),
			WQ:          tensor.New(e, hq).FillRand(rng, scale(e)),
			WK:          tensor.New(e, kvq).FillRand(rng, scale(e)),
			WV:          tensor.New(e, kvq).FillRand(rng, scale(e)),
			WO:          tensor.New(hq, e).FillRand(rng, scale(hq)),
			WUp:         tensor.New(e, f).FillRand(rng, scale(e)),
			WDown:       tensor.New(f, e).FillRand(rng, scale(f)),
		}
		if cfg.FFNKind == model.SwiGLU {
			lw.WGate = tensor.New(e, f).FillRand(rng, scale(e))
		}
		w.Layers = append(w.Layers, lw)
	}
	return w
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Model is a reference inference session: weights plus a KV cache.
type Model struct {
	W     *Weights
	Cache *kvcache.Cache
	batch int
}

// New creates a session for a batch of sequences with the given maximum
// total length (context plus generated tokens).
func New(w *Weights, batch, maxLen int) *Model {
	return &Model{
		W:     w,
		Cache: kvcache.New(w.Cfg.Layers, batch, maxLen, w.Cfg.KVHeads*w.Cfg.HeadDim),
		batch: batch,
	}
}

// Batch returns the session's batch size.
func (m *Model) Batch() int { return m.batch }

// Prefill runs the model over `steps` new tokens per sequence (tokens is
// sequence-major: tokens[s*steps+t]), fills the KV cache, and returns the
// logits of every position, [batch·steps, vocab]. Call repeatedly for
// incremental (chunked) prefill.
func (m *Model) Prefill(tokens []int, steps int) *tensor.Mat {
	if len(tokens) != m.batch*steps {
		panic(fmt.Sprintf("reference: %d tokens for batch %d × steps %d", len(tokens), m.batch, steps))
	}
	return m.forward(tokens, steps)
}

// Decode runs one autoregressive step from the last token of each sequence
// and returns [batch, vocab] logits.
func (m *Model) Decode(last []int) *tensor.Mat {
	if len(last) != m.batch {
		panic(fmt.Sprintf("reference: %d last-tokens for batch %d", len(last), m.batch))
	}
	return m.forward(last, 1)
}

// forward is the shared prefill/decode pass over `steps` new positions.
func (m *Model) forward(tokens []int, steps int) *tensor.Mat {
	cfg := m.W.Cfg
	n := m.batch * steps
	x := tensor.New(n, cfg.DModel)
	for i, tok := range tokens {
		if tok < 0 || tok >= cfg.Vocab {
			panic(fmt.Sprintf("reference: token %d out of vocab %d", tok, cfg.Vocab))
		}
		copy(x.Row(i), m.W.Embed.Row(tok))
	}

	for l := range m.W.Layers {
		lw := &m.W.Layers[l]
		if cfg.ParallelBlock {
			h := tensor.RMSNorm(x, lw.NormGain, 1e-6)
			attnY := m.attention(l, lw, h, steps)
			ffnY := ffn(cfg, lw, h)
			x = tensor.AddInPlace(tensor.AddInPlace(x, attnY), ffnY)
		} else {
			h := tensor.RMSNorm(x, lw.NormGain, 1e-6)
			x = tensor.AddInPlace(x, m.attention(l, lw, h, steps))
			h2 := tensor.RMSNorm(x, lw.FFNNormGain, 1e-6)
			x = tensor.AddInPlace(x, ffn(cfg, lw, h2))
		}
	}
	for s := 0; s < m.batch; s++ {
		m.Cache.AdvanceSeq(s, steps)
	}

	final := tensor.RMSNorm(x, m.W.FinalGain, 1e-6)
	return tensor.MatMulT(final, m.W.Embed)
}

// attention computes the attention sub-block for `steps` new positions,
// appending the new K/V to layer l's cache.
func (m *Model) attention(l int, lw *LayerWeights, h *tensor.Mat, steps int) *tensor.Mat {
	cfg := m.W.Cfg
	q := tensor.MatMul(h, lw.WQ)
	k := tensor.MatMul(h, lw.WK)
	v := tensor.MatMul(h, lw.WV)
	for s := 0; s < m.batch; s++ {
		ks, vs := tensor.RowsView(k, s*steps, (s+1)*steps), tensor.RowsView(v, s*steps, (s+1)*steps)
		m.Cache.AppendSeq(l, s, &ks, &vs, steps)
	}

	out := Attend(cfg.HeadDim, q, m.Cache, l, m.batch, steps)
	return tensor.MatMul(out, lw.WO)
}

// Attend computes masked attention of the query tensor against a cache that
// already contains the new positions' K/V. It is exported so the sharded
// engine can reuse the identical arithmetic on its shards: the head → KV
// head mapping is derived from the *local* widths, so it works equally for
// the full tensor (reference), a head shard with matching KV columns (MHA
// head-sharded), and a batch shard against the shared multiquery head. q is
// [seqs·steps, localHeads·dh] sequence-major; query block s attends against
// cache slot s. Each slot's `past` is its own SeqLen (AppendSeq writes the
// new K/V without advancing it), so slots at different depths — the
// continuous-batching case — are handled with no extra bookkeeping.
func Attend(dh int, q *tensor.Mat, cache *kvcache.Cache, layer, seqs, steps int) *tensor.Mat {
	out := tensor.New(q.Rows, q.Cols)
	var scr AttnScratch
	for s := 0; s < seqs; s++ {
		qv := tensor.RowsView(q, s*steps, (s+1)*steps)
		ov := tensor.RowsView(out, s*steps, (s+1)*steps)
		AttendSeqInto(&ov, dh, &qv, cache, layer, s, steps, &scr)
	}
	return out
}

// AttendSeq computes masked attention of a single sequence's queries
// ([steps, localHeads·dh]) against cache slot `slot`, whose K/V already
// contain the `steps` new positions beyond the committed SeqLen. It is the
// per-slot primitive behind Attend, exported so the engine's slot-admission
// path can attend a query block against an arbitrary cache slot.
func AttendSeq(dh int, q *tensor.Mat, cache *kvcache.Cache, layer, slot, steps int) *tensor.Mat {
	var scr AttnScratch
	return AttendSeqInto(tensor.New(steps, q.Cols), dh, q, cache, layer, slot, steps, &scr)
}

// ffn computes the feedforward sub-block.
func ffn(cfg model.Config, lw *LayerWeights, h *tensor.Mat) *tensor.Mat {
	if cfg.FFNKind == model.SwiGLU {
		gate := tensor.MatMul(h, lw.WGate)
		up := tensor.MatMul(h, lw.WUp)
		tensor.SiLU(gate)
		return tensor.MatMul(tensor.Mul(gate, up), lw.WDown)
	}
	act := tensor.MatMul(h, lw.WUp)
	tensor.GELU(act)
	return tensor.MatMul(act, lw.WDown)
}

// Generate greedily decodes `gen` tokens after prefilling `prompt` (length
// `promptLen` per sequence), returning the generated token ids per sequence.
func (m *Model) Generate(prompt []int, promptLen, gen int) [][]int {
	logits := m.Prefill(prompt, promptLen)
	out := make([][]int, m.batch)
	last := make([]int, m.batch)
	for s := 0; s < m.batch; s++ {
		last[s] = argmaxRow(logits, s*promptLen+promptLen-1)
		out[s] = append(out[s], last[s])
	}
	for g := 1; g < gen; g++ {
		logits = m.Decode(last)
		for s := 0; s < m.batch; s++ {
			last[s] = argmaxRow(logits, s)
			out[s] = append(out[s], last[s])
		}
	}
	return out
}

func argmaxRow(m *tensor.Mat, r int) int {
	row := m.Row(r)
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}
