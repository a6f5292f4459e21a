// Package engine executes a decoder-only Transformer across a simulated
// chip mesh using the paper's partitioning layouts, with every cross-chip
// byte moved by real collectives (package collective) over real messages
// (package mesh). Its contract: for any supported layout, the distributed
// logits equal the unsharded reference model's logits.
//
// One SPMD pass. Every entry point — Prefill, Decode, DecodeSlotsInto with
// its per-slot mask, PrefillSlot admitting one prompt into one slot — fills in
// the same pass descriptor (tokens, steps, mask, target slot), which is
// checked on the host and then run by the one per-chip body bound at
// construction. A chip works on the sequences of the pass its KV-cache
// shard holds (seqsOn): all of them under head-sharded attention, its
// batch/n under batch-sharded attention — possibly none of an admission.
//
// One per-chip program for every layout. The paper writes its layouts as
// the same einsum under different sharding annotations (Section 3.2,
// Figure 2); here the annotation is data — torus axis groups — and the
// three functional layouts run the same body, differing only in their
// groups plus the weight-gathered layout's per-layer gather. The residual
// stream is E-sharded over the chip's activation group: all chips under
// weight-stationary, the empty group under weight-gathered, whose chips
// hold their own sequences at full width. Over a group of one every
// collective is an identity, so a weight-gathered chip runs the one-chip
// program on its sequences, its weights all-gathered into staging before
// each layer (wgxyz.go).
//
// One input gather per block. Each block all-gathers the residual over the
// activation group once (gatherNorm) and RMS-normalizes the full rows on
// every chip, so the norm needs no collective of its own. Attention and the
// FFN both read that gather: attention contracts the full rows, and the FFN
// picks its plan's stripe out of them (stripe). This is the input side of
// the paper's parallel block (Section 3.4), whose attention and FFN input
// projections share one collective. A serial block gathers a second time
// before its FFN, over the whole activation group: under 2D that moves more
// bytes than a norm all-reduce plus a Y·Z gather of the FFN's stripe would,
// in fewer messages.
//
// The feed-forward plan (ffnPlan) is a pair of groups. Weights are cut E×F
// into inner × outer blocks; per layer the chip multiplies its stripe of the
// gathered rows, reduce-scatters over the inner group, applies the
// nonlinearity, all-gathers over the inner group, multiplies, and
// reduce-scatters over the outer group back to its E-shard.
//
//   - FFN 2D weight-stationary (Section 3.2.2): outer = Y·Z, inner = X;
//     the FFN's own activations alternate aggregation over the two groups
//     and are never fully replicated.
//   - FFN 1D weight-stationary (Section 3.2.1): outer = all chips, inner =
//     the empty group — weights sharded along d_ff only, the stripe is the
//     whole gathered row, and the output is reduce-scattered after the
//     second matmul.
//   - FFN weight-gathered XYZ (Section 3.2.3, Figure A.2(c)): both groups
//     empty; each layer's weights are all-gathered from the same ExFyz
//     at-rest blocks the 2D plan stores, so all communication is weight
//     traffic.
//
// With Options.Streamed a weight-stationary plan's down-projection rides its
// rings (Section 3.5, stream.go): it folds chunk by chunk in the inner
// gather's consumer — or runs in the outer reduce-scatter's producer when
// the inner group has one member and there is no inner ring to ride — and
// the reduce-scatters stream their input transposes. Each chunk multiplies a
// zero-copy row block or column range of the one stored W_down shard.
//
// One weight type. A shard is a GEMM operand (simd.GemmB) over float32 or
// raw int8 weights, plus the int8 column scales; every projection runs the
// one tile under the one driver and applies the scales, if any, once per
// output. Under Int8Weights each full matrix is quantized once and every
// chip cuts its shards from that quantization.
//
// Attention layouts:
//
//   - Sharded over heads (Figure 4(a)/(b)): each chip owns a head block; for
//     multiquery models the single K/V head is replicated per chip — the
//     memory pathology the paper identifies.
//   - Sharded over batch (Figure 4(c)/5(b)): the KV cache is partitioned
//     over sequences; per-step Q and attention outputs are resharded with
//     all-to-all collectives.
//
// The partially-gathered X / XY variants remain analytic-only (packages
// commcost/perf); their volume formulas interpolate between the 2D
// weight-stationary and XYZ-gathered endpoints that are both validated
// functionally here.
//
// PrefillSlot and DecodeSlotsInto serve a continuous-batching scheduler:
// admission into a freed KV-cache slot mid-stream, then decode of whatever
// subset of slots is live, each at its own depth. A pass appends at each
// slot's current depth and attends causally against everything before it,
// which yields two admission optimizations for free (prefix.go):
// shared-prefix reuse, where a cached system prompt's K/V are attached from
// a reference-counted per-chip store and only the suffix is prefilled
// (AcquirePrefix/PrefillSlotFrom/PrefillSlotCached), and chunked prefill,
// where a long cold prompt is admitted in bounded chunks interleaved with
// decode iterations (successive PrefillSlot calls). Both are verified token-exact
// against the cold path and the batch-1 reference across all functional
// layouts.
//
// The attention and FFN projections share their input gather but remain
// separate matmuls, and their output partials are reduce-scattered
// separately: fusing the weights is a throughput optimization with
// identical numerics, and keeping them apart keeps each layout legible.
//
// Storage and wire formats are per-session options, each independently
// togglable on every layout: Int8Weights (quantized projections), KVDType
// (quantized KV cache), and WireDType (quantized collective payloads — every
// collective the engine issues, its all-gathers, reduce-scatters,
// all-to-alls and weight-gather staging, moves per-chunk-scaled int8 via the
// payload-typed collectives, the residual gather per-token-scaled, at about
// 0.3x the float32 wire bytes).
package engine

import (
	"fmt"
	"math"

	"esti/internal/collective"
	"esti/internal/hardware"
	"esti/internal/kvcache"
	"esti/internal/mesh"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/quant"
	"esti/internal/reference"
	"esti/internal/simd"
	"esti/internal/tensor"
)

// Options selects the partitioning and storage formats.
//
// Storage and wire formats are expressed as model.DType values — the same
// typed vocabulary serve.Config, batching.Config, and perf.Request use — so
// one configuration surface flows unchanged from the analytic stack into
// the functional engine. The zero value (model.BF16) is the default float
// path; model.Int8 selects the quantized path; model.FP32 behaves like the
// default (the engine computes in float32 either way).
type Options struct {
	FFN  partition.FFNLayout
	Attn partition.AttnLayout
	// KVDType is the KV-cache storage format (matches
	// serve.Config.KVDType / batching.Config.KVDType). model.Int8 stores
	// every chip's KV-cache shard quantized (per-row symmetric int8,
	// quantized at append, dequantized inside the fused attention walk),
	// halving cache bytes per position and so roughly doubling the servable
	// context per chip — §3.3's int8 path applied to the decode phase's
	// dominant memory object. Orthogonal to Int8Weights and valid on every
	// layout: the K/V projections, the resharding all-to-alls and all other
	// wire traffic are unchanged (quantization happens at the cache boundary
	// on each chip).
	KVDType model.DType
	// WireDType is the collective payload format (matches
	// serve.Config.WireDType). model.Int8 moves the activation all-gathers
	// and reduce-scatters (agCols/rsCols), the attention resharding
	// all-to-alls, and the weight-gathered layout's per-layer weight staging
	// as per-chunk-scaled int8 instead of float32 (collective.WireInt8): 1
	// byte per element plus one scale per chunk, ≤0.55× the fp32 wire bytes,
	// the §3.3 move-int8-not-float insight applied to what's *on the wire*
	// rather than what's at rest. That is every collective the engine
	// issues: the RMS norm gathers the residual and normalizes full rows
	// locally (gatherNorm), so no float32 all-reduce remains, and an int8-wire
	// session sends no float32 bytes at all. That gather carries one scale
	// per token rather than per chunk (collective.WireInt8Rows), because the
	// raw residual's rows, unlike normalized ones, can differ in magnitude by
	// orders. Each chip normalizes its own shard exact and its peers'
	// dequantized. Orthogonal to
	// Int8Weights/KVDType and valid on every layout; quantize/dequantize
	// scratch comes from the per-chip message pools, so steady-state decode
	// stays allocation-free.
	WireDType model.DType
	// Int8Weights stores all projection matrices quantized (per-column
	// symmetric int8, each full matrix quantized once and then cut into
	// shards), reproducing the paper's weight-only quantization.
	Int8Weights bool
	// Streamed fuses the weight-stationary FFN's down-projection into the
	// collective chunk stream — the paper's Looped CollectiveEinsum (§3.5);
	// the package comment says which ring it rides. Compute on chunk k
	// proceeds while chunk k+1 is in flight, which is what the mesh's
	// measured overlap fraction (Mesh.MeasuredOverlapFrac) observes.
	// Results are token-exact vs the barrier path on every layout and wire
	// format, and bit-exact where the inner group has one member (1D): only
	// the inner gather's chunked accumulation reorders float sums. A plan
	// over one chip — a single-chip mesh, or the weight-gathered layout, whose
	// per-layer weight gather streams either way — has nothing to overlap
	// and keeps the barrier path and its zero-allocation decode contract.
	// Valid on every layout, orthogonal to the Int8 options.
	Streamed bool
}

// validate rejects an attention layout or a dtype outside the vocabulary
// above.
func (o *Options) validate() error {
	if o.Attn != partition.AttnShardHeads && o.Attn != partition.AttnShardBatch {
		return fmt.Errorf("engine: unknown attention layout %v", o.Attn)
	}
	for _, d := range []model.DType{o.KVDType, o.WireDType} {
		switch d {
		case model.BF16, model.Int8, model.FP32:
		default:
			return fmt.Errorf("engine: unknown dtype %d", d)
		}
	}
	return nil
}

// shard is a weight matrix on a chip, or a block of one, as the GEMM reads
// it: k rows of n weights behind a simd.GemmB, float32 or raw int8, and for
// int8 the per-column scales that make them weights (nil for float). The
// format is data, not a code path. Every multiply runs the one driver,
// tensor.GemmInto, over b and then applies the scales, if any, once per
// output: the paper's weight-only int8 (Section 3.6) saves weight bytes, not
// compute. A block of rows or a range of columns is the same strides over a
// sub-slice (rows, cols), so a streamed down-projection's per-chunk blocks
// are views of the one stored shard.
type shard struct {
	k, n   int
	b      simd.GemmB
	scales []float32
}

// matShard wraps a row-major k×n array as a shard.
func matShard[T float32 | int8](data []T, k, n int, scales []float32) shard {
	s := shard{k: k, n: n, b: simd.GemmB{RowStride: n, StripStride: 8}, scales: scales}
	switch d := any(data).(type) {
	case []float32:
		s.b.F32 = d
	case []int8:
		s.b.I8 = d
	}
	return s
}

// take copies block ct of a row-major shard into a shard of its own, with
// the block's column scales. Cutting int8 weights quantized whole (quantize
// once, then shard, as a real checkpoint pipeline does) keeps every chip's
// arithmetic consistent with the unsharded quantized model; quantizing each
// shard would give it scales of its own.
func (s shard) take(ct cut) shard {
	var scales []float32
	if s.scales != nil {
		scales = cutOut(s.scales, s.n, cut{rows: []int{0}, cols: ct.cols})
	}
	if s.b.I8 != nil {
		return matShard(cutOut(s.b.I8, s.n, ct), len(ct.rows), len(ct.cols), scales)
	}
	return matShard(cutOut(s.b.F32, s.n, ct), len(ct.rows), len(ct.cols), scales)
}

// rows is the zero-copy block of rows [lo, hi): the contraction chunk an
// inner gather delivers. It keeps all of s's scales.
func (s shard) rows(lo, hi int) shard {
	s.b, s.k = s.from(lo*s.b.RowStride), hi-lo
	return s
}

// cols is the zero-copy range of columns [lo, hi) of row-major weights, with
// their scales: the output chunk a reduce-scatter's producer computes. Each
// output's contraction is the full product's, so a range's product is
// bit-identical to those columns of the whole.
func (s shard) cols(lo, hi int) shard {
	s.b, s.n = s.from(lo), hi-lo
	if s.scales != nil {
		s.scales = s.scales[lo:hi]
	}
	return s
}

// from is s's operand starting off elements into its weights.
func (s shard) from(off int) simd.GemmB {
	b := s.b
	if b.I8 != nil {
		b.I8 = b.I8[off:]
	} else {
		b.F32 = b.F32[off:]
	}
	return b
}

// mulA multiplies activations by the shard into an arena matrix, the
// multiply form the per-pass code uses, so a steady-state pass allocates
// nothing.
func (s shard) mulA(ar *tensor.Arena, a *tensor.Mat) *tensor.Mat {
	return s.mulInto(ar.Mat(a.Rows, s.n), a)
}

// mulInto sets dst, reshaped to [a.Rows, n], to a·s and returns it (the
// streamed down-projection reuses one dst for every chunk).
func (s shard) mulInto(dst, a *tensor.Mat) *tensor.Mat {
	dst.Reshape(a.Rows, s.n)
	s.gemm(dst, a, false)
	s.finishAcc(dst)
	return dst
}

// mulAcc folds a contraction chunk's raw partial product into dst, which
// must already be [a.Rows, n] and zeroed or hold earlier chunks' partials.
// The caller applies int8 scales once with finishAcc after the last chunk,
// matching the unsharded multiply's single scale application.
func (s shard) mulAcc(dst, a *tensor.Mat) { s.gemm(dst, a, true) }

// finishAcc applies the column scales of int8 weights; float weights have
// none. Call it on the shard whose row blocks were accumulated: they share
// its scales.
func (s shard) finishAcc(dst *tensor.Mat) {
	if s.scales != nil {
		quant.ScaleColumns(dst, s.scales)
	}
}

// gemm is dst = a·s, or dst += a·s when acc, over the raw weights.
func (s shard) gemm(dst, a *tensor.Mat, acc bool) {
	if a.Cols != s.k || dst.Rows != a.Rows || dst.Cols != s.n {
		panic(fmt.Sprintf("engine: [%d,%d]·[%d,%d] weights into [%d,%d]", a.Rows, a.Cols, s.k, s.n, dst.Rows, dst.Cols))
	}
	tensor.GemmInto(dst, a, s.b, acc)
}

// chipLayer is one layer's weight shards on one chip, each stored once: a
// streamed session's per-chunk blocks of wDown are views taken as the chunks
// arrive (ffnDownStreamed).
type chipLayer struct {
	normGain    []float32
	ffnNormGain []float32
	// FFN shards: this chip's E×F block of the plan (see ffnPlan).
	wGate, wUp, wDown shard
	// Attention shards: this chip's query-head block, K/V per variant,
	// and the matching WO row block.
	wq, wk, wv, wo shard
}

// ffnPlan is how the weight-stationary feed-forward is laid over the torus,
// as one chip sees it: the paper's layouts are one einsum under different
// sharding annotations (Section 3.2, Figure 2), and the annotation is this
// pair of axis groups. The weights are cut E×F into nInner × nOuter blocks.
// A layer takes the E/nInner columns of this chip's stripe from the block's
// gathered input (stripe), multiplies, reduce-scatters the partial sums over
// the inner group (to F/n), applies the nonlinearity, all-gathers over the
// inner group (to F/nOuter), multiplies, and reduce-scatters over the outer
// group back to E/n.
//
//	1D weight-stationary (3.2.1): outer = XYZ, inner = the empty group —
//	    both inner collectives are identities and the stripe is the whole
//	    gathered row.
//	2D weight-stationary (3.2.2): outer = YZ, inner = X — the FFN's hidden
//	    activations are never fully replicated.
//	weight-gathered XYZ (3.2.3): both groups empty — the chip multiplies
//	    the full weights gatherLayer stages; its at-rest blocks are the 2D
//	    plan's.
type ffnPlan struct {
	outer, inner   hardware.AxisGroup
	nOuter, nInner int // group sizes; nOuter·nInner = nAct
	iOuter, iInner int // this chip's index in each group
}

// ffnPlan returns a chip's view of a layout's plan.
func (e *Engine) ffnPlan(rank int, layout partition.FFNLayout) ffnPlan {
	p := ffnPlan{outer: hardware.GroupYZ, inner: hardware.GroupX}
	switch layout {
	case partition.FFN1DWeightStationary:
		p.outer, p.inner = hardware.GroupXYZ, nil
	case partition.FFNWeightGatheredXYZ:
		p.outer, p.inner = nil, nil
	}
	c := e.m.Chip(rank)
	p.iOuter, p.nOuter = c.GroupRank(p.outer)
	p.iInner, p.nInner = c.GroupRank(p.inner)
	return p
}

// block returns the indices of the chip's weight block: the E columns of
// its stripe — E/n-wide blocks iInner, iInner+nInner, ..., the order stripe
// takes them in, so weight rows match — and its contiguous F/nOuter columns.
func (p ffnPlan) block(cfg model.Config) (eIdx, fIdx []int) {
	eBlock := cfg.DModel / (p.nOuter * p.nInner)
	eIdx = make([]int, 0, p.nOuter*eBlock)
	for j := 0; j < p.nOuter; j++ {
		eIdx = append(eIdx, contiguous((p.iInner+p.nInner*j)*eBlock, eBlock)...)
	}
	fBlock := cfg.DFF / p.nOuter
	return eIdx, contiguous(p.iOuter*fBlock, fBlock)
}

// stripe picks the chip's FFN input out of the block's gathered rows h: the
// E/n-wide column blocks iInner + nInner·j, in the order block cuts the
// weight rows. The gather assembles h in activation-group order, whose index
// is iInner + nInner·iOuter, so the stripe is what an all-gather of the
// E-shards over the outer group would assemble. With no inner group the
// stripe is all of h, returned as is.
func stripe(ar *tensor.Arena, h *tensor.Mat, p *ffnPlan) *tensor.Mat {
	if p.nInner == 1 {
		return h
	}
	eBlock := h.Cols / (p.nOuter * p.nInner)
	out := ar.Mat(h.Rows, p.nOuter*eBlock)
	for i := 0; i < h.Rows; i++ {
		src, dst := h.Row(i), out.Row(i)
		for j := 0; j < p.nOuter; j++ {
			lo := (p.iInner + p.nInner*j) * eBlock
			copy(dst[j*eBlock:(j+1)*eBlock], src[lo:lo+eBlock])
		}
	}
	return out
}

// chipState is everything one chip owns.
type chipState struct {
	// layers are this chip's weights, per layer; under weight-gathered every
	// entry shares one set of staging weights (gatherLayer).
	layers []chipLayer
	// act is the group the residual stream is E-sharded over — every chip
	// under weight-stationary, the empty group under weight-gathered — with
	// its size and this chip's index in it.
	act        hardware.AxisGroup
	nAct, iAct int
	embedCols  *tensor.Mat // [vocab, E/nAct]: this chip's residual-stream slice
	embedRows  *tensor.Mat // [vocab/nAct, E]: this chip's logit rows
	finalGain  []float32
	cache      *kvcache.Cache
	// prefix is this chip's shard of the shared-prefix store (nil until
	// EnablePrefixCache).
	prefix *kvcache.PrefixStore
	opID   uint64
	// wire is the payload format the data-plane collectives travel in
	// (nil = float32; collective.WireInt8 under an int8 Options.WireDType).
	wire collective.Payload
	// normWire is the format gatherNorm moves the residual in: float32, or
	// int8 with one scale per token (collective.WireInt8Rows), since a raw
	// residual's rows can differ in magnitude by orders.
	normWire collective.Payload
	// plan is the feed-forward sharding as this chip sees it.
	plan ffnPlan
	// wg holds the weight-gathered layout's at-rest shards (nil otherwise).
	wg *wgState

	// Per-chip scratch: every temporary of a forward pass comes from the
	// arena (reset at the top of each pass) and the attention softmax runs
	// in scr (pre-sized to heads-per-KV-head × maxLen), so a steady-state
	// decode iteration performs zero heap allocations on this chip.
	arena tensor.Arena
	scr   reference.AttnScratch
	// logits is this chip's output of the latest pass (arena-backed, valid
	// until the chip's next pass; public APIs clone or copy out of it).
	logits *tensor.Mat
	// shards is the shard-pointer table the attention all-to-alls send
	// from, one entry per chip; contents are transient within one layer.
	shards [][]float32
}

// Engine is a sharded inference session.
type Engine struct {
	cfg    model.Config
	opts   Options
	m      *mesh.Mesh
	chips  []*chipState
	batch  int
	maxLen int
	// slotPfx holds, per slot, the acquired prefix ref whose store
	// references ReleaseSlot must give back.
	slotPfx []*PrefixRef

	// fw carries the current pass's arguments to the per-chip SPMD body,
	// and runFwd is that body (chipForward) bound once at construction, so
	// issuing a pass allocates neither an argument struct nor a closure.
	fw     pass
	runFwd func(c *mesh.Chip)
}

// New shards the reference weights onto a mesh. It validates the
// divisibility constraints the layouts need.
func New(w *reference.Weights, t hardware.Torus, opts Options, batch, maxLen int) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if batch < 1 || maxLen < 1 {
		return nil, fmt.Errorf("engine: batch %d and maxLen %d must both be at least 1", batch, maxLen)
	}
	cfg := w.Cfg
	n := t.Chips()
	if cfg.DModel%n != 0 {
		return nil, fmt.Errorf("engine: d_model %d not divisible by %d chips", cfg.DModel, n)
	}
	if cfg.Vocab%n != 0 {
		return nil, fmt.Errorf("engine: vocab %d not divisible by %d chips", cfg.Vocab, n)
	}
	if cfg.Heads%n != 0 {
		return nil, fmt.Errorf("engine: %d heads not divisible by %d chips", cfg.Heads, n)
	}
	switch opts.FFN {
	case partition.FFN1DWeightStationary, partition.FFN2DWeightStationary:
	case partition.FFNWeightGatheredXYZ:
		// Token-sharded activations: attention must be batch-sharded and
		// the batch must split evenly; weights gather from ExFyz shards.
		if opts.Attn != partition.AttnShardBatch {
			return nil, fmt.Errorf("engine: weight-gathered XYZ requires batch-sharded attention")
		}
		if opts.Int8Weights {
			return nil, fmt.Errorf("engine: weight-gathered XYZ is float-only in the functional engine")
		}
	default:
		return nil, fmt.Errorf("engine: layout %v not supported functionally (analytic only)", opts.FFN)
	}
	// Every plan cuts d_ff over all chips (inner × outer).
	if cfg.DFF%n != 0 {
		return nil, fmt.Errorf("engine: d_ff %d not divisible by %d chips", cfg.DFF, n)
	}
	if opts.Attn == partition.AttnShardBatch && batch%n != 0 {
		return nil, fmt.Errorf("engine: batch %d not divisible by %d chips for batch sharding", batch, n)
	}
	if cfg.Attn == model.Multihead && cfg.KVHeads%n != 0 && opts.Attn == partition.AttnShardHeads {
		return nil, fmt.Errorf("engine: %d KV heads not divisible by %d chips", cfg.KVHeads, n)
	}

	e := &Engine{cfg: cfg, opts: opts, m: mesh.New(t), batch: batch, maxLen: maxLen,
		slotPfx: make([]*PrefixRef, batch)}
	e.chips = make([]*chipState, n)
	full := e.fullShards(w)
	for r := 0; r < n; r++ {
		e.chips[r] = e.buildChip(w, full, r)
		// The walk scores all query heads of one KV head at once; no
		// sharding gives a chip more of them per KV head than the model has.
		e.chips[r].scr.Reserve(cfg.Heads / cfg.KVHeads * maxLen)
		if opts.WireDType == model.Int8 {
			e.chips[r].wire = collective.WireInt8
			e.chips[r].normWire = collective.WireInt8Rows(e.chips[r].embedCols.Cols)
		}
	}
	e.runFwd = e.chipForward
	return e, nil
}

// Reset returns every slot to empty — lengths zeroed, allocations freed,
// acquired prefix references given back — without reallocating any
// storage, so a benchmark or serving loop can reuse one engine session
// across logical sessions. Like kvcache.Reset, slot storage is not zeroed;
// use ReleaseSlot for per-slot eviction hygiene on a live batch.
func (e *Engine) Reset() {
	for _, st := range e.chips {
		st.cache.Reset()
	}
	for s, ref := range e.slotPfx {
		if ref != nil {
			e.slotPfx[s] = nil
			e.ReleasePrefix(ref)
		}
	}
}

// Mesh exposes the fabric for traffic inspection.
func (e *Engine) Mesh() *mesh.Mesh { return e.m }

// ChipCacheBytes returns the allocated KV-cache bytes on one chip — the
// quantity whose sharding behavior Table 1 is about. With an int8 KVDType it
// reports the true quantized backing bytes (just over half the analytic
// model's bf16 baseline per position).
func (e *Engine) ChipCacheBytes(rank int) int { return e.chips[rank].cache.Bytes() }

// MeasuredOverlap is the mesh's observed compute-communication overlap
// fraction across the session's streamed collectives so far: the share of
// streamed-collective wall time spent in chunk consumers rather than
// blocked on the wire (0 until a streamed pass has run). It is the
// functional counterpart of perf.Knobs.OverlapFrac.
func (e *Engine) MeasuredOverlap() float64 { return e.m.MeasuredOverlapFrac() }

// Batch returns the session batch size.
func (e *Engine) Batch() int { return e.batch }

// cut is a block of a matrix: the rows and the columns it holds, each
// strictly increasing.
type cut struct{ rows, cols []int }

// cutOut copies block ct out of a row-major matrix with n columns.
func cutOut[T float32 | int8](data []T, n int, ct cut) []T {
	w := len(ct.cols)
	out := make([]T, len(ct.rows)*w)
	for i, r := range ct.rows {
		src, dst := data[r*n:(r+1)*n], out[i*w:(i+1)*w]
		for j, c := range ct.cols {
			dst[j] = src[c]
		}
	}
	return out
}

func contiguous(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// fullShards returns every layer's weight matrices, in gather order (no
// gate for GELU), whole: the reference float32 values, or under Int8Weights
// their quantization, computed once per matrix for every chip to cut its
// shards from.
func (e *Engine) fullShards(w *reference.Weights) [][wgMats]shard {
	out := make([][wgMats]shard, len(w.Layers))
	for l := range w.Layers {
		lw := &w.Layers[l]
		for k, m := range [wgMats]*tensor.Mat{lw.WGate, lw.WUp, lw.WDown, lw.WQ, lw.WK, lw.WV, lw.WO} {
			if m != nil {
				out[l][k] = wholeShard(m, e.opts.Int8Weights)
			}
		}
	}
	return out
}

// wholeShard is m as a shard: its float32 values, or with int8w its
// quantization.
func wholeShard(m *tensor.Mat, int8w bool) shard {
	if int8w {
		q := quant.Quantize(m)
		return matShard(q.Data, m.Rows, m.Cols, q.Scales)
	}
	return matShard(m.Data, m.Rows, m.Cols, nil)
}

// buildChip cuts one chip's shards from the full weights.
func (e *Engine) buildChip(w *reference.Weights, full [][wgMats]shard, rank int) *chipState {
	cfg := e.cfg
	st := &chipState{plan: e.ffnPlan(rank, e.opts.FFN), act: hardware.GroupXYZ}
	if e.opts.FFN == partition.FFNWeightGatheredXYZ {
		// Token-sharded: no activation group, and at-rest ExFyz shards
		// that gatherLayer stages before each layer.
		st.act, st.wg = nil, e.buildWG(full, rank)
	}
	st.iAct, st.nAct = e.m.Chip(rank).GroupRank(st.act)
	n := st.nAct
	eBlock, vBlock := cfg.DModel/n, cfg.Vocab/n
	st.embedCols = tensor.SliceCols(w.Embed, st.iAct*eBlock, (st.iAct+1)*eBlock)
	st.embedRows = st.embedCols // a group of one: both are the full table
	if n > 1 {
		st.embedRows = tensor.SliceRows(w.Embed, st.iAct*vBlock, (st.iAct+1)*vBlock)
	}
	st.finalGain = sliceGain(w.FinalGain, 0, cfg.DModel)
	st.shards = make([][]float32, n)

	eIdx, fIdx := st.plan.block(cfg)
	eAll := contiguous(0, cfg.DModel)
	hq := cfg.Heads / n * cfg.HeadDim
	hCols := contiguous(st.iAct*hq, hq)
	// Batch sharding (any variant) and head-sharded multiquery both need
	// the full K/V projections on every chip: the single multiquery head is
	// replicated (Figure 4(b)), and a batch shard attends with all heads.
	// Head-sharded multihead takes the K/V columns of this chip's heads.
	kvCols := contiguous(0, cfg.KVHeads*cfg.HeadDim)
	if !e.batchShardedCache() && cfg.KVHeads > 1 {
		kvPC := cfg.KVHeads / n * cfg.HeadDim
		kvCols = contiguous(st.iAct*kvPC, kvPC)
	}
	cuts := [wgMats]cut{{eIdx, fIdx}, {eIdx, fIdx}, {fIdx, eIdx},
		{eAll, hCols}, {eAll, kvCols}, {eAll, kvCols}, {hCols, eAll}}
	for l := range w.Layers {
		lw := &w.Layers[l]
		cl := chipLayer{
			normGain:    sliceGain(lw.NormGain, 0, cfg.DModel),
			ffnNormGain: sliceGain(lw.FFNNormGain, 0, cfg.DModel),
		}
		if st.wg != nil && l > 0 {
			// Every layer shares layer 0's full-size weights as staging.
			stage := st.layers[0]
			stage.normGain, stage.ffnNormGain = cl.normGain, cl.ffnNormGain
			st.layers = append(st.layers, stage)
			continue
		}
		var ws [wgMats]shard
		for k, m := range full[l] {
			if m.k > 0 {
				ws[k] = m.take(cuts[k])
			}
		}
		cl.wGate, cl.wUp, cl.wDown, cl.wq, cl.wk, cl.wv, cl.wo = ws[0], ws[1], ws[2], ws[3], ws[4], ws[5], ws[6]
		st.layers = append(st.layers, cl)
	}

	// KV cache shard.
	if e.batchShardedCache() {
		st.cache = e.newKVCache(e.batch/e.m.Chips(), cfg.KVHeads*cfg.HeadDim)
	} else {
		st.cache = e.newKVCache(e.batch, len(kvCols))
	}
	return st
}

// newKVCache allocates one chip's cache shard in the session's KV storage
// mode. Shard shapes are identical either way; only bytes per row differ.
func (e *Engine) newKVCache(seqs, width int) *kvcache.Cache {
	if e.opts.KVDType == model.Int8 {
		return kvcache.NewInt8(e.cfg.Layers, seqs, e.maxLen, width)
	}
	return kvcache.New(e.cfg.Layers, seqs, e.maxLen, width)
}

func sliceGain(g []float32, lo, n int) []float32 {
	out := make([]float32, n)
	copy(out, g[lo:lo+n])
	return out
}

// op mints a fresh collective op context (same id sequence on every chip
// because the program is SPMD-deterministic) carrying the session's wire
// format. Each reserves one id: every collective the engine issues is a
// single gather, reduce-scatter or all-to-all (no all-reduce), and the
// mesh's tag-collision check would catch any miscounted reservation.
func (st *chipState) op(c *mesh.Chip) collective.Op {
	o := collective.Op{Chip: c, ID: st.opID, Wire: st.wire}
	st.opID++
	return o
}

// agCols all-gathers column shards into a full-width matrix (group-rank
// column order). The shard is gathered row-major as-is and each group
// member's chunk is copied into its column block — same wire volume as
// gathering a transposed shard, without the two transposes. Temporaries
// come from the chip arena and the gathered wire buffer goes back to the
// mesh pool; a group of one returns m itself (the collective would move
// zero bytes), so the single-chip hot path does no work at all. The Op
// argument is evaluated by the caller either way, keeping collective ids
// in lockstep across chips and group sizes.
func agCols(ar *tensor.Arena, o collective.Op, g hardware.AxisGroup, m *tensor.Mat, size int) *tensor.Mat {
	if size == 1 {
		return m
	}
	full := collective.AllGather(o, g, m.Data)
	out := ar.Mat(m.Rows, m.Cols*size)
	per := m.Rows * m.Cols
	for r := 0; r < size; r++ {
		chunk := full[r*per : (r+1)*per]
		for i := 0; i < m.Rows; i++ {
			copy(out.Row(i)[r*m.Cols:(r+1)*m.Cols], chunk[i*m.Cols:(i+1)*m.Cols])
		}
	}
	o.Chip.Recycle(full)
	return out
}

// rsCols reduce-scatters a partial-sum matrix over its columns, returning
// this chip's column chunk of the summed matrix. The reduction needs
// column chunks contiguous on the wire, so the input is transposed in and
// the shard transposed back. Group-of-one returns m itself; callers treat
// the result as freshly computed either way (the inputs are always arena
// temporaries that are not read again).
func rsCols(ar *tensor.Arena, o collective.Op, g hardware.AxisGroup, m *tensor.Mat, size int) *tensor.Mat {
	if size == 1 {
		return m
	}
	tr := tensor.TransposeInto(ar.Mat(m.Cols, m.Rows), m)
	return colShard(ar, o.Chip, collective.ReduceScatter(o, g, tr.Data), m.Rows)
}

// colShard turns a reduce-scattered shard — column-major on the wire,
// [cols, tokens] — back into the [tokens, cols] activation and hands the
// wire buffer back to the mesh pool.
func colShard(ar *tensor.Arena, c *mesh.Chip, shard []float32, tokens int) *tensor.Mat {
	sh := tensor.Mat{Rows: len(shard) / tokens, Cols: tokens, Data: shard}
	out := tensor.TransposeInto(ar.Mat(tokens, sh.Rows), &sh)
	c.Recycle(shard)
	return out
}

// gatherNorm all-gathers the residual x, E-sharded over the chip's
// activation group, and RMS-normalizes every full row locally with the
// full-width gain: the block's one input collective, which attention and
// the FFN then share. The rows are normalized in place in the gathered
// copy; over a group of one the gather returns x itself, the residual, so
// they go to a fresh arena matrix instead. Under an int8 wire every token's
// shard travels with its own scale (st.normWire), so a loud token costs the
// others none of their resolution.
func gatherNorm(c *mesh.Chip, st *chipState, x *tensor.Mat, gain []float32) *tensor.Mat {
	o := st.op(c)
	o.Wire = st.normWire
	full := agCols(&st.arena, o, st.act, x, st.nAct)
	out := full
	if st.nAct == 1 {
		out = st.arena.Mat(x.Rows, x.Cols)
	}
	for i := 0; i < full.Rows; i++ {
		src, dst := full.Row(i), out.Row(i)
		var s float32
		for _, v := range src {
			s += v * v
		}
		inv := invSqrt(s/float32(len(src)) + 1e-6)
		for j, v := range src {
			dst[j] = v * inv * gain[j]
		}
	}
	return out
}

func invSqrt(v float32) float32 {
	return float32(1 / math.Sqrt(float64(v)))
}
