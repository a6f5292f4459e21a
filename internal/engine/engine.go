// Package engine executes a decoder-only Transformer across a simulated
// chip mesh using the paper's partitioning layouts, with every cross-chip
// byte moved by real collectives (package collective) over real messages
// (package mesh). Its contract: for any supported layout, the distributed
// logits equal the unsharded reference model's logits.
//
// One SPMD pass. Every entry point — Prefill, Decode, DecodeSlots with its
// per-slot mask, PrefillSlot admitting one prompt into one slot — fills in
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
// The feed-forward plan (ffnPlan) is a pair of groups. Weights are cut E×F
// into inner × outer blocks; per layer the activation shard is all-gathered
// over the outer group, multiplied, reduce-scattered over the inner group,
// passed through the nonlinearity, all-gathered over the inner group,
// multiplied, and reduce-scattered over the outer group back to its shard.
//
//   - FFN 2D weight-stationary (Section 3.2.2): outer = Y·Z, inner = X;
//     activations alternate aggregation over the two groups and are never
//     fully replicated.
//   - FFN 1D weight-stationary (Section 3.2.1): outer = all chips, inner =
//     the empty group — weights sharded along d_ff only, activations fully
//     gathered before the first matmul and reduce-scattered after the second.
//   - FFN weight-gathered XYZ (Section 3.2.3, Figure A.2(c)): both groups
//     empty; each layer's weights are all-gathered from the same ExFyz
//     at-rest blocks the 2D plan stores, so all communication is weight
//     traffic.
//
// With Options.Streamed a weight-stationary plan's matmuls ride its rings
// (Section 3.5, stream.go): the up/gate projections fold chunk by chunk in
// the outer gather's consumer, and the down-projection in the inner gather's
// consumer — or in the outer reduce-scatter's producer when the inner group
// has one member and there is no inner ring to ride.
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
// PrefillSlot and DecodeSlots serve a continuous-batching scheduler:
// admission into a freed KV-cache slot mid-stream, then decode of whatever
// subset of slots is live, each at its own depth. A pass appends at each
// slot's current depth and attends causally against everything before it,
// which yields two admission optimizations for free (prefix.go):
// shared-prefix reuse, where a cached system prompt's K/V are attached from
// a reference-counted per-chip store and only the suffix is prefilled
// (AcquirePrefix/PrefillSlotFrom/PrefillSlotCached), and chunked prefill,
// where a long cold prompt is admitted in bounded chunks interleaved with
// decode iterations (PrefillSlotChunked). Both are verified token-exact
// against the cold path and the batch-1 reference across all functional
// layouts.
//
// RMS normalization of the E-sharded residual stream uses a tiny per-token
// all-reduce of sums of squares. Unlike the production system the
// attention projections are not fused into the FFN matmuls — fusion is a
// throughput optimization with identical numerics, and keeping them separate
// keeps each layout legible.
//
// Storage and wire formats are per-session options, each independently
// togglable on every layout: Int8Weights (quantized projections), KVDType
// (quantized KV cache), and WireDType (quantized collective payloads — the
// engine's data-plane all-gathers, reduce-scatters, all-to-alls and
// weight-gather staging move per-chunk-scaled int8 via the payload-typed
// collectives, at ~0.26x the float32 wire bytes, while the per-token norm
// all-reduces stay exact).
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
	// WireDType is the data-plane collective payload format (matches
	// serve.Config.WireDType). model.Int8 moves the activation all-gathers
	// and reduce-scatters (agCols/rsCols), the attention resharding
	// all-to-alls, and the weight-gathered layout's per-layer weight staging
	// as per-chunk-scaled int8 instead of float32 (collective.WireInt8): 1
	// byte per element plus one scale per chunk, ≤0.55× the fp32 wire bytes,
	// the §3.3 move-int8-not-float insight applied to what's *on the wire*
	// rather than what's at rest. The tiny per-token RMS-norm all-reduces
	// stay float32: their volume is negligible (one float per token versus
	// E-wide activations) and their result scales every activation, so
	// quantizing them buys nothing and risks everything. Orthogonal to
	// Int8Weights/KVDType and valid on every layout; quantize/dequantize
	// scratch comes from the per-chip message pools, so steady-state decode
	// stays allocation-free.
	WireDType model.DType
	// Int8Weights stores all projection matrices quantized (per-column
	// symmetric int8), reproducing the paper's weight-only quantization.
	Int8Weights bool
	// Streamed fuses the weight-stationary FFN's matmuls into the
	// collective chunk stream — the paper's Looped CollectiveEinsum (§3.5);
	// the package comment says which matmul rides which ring. Compute on
	// chunk k proceeds while chunk k+1 is in flight, which is what the
	// mesh's measured overlap fraction (Mesh.MeasuredOverlapFrac) observes.
	// Results are token-exact vs the barrier path on every layout and wire
	// format (chunked accumulation reorders float sums). A plan over one
	// chip — a single-chip mesh, or the weight-gathered layout, whose
	// per-layer weight gather streams either way — has nothing to overlap
	// and keeps the barrier path and its zero-allocation decode contract.
	// Valid on every layout, orthogonal to the Int8 options.
	Streamed bool
}

// validate rejects a dtype outside the vocabulary above.
func (o *Options) validate() error {
	for _, d := range []model.DType{o.KVDType, o.WireDType} {
		switch d {
		case model.BF16, model.Int8, model.FP32:
		default:
			return fmt.Errorf("engine: unknown dtype %d", d)
		}
	}
	return nil
}

// weight is a matrix in either float or int8 form.
type weight struct {
	f *tensor.Mat
	q *quant.Int8Mat
}

// shardWeight slices a full weight matrix to a chip's shard. In int8 mode
// the full matrix is quantized first and the quantized values sliced with
// their shared column scales — quantize-once-then-shard, as a real
// checkpoint pipeline does — so every chip's arithmetic is consistent with
// the unsharded quantized model. nil rows/cols mean "all", and so does a
// list as long as the dimension: every index list here is strictly
// increasing, so that one is the identity (a whole-E stripe of the 1D plan,
// any block on one chip) and not worth a copy.
func shardWeight(full *tensor.Mat, rows, cols []int, int8w bool) weight {
	if len(rows) == full.Rows {
		rows = nil
	}
	if len(cols) == full.Cols {
		cols = nil
	}
	if int8w {
		q := quant.Quantize(full)
		if rows != nil {
			q = q.SelectRows(rows)
		}
		if cols != nil {
			q = q.SelectCols(cols)
		}
		return weight{q: q}
	}
	m := full
	if rows != nil {
		m = selectRows(m, rows)
	}
	if cols != nil {
		m = selectCols(m, cols)
	}
	if m == full {
		m = full.Clone()
	}
	return weight{f: m}
}

// mulA multiplies activations by the weight shard with the output taken
// from a chip's scratch arena — the only multiply form the per-pass code
// uses, so a steady-state pass allocates nothing.
func (w weight) mulA(ar *tensor.Arena, a *tensor.Mat) *tensor.Mat {
	if w.q != nil {
		return quant.MatMulInto(ar.Mat(a.Rows, w.q.Cols), a, w.q)
	}
	return tensor.MatMulInto(ar.Mat(a.Rows, w.f.Cols), a, w.f)
}

// mulInto multiplies into a caller-provided destination (the streamed
// down-projection's per-chunk GEMM, whose output is reused every chunk).
func (w weight) mulInto(dst, a *tensor.Mat) *tensor.Mat {
	if w.q != nil {
		return quant.MatMulInto(dst, a, w.q)
	}
	return tensor.MatMulInto(dst, a, w.f)
}

// mulAcc folds a contraction chunk's partial product into dst: dst must
// already be [a.Rows, cols] and zeroed (or hold prior chunks' partials).
// Int8 weights accumulate raw — the caller applies the shared column
// scales once with finishAcc after the last chunk, matching the unsharded
// kernel's single scale application.
func (w weight) mulAcc(dst, a *tensor.Mat) {
	if w.q != nil {
		quant.MatMulAccRawInto(dst, a, w.q)
		return
	}
	tensor.MatMulAccInto(dst, a, w.f)
}

// finishAcc completes a mulAcc accumulation (applies int8 column scales;
// no-op for float weights). Call it on the weight whose blocks were
// accumulated — the blocks share its Scales array.
func (w weight) finishAcc(dst *tensor.Mat) {
	if w.q != nil {
		quant.ScaleColumns(dst, w.q.Scales)
	}
}

// rowBlocks returns k zero-copy row-block views of w ([blockRows·k, cols]
// sliced into [blockRows, cols] each) — the per-chunk weight slices the
// streamed gathers contract against. Int8 views share w's Scales.
func rowBlocks(w weight, k, blockRows int) []weight {
	out := make([]weight, k)
	for j := 0; j < k; j++ {
		lo := j * blockRows
		if w.q != nil {
			out[j] = weight{q: &quant.Int8Mat{
				Rows: blockRows, Cols: w.q.Cols,
				Data:   w.q.Data[lo*w.q.Cols : (lo+blockRows)*w.q.Cols],
				Scales: w.q.Scales,
			}}
		} else {
			out[j] = weight{f: &tensor.Mat{
				Rows: blockRows, Cols: w.f.Cols,
				Data: w.f.Data[lo*w.f.Cols : (lo+blockRows)*w.f.Cols],
			}}
		}
	}
	return out
}

// colBlocks returns k column-block copies of w ([rows, blockCols·k] split
// into [rows, blockCols] each) — the per-output-chunk slices of a
// down-projection that rides a reduce-scatter's producer. Column blocks are
// copied once at build time
// (columns are not contiguous in row-major storage); slicing columns
// preserves each output element's contraction order, so a block's GEMM is
// bit-identical to the corresponding columns of the full GEMM.
func colBlocks(w weight, k, blockCols int) []weight {
	out := make([]weight, k)
	for j := 0; j < k; j++ {
		cols := contiguous(j*blockCols, blockCols)
		if w.q != nil {
			out[j] = weight{q: w.q.SelectCols(cols)}
		} else {
			out[j] = weight{f: selectCols(w.f, cols)}
		}
	}
	return out
}

// chipLayer is one layer's weight shards on one chip.
type chipLayer struct {
	normGain    []float32
	ffnNormGain []float32
	// FFN shards: this chip's E×F block of the plan (see ffnPlan).
	wGate, wUp, wDown weight
	// Attention shards: this chip's query-head block, K/V per variant,
	// and the matching WO row block.
	wq, wk, wv, wo weight
	// Per-chunk weight blocks of a streamed session (streamFFN):
	// wUpBlk/wGateBlk index the outer-gather chunk a block contracts
	// against (row blocks, zero-copy views). wDownBlk indexes the
	// inner-gather chunk the same way, or — when the inner group has one
	// member and the down-projection rides the outer reduce-scatter — that
	// ring's output chunk (column-block copies, which then stand in for
	// wDown: the whole shard is never multiplied).
	wUpBlk, wGateBlk, wDownBlk []weight
}

// ffnPlan is how the weight-stationary feed-forward is laid over the torus,
// as one chip sees it: the paper's layouts are one einsum under different
// sharding annotations (Section 3.2, Figure 2), and the annotation is this
// pair of axis groups. The weights are cut E×F into nInner × nOuter blocks.
// A layer all-gathers its E/n activation shard over the outer group (to the
// E/nInner columns of this chip's stripe), multiplies, reduce-scatters the
// partial sums over the inner group (to F/n), applies the nonlinearity,
// all-gathers over the inner group (to F/nOuter), multiplies, and
// reduce-scatters over the outer group back to E/n.
//
//	1D weight-stationary (3.2.1): outer = XYZ, inner = the empty group —
//	    both inner collectives are identities and the activations are fully
//	    gathered, the 2·tokens·E volume.
//	2D weight-stationary (3.2.2): outer = YZ, inner = X — activations are
//	    never fully replicated.
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
// its stripe — E/n-wide blocks iInner, iInner+nInner, ..., the order the
// outer all-gather assembles activation chunks in, so weight rows match —
// and its contiguous F/nOuter columns.
func (p ffnPlan) block(cfg model.Config) (eIdx, fIdx []int) {
	eBlock := cfg.DModel / (p.nOuter * p.nInner)
	eIdx = make([]int, 0, p.nOuter*eBlock)
	for j := 0; j < p.nOuter; j++ {
		eIdx = append(eIdx, contiguous((p.iInner+p.nInner*j)*eBlock, eBlock)...)
	}
	fBlock := cfg.DFF / p.nOuter
	return eIdx, contiguous(p.iOuter*fBlock, fBlock)
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
	for r := 0; r < n; r++ {
		e.chips[r] = e.buildChip(w, r)
		// The walk scores all query heads of one KV head at once; no
		// sharding gives a chip more of them per KV head than the model has.
		e.chips[r].scr.Reserve(cfg.Heads / cfg.KVHeads * maxLen)
		if opts.WireDType == model.Int8 {
			e.chips[r].wire = collective.WireInt8
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

// KVDType returns the session's KV-cache storage format.
func (e *Engine) KVDType() model.DType { return e.opts.KVDType }

// WireDType returns the session's collective payload format.
func (e *Engine) WireDType() model.DType { return e.opts.WireDType }

// Streamed reports whether the session fuses FFN compute into the
// collective chunk stream (Options.Streamed).
func (e *Engine) Streamed() bool { return e.opts.Streamed }

// MeasuredOverlap is the mesh's observed compute-communication overlap
// fraction across the session's streamed collectives so far: the share of
// streamed-collective wall time spent in chunk consumers rather than
// blocked on the wire (0 until a streamed pass has run). It is the
// functional counterpart of perf.Knobs.OverlapFrac.
func (e *Engine) MeasuredOverlap() float64 { return e.m.MeasuredOverlapFrac() }

// Batch returns the session batch size.
func (e *Engine) Batch() int { return e.batch }

// selectRows copies the given rows of m in order.
func selectRows(m *tensor.Mat, rows []int) *tensor.Mat {
	out := tensor.New(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// selectCols copies the given columns of m in order.
func selectCols(m *tensor.Mat, cols []int) *tensor.Mat {
	out := tensor.New(m.Rows, len(cols))
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for j, c := range cols {
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

// buildChip slices the full weights into one chip's shards.
func (e *Engine) buildChip(w *reference.Weights, rank int) *chipState {
	cfg := e.cfg
	int8w := e.opts.Int8Weights
	st := &chipState{plan: e.ffnPlan(rank, e.opts.FFN), act: hardware.GroupXYZ}
	if e.opts.FFN == partition.FFNWeightGatheredXYZ {
		// Token-sharded: no activation group, and at-rest ExFyz shards
		// that gatherLayer stages before each layer.
		st.act, st.wg = nil, e.buildWG(w, rank)
	}
	st.iAct, st.nAct = e.m.Chip(rank).GroupRank(st.act)
	n := st.nAct
	eBlock, vBlock := cfg.DModel/n, cfg.Vocab/n
	st.embedCols = selectCols(w.Embed, contiguous(st.iAct*eBlock, eBlock))
	st.embedRows = st.embedCols // a group of one: both are the full table
	if n > 1 {
		st.embedRows = selectRows(w.Embed, contiguous(st.iAct*vBlock, vBlock))
	}
	st.finalGain = sliceGain(w.FinalGain, st.iAct*eBlock, eBlock)
	st.shards = make([][]float32, n)

	p := st.plan
	eIdx, fIdx := p.block(cfg)
	headsPC := cfg.Heads / n
	dh := cfg.HeadDim
	for l := range w.Layers {
		lw := &w.Layers[l]
		cl := chipLayer{
			normGain:    sliceGain(lw.NormGain, st.iAct*eBlock, eBlock),
			ffnNormGain: sliceGain(lw.FFNNormGain, st.iAct*eBlock, eBlock),
		}
		if st.wg != nil && l > 0 {
			// Every layer shares layer 0's full-size weights as staging.
			stage := st.layers[0]
			stage.normGain, stage.ffnNormGain = cl.normGain, cl.ffnNormGain
			st.layers = append(st.layers, stage)
			continue
		}

		// FFN shards: the chip's block of the plan.
		if lw.WGate != nil {
			cl.wGate = shardWeight(lw.WGate, eIdx, fIdx, int8w)
		}
		cl.wUp = shardWeight(lw.WUp, eIdx, fIdx, int8w)
		cl.wDown = shardWeight(lw.WDown, fIdx, eIdx, int8w)
		if e.streamFFN(&p) {
			// Outer-gather chunk j is stripe row block j; inner-gather
			// chunk j is F-row block j of the down shard; outer
			// reduce-scatter chunk j is its E-column block j.
			cl.wUpBlk = rowBlocks(cl.wUp, p.nOuter, eBlock)
			if lw.WGate != nil {
				cl.wGateBlk = rowBlocks(cl.wGate, p.nOuter, eBlock)
			}
			if p.nInner == 1 {
				cl.wDownBlk = colBlocks(cl.wDown, p.nOuter, eBlock)
				cl.wDown = weight{}
			} else {
				cl.wDownBlk = rowBlocks(cl.wDown, p.nInner, cfg.DFF/n)
			}
		}

		// Attention shards: query heads split over the activation group.
		hCols := contiguous(st.iAct*headsPC*dh, headsPC*dh)
		cl.wq = shardWeight(lw.WQ, nil, hCols, int8w)
		cl.wo = shardWeight(lw.WO, hCols, nil, int8w)
		switch {
		case e.batchShardedCache() || cfg.KVHeads == 1:
			// Batch sharding (any variant) and head-sharded multiquery
			// both need the full K/V projections on every chip: the
			// single multiquery head is replicated (Figure 4(b)), and a
			// batch shard attends with all heads.
			cl.wk = shardWeight(lw.WK, nil, nil, int8w)
			cl.wv = shardWeight(lw.WV, nil, nil, int8w)
		default:
			// Head-sharded multihead: K/V columns for this chip's heads.
			kvPC := cfg.KVHeads / n
			kvCols := contiguous(st.iAct*kvPC*dh, kvPC*dh)
			cl.wk = shardWeight(lw.WK, nil, kvCols, int8w)
			cl.wv = shardWeight(lw.WV, nil, kvCols, int8w)
		}
		st.layers = append(st.layers, cl)
	}

	// KV cache shard.
	switch e.opts.Attn {
	case partition.AttnShardBatch:
		st.cache = e.newKVCache(e.batch/e.m.Chips(), cfg.KVHeads*dh)
	case partition.AttnShardHeads:
		width := cfg.KVHeads * dh // multiquery: replicated single head
		if cfg.KVHeads > 1 {
			width = cfg.KVHeads / n * dh
		}
		st.cache = e.newKVCache(e.batch, width)
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
// format. Each slot reserves collective.AllReduceIDs consecutive ids —
// the widest consumer (shardNorm's all-reduce) needs both, and plain
// collectives simply leave the second unused; the mesh's tag-collision
// check would catch any miscounted reservation.
func (st *chipState) op(c *mesh.Chip) collective.Op {
	o := collective.Op{Chip: c, ID: st.opID, Wire: st.wire}
	st.opID += collective.AllReduceIDs
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

// shardNorm RMS-normalizes an activation E-sharded over the chip's
// activation group using a per-token all-reduce of local sums of squares.
// The buffer is padded to a multiple of the group size so row counts that
// don't divide the chip count — e.g. a single admitted prompt's tokens —
// reduce cleanly. The op id is always minted (ids stay in lockstep); a
// group of one skips the zero-byte all-reduce itself.
func shardNorm(c *mesh.Chip, st *chipState, x *tensor.Mat, gain []float32, eTotal int) *tensor.Mat {
	// op() reserves collective.AllReduceIDs ids — exactly what the
	// all-reduce below consumes. The reduction runs float32 even under
	// an int8 wire: one float per token is noise next to the E-wide
	// activation collectives, and its result normalizes every channel.
	op := st.op(c)
	op.Wire = nil
	groupSize := st.nAct
	padded := (x.Rows + groupSize - 1) / groupSize * groupSize
	sumsq := st.arena.Floats(padded)
	for i := x.Rows; i < padded; i++ {
		sumsq[i] = 0
	}
	for i := 0; i < x.Rows; i++ {
		var s float32
		for _, v := range x.Row(i) {
			s += v * v
		}
		sumsq[i] = s
	}
	total := sumsq
	if groupSize > 1 {
		total = collective.AllReduce(op, st.act, sumsq)
	}
	out := st.arena.Mat(x.Rows, x.Cols)
	gain = gain[:x.Cols]
	for i := 0; i < x.Rows; i++ {
		inv := invSqrt(total[i]/float32(eTotal) + 1e-6)
		src, dst := x.Row(i), out.Row(i)
		for j := range src {
			dst[j] = src[j] * inv * gain[j]
		}
	}
	if groupSize > 1 {
		c.Recycle(total)
	}
	return out
}

func invSqrt(v float32) float32 {
	return float32(1 / math.Sqrt(float64(v)))
}
