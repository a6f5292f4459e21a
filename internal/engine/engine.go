// Package engine executes a decoder-only Transformer across a simulated
// chip mesh using the paper's partitioning layouts, with every cross-chip
// byte moved by real collectives (package collective) over real messages
// (package mesh). Its contract: for any supported layout, the distributed
// logits equal the unsharded reference model's logits.
//
// One SPMD pass. A pass is a token count per slot — 0 idle, 1 a decode, k a
// prompt chunk — with the tokens concatenated in slot order, and Step runs
// it: the counts are checked on the host, each slot's rows located once
// (pass.off), and the one per-chip body bound at construction runs. A
// lockstep batch, a decode of the live slots (DecodeSlotsInto) and an
// admission into one slot (PrefillSlot) are fillings of the counts, and an
// idle slot carries no row through any GEMM or collective. A chip works on
// the rows of its block of slots, fixed at New (seqsOn): every slot under
// head-sharded attention, its batch/n under batch-sharded attention —
// possibly no rows at all.
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
// The paper's fused parallel block (Section 3.4). Each layer stores two
// matrices, W_in = [W_Q | W_K | W_V | W_up | W_gate] and W_out =
// [W_O ; W_down], and one block body runs over the plan's axis groups
// (partition.PlanFFN's Outer and Inner for Options.FFN, read once in New):
// all-gather the residual over Outer, one in-projection GEMM, reduce-scatter
// over Inner, attention on the chip's heads and the nonlinearity on its F
// block, all-gather over Inner, one out-projection GEMM, reduce-scatter over
// Outer back to the chip's E-shard (block, forward.go). Under 2D
// weight-stationary (Outer = Y·Z, Inner = X) that is 3+1+1+3 ring steps a
// layer on 2×2×2, the eight package perf prices; under 1D (Outer = XYZ,
// Inner empty) one gather and one reduce-scatter, the attention and FFN
// output partials summed by the one out-projection; under weight-gathered
// both groups are empty and every activation collective is an identity. A
// serial block runs the same body twice, once over the attention's columns
// and rows and once over the FFN's, and so gathers twice.
//
// Each matrix is cut once per chip (blockPlan.cuts), its columns and rows
// ordered by collective chunk: a reduce-scatter's chunk is a column range of
// W_in or W_out and an inner gather's chunk a row block of W_out, so every
// projection is a zero-copy view of the one stored matrix. Each column range
// one GEMM reads is stored as its own strip-packed panel (shard), so a
// decode GEMM streams each weight byte once. The norm costs no
// message: after the Outer gather a chip holds only its E/|Inner| stripe of
// each row, so it multiplies the un-normalized stripe (the gains are folded
// into W_in's rows), carries each token's partial sum of squares beside its
// partial products through the Inner reduce-scatter, and applies 1/rms to
// the summed projection. K/V columns too narrow to cut over the chips — a
// multiquery head, or any K/V under batch-sharded attention — ride every
// chip's in-projection whole; head-sharded multihead K/V are cut like the
// query heads (commcost.BlockWidths, commcost.KVCopies). The engine runs the
// layouts whose Gather is empty (1D and 2D weight-stationary) or all three
// axes (weight-gathered XYZ, whose per-layer weight gather stages both
// matrices from row blocks held at rest, wgxyz.go).
//
// With Options.Streamed the block's collectives ride their rings (Section
// 3.5, stream.go): each reduce-scatter's chunks are computed in its producer
// as the ring needs them — under 1D the out-projection's column chunks of
// [attn | act]·W_out — and under 2D the inner gather's consumer folds each
// arriving chunk's product with a row block of W_out. The values are the
// barrier path's bit for bit: both compute the same chunks in the same
// order.
//
// One weight type. A shard is a GEMM operand (simd.GemmB) over float32 or
// raw int8 weights in strip-packed panels, plus the int8 column scales;
// every projection runs the one tile under the one driver and applies the
// scales, if any, once per output. Under Int8Weights each full matrix is
// quantized once and every chip packs its shards from that quantization;
// the row-major fused matrices exist only while New cuts from them.
//
// Attention layouts:
//
//   - Sharded over heads (Figure 4(a)/(b)): each chip owns a head block; for
//     multiquery models the single K/V head is replicated per chip — the
//     memory pathology the paper identifies.
//   - Sharded over batch (Figure 4(c)/5(b)): the KV cache is partitioned
//     over sequences; per-step Q and attention outputs are resharded with
//     two all-to-alls. Each chip's shard carries its slots' rows of the
//     pass, so an admission's rows go to the slot's owner and back, and
//     empty shards pass between the other chips.
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
// the mesh's one reference-counted prefix index and only the suffix is
// prefilled (PrefillSlotCached), and chunked prefill, where a long cold
// prompt is admitted in bounded chunks interleaved with decode iterations
// (successive PrefillSlot calls). Both are verified token-exact against the
// cold path and the batch-1 reference across all functional layouts. A
// slot's KV rows sit on every chip under head sharding and on one owner
// under batch sharding; every per-slot operation — length, release, prefix
// capture and attach, handoff export and import — reaches them through one
// map (slotHolders, slots.go), and the engine alone owns the prefix
// references its slots hold (slotPfx). The blocks those operations move
// are one kvcache.KVBlock type, whether a prefix entry's or a handoff's.
//
// Storage and wire formats are per-session options, each independently
// togglable on every layout: Int8Weights (quantized projections), KVDType
// (quantized KV cache), and WireDType (quantized collective payloads — every
// collective the engine issues moves int8 via the payload-typed
// collectives, the block's activations with one scale per token, the
// all-to-alls and weight-gather staging with one per chunk, at about 0.3x
// the float32 wire bytes).
package engine

import (
	"fmt"
	"math"

	"esti/internal/collective"
	"esti/internal/commcost"
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
	// serve.Config.WireDType). model.Int8 moves every collective the engine
	// issues as int8 (collective.WireInt8Rows and friends): 1 byte per
	// element plus float32 scales, about 0.3× the fp32 wire bytes — the §3.3
	// move-int8-not-float insight applied to what's *on the wire* rather
	// than what's at rest, so an int8-wire session sends no float32 element.
	// The block's activation collectives carry one scale per token, because
	// the raw residual's rows and the un-normalized in-projection's, unlike
	// normalized ones, can differ in magnitude by orders; the in-projection's
	// reduce-scatter also carries each token's float32 norm statistic
	// (collective.WireInt8RowsStat). The attention all-to-alls, the
	// weight-gathered layout's staging and the logit gather carry one scale
	// per chunk. Each chip keeps its own shard exact and its peers'
	// dequantized. Orthogonal to Int8Weights/KVDType and valid on every
	// layout; quantize/dequantize scratch comes from the per-chip message
	// pools, so steady-state decode stays allocation-free.
	WireDType model.DType
	// Int8Weights stores both of each layer's matrices quantized (per-column
	// symmetric int8, each fused matrix quantized once and then cut into
	// shards), reproducing the paper's weight-only quantization. A column of
	// W_out spans W_O and W_down and has one scale.
	Int8Weights bool
	// Streamed runs the block's projections inside its rings — the paper's
	// Looped CollectiveEinsum (§3.5); the package comment says which.
	// Compute on chunk k proceeds while chunk k+1 is in flight, which is what
	// the mesh's measured overlap fraction (Mesh.MeasuredOverlapFrac)
	// observes. The chunks and their order are the barrier path's, so the
	// results are bit-identical on every layout and wire format. A plan over
	// one chip — a single-chip mesh, or the weight-gathered layout, whose
	// per-layer weight gather streams either way — has nothing to overlap.
	// Valid on every layout, orthogonal to the Int8 options.
	Streamed bool
}

// validate rejects a layout or a dtype outside the vocabulary above.
func (o *Options) validate() error {
	if !o.FFN.Known() {
		return fmt.Errorf("engine: unknown FFN layout %v", o.FFN)
	}
	if !o.Attn.Known() {
		return fmt.Errorf("engine: unknown attention layout %v", o.Attn)
	}
	for _, d := range []model.DType{o.KVDType, o.WireDType} {
		if !d.Known() {
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
// compute.
//
// The weights are stored strip-packed: the columns fall into panels, each
// the column block one GEMM reads (blockPlan.cuts), and a panel is stored
// strip by strip — eight columns down all k rows, its last strip
// zero-padded — so b is {RowStride: 8, StripStride: 8·k} and the tile
// streams each weight byte once, in order. The panels lie one after another
// in b. A panel's block of rows (rows) or a range of its strips (cols) is
// the same strides over a sub-slice, so a streamed down-projection's
// per-chunk blocks are views of the one stored shard.
type shard struct {
	k, n   int
	b      simd.GemmB
	scales []float32
	// panels are the column bounds of the panels — panel p is columns
	// [panels[p], panels[p+1]) — or nil for a single panel of all n.
	panels []int
}

// strips calls f for every strip of a block n columns wide whose panels
// have the given bounds (nil: one panel), in storage order: the strip's
// index in storage, its first column and its width.
func strips(panels []int, n int, f func(s, j, w int)) {
	if panels == nil {
		panels = []int{0, n}
	}
	s := 0
	for p := 0; p+1 < len(panels); p++ {
		for j := panels[p]; j < panels[p+1]; j += simd.GemmStrip {
			f(s, j, min(simd.GemmStrip, panels[p+1]-j))
			s++
		}
	}
}

// stripCount is the number of strips strips visits.
func stripCount(panels []int, n int) int {
	c := 0
	strips(panels, n, func(int, int, int) { c++ })
	return c
}

// rows is the zero-copy block of rows [lo, hi): the contraction chunk an
// inner gather delivers. It keeps all of s's panels and scales.
func (s shard) rows(lo, hi int) shard {
	s.b, s.k = s.b.From(lo*s.b.RowStride), hi-lo
	return s
}

// cols is the zero-copy range of columns [lo, hi) of one panel, with their
// scales: the output chunk a reduce-scatter's producer computes. lo must
// start a strip of its panel. Each output's contraction is the full
// product's, so a range's product is bit-identical to those columns of the
// whole.
func (s shard) cols(lo, hi int) shard {
	strip, first, end := 0, 0, s.n // the panel's first strip and its columns
	if s.panels != nil {
		p := 1
		for p+1 < len(s.panels) && s.panels[p] <= lo {
			strip += (s.panels[p] - s.panels[p-1] + simd.GemmStrip - 1) / simd.GemmStrip
			p++
		}
		first, end = s.panels[p-1], s.panels[p]
	}
	if lo >= hi || hi > end || (lo-first)%simd.GemmStrip != 0 {
		panic(fmt.Sprintf("engine: columns [%d,%d) are not strips of one panel of [%d,%d)", lo, hi, first, end))
	}
	s.b = s.b.From((strip + (lo-first)/simd.GemmStrip) * s.b.StripStride)
	s.n, s.panels = hi-lo, nil
	if s.scales != nil {
		s.scales = s.scales[lo:hi]
	}
	return s
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
	if s.panels != nil {
		panic(fmt.Sprintf("engine: a GEMM reads one panel, not %d", len(s.panels)-1))
	}
	tensor.GemmInto(dst, a, s.b, acc)
}

// chipLayer is one layer's weights on one chip: the chip's blocks of W_in =
// [W_Q | W_K | W_V | W_up | W_gate] and W_out = [W_O ; W_down], each stored
// once (blockPlan.cuts). Under weight-gathered every layer shares one pair
// of staging matrices (gatherLayer).
type chipLayer struct {
	win, wout shard
}

// blockPlan is a plan as one chip sees it: the plan's Outer and Inner axis
// groups (partition.FFNPlan, whose table maps each layout to them), their
// sizes and this chip's index in each, and the widths of one chunk. The
// chip with index a = iInner + nInner·iOuter in the activation group owns
// chunk a of each projection: query heads a (qw columns), the K/V columns
// (kvw each: all of them, or K/V heads a), and F block a (fw columns of up
// and of gate); and the matching rows of W_out, O rows a and down rows a.
// A chip stores the E/nInner rows of its stripe — the E/n blocks iInner +
// nInner·j, in the order the outer gather assembles them — of the nInner
// in-chunks its inner group reduces, and those out-chunks' rows of the
// stripe's columns. An empty group makes its collectives identities.
type blockPlan struct {
	outer, inner   hardware.AxisGroup
	nOuter, nInner int // group sizes; nOuter·nInner = nAct
	iOuter, iInner int // this chip's index in each group
	// qw, kvw and fw are a chunk's query, K (and V) and F widths; inW =
	// qw + 2·kvw + (FFN input matrices)·fw and outW = qw + fw are the
	// in-projection's columns and the out-projection's rows a chunk.
	qw, kvw, fw, inW, outW int
}

// blockPlan returns a chip's view of a plan.
func (e *Engine) blockPlan(rank int, plan partition.FFNPlan) blockPlan {
	cfg := e.cfg
	p := blockPlan{outer: plan.Outer, inner: plan.Inner}
	c := e.m.Chip(rank)
	p.iOuter, p.nOuter = c.GroupRank(p.outer)
	p.iInner, p.nInner = c.GroupRank(p.inner)
	n := p.nOuter * p.nInner
	p.qw, p.fw = cfg.Heads*cfg.HeadDim/n, cfg.DFF/n
	p.kvw = cfg.KVHeads * cfg.HeadDim
	if attn := partition.PlanAttn(e.opts.Attn, e.m.Torus, cfg.Heads, cfg.KVHeads); commcost.KVCopies(cfg, attn) == 1 {
		p.kvw /= n
	}
	p.inW = p.qw + 2*p.kvw + (cfg.FFNMatrices()-1)*p.fw
	p.outW = p.qw + p.fw
	return p
}

// cuts returns the chip's blocks of the fused matrices, in the full
// matrices' coordinates (Engine.fuse): rows of the stripe and columns of
// each in-chunk of W_in, rows of each out-chunk and columns of the stripe of
// W_out. Their panels are the column blocks one GEMM reads: each in-chunk
// of W_in — under a serial block its attention span and its FFN span — and
// with no inner group each of the outer reduce-scatter's E chunks of W_out,
// otherwise the whole stripe.
func (p *blockPlan) cuts(cfg model.Config) (in, out cut) {
	n := p.nOuter * p.nInner
	eb := cfg.DModel / n
	hq, kvq, f := cfg.Heads*cfg.HeadDim, cfg.KVHeads*cfg.HeadDim, cfg.DFF
	var stripe []int
	for j := 0; j < p.nOuter; j++ {
		stripe = append(stripe, contiguous((p.iInner+p.nInner*j)*eb, eb)...)
	}
	var cols, rows []int
	for i := 0; i < p.nInner; i++ {
		a := i + p.nInner*p.iOuter
		kv := 0
		if p.kvw < kvq {
			kv = a * p.kvw
		}
		cols = append(cols, contiguous(a*p.qw, p.qw)...)
		cols = append(cols, contiguous(hq+kv, p.kvw)...)
		cols = append(cols, contiguous(hq+kvq+kv, p.kvw)...)
		for g := 0; g < cfg.FFNMatrices()-1; g++ {
			cols = append(cols, contiguous(hq+2*kvq+g*f+a*p.fw, p.fw)...)
		}
		rows = append(rows, contiguous(a*p.qw, p.qw)...)
		rows = append(rows, contiguous(hq+a*p.fw, p.fw)...)
	}
	in, out = cut{stripe, cols, []int{0}}, cut{rows, stripe, []int{0}}
	for i := 1; i <= p.nInner; i++ {
		if !cfg.ParallelBlock {
			in.panels = append(in.panels, (i-1)*p.inW+p.qw+2*p.kvw)
		}
		in.panels = append(in.panels, i*p.inW)
	}
	for j := 1; j <= p.nOuter; j++ {
		if p.nInner == 1 || j == p.nOuter {
			out.panels = append(out.panels, j*eb)
		}
	}
	return in, out
}

// part is the span of a chunk one block body runs over: columns [inLo,
// inHi) of each in-chunk and rows [outLo, outHi) of each out-chunk — all of
// them for a parallel block, the attention's or the FFN's for a serial one
// — with the int8 wire formats of its inner reduce-scatter and gather (nil
// on a float32 wire).
type part struct {
	inLo, inHi, outLo, outHi int
	rsWire, agWire           collective.Payload
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
	opID       uint64
	// wire is the payload format the data-plane collectives travel in
	// (nil = float32; collective.WireInt8 under an int8 Options.WireDType).
	wire collective.Payload
	// rowsWire is the format the block's outer gather and reduce-scatter and
	// the final norm's gather move E/nAct-wide token rows in: float32, or
	// int8 with one scale per token (collective.WireInt8Rows).
	rowsWire collective.Payload
	// plan is the block sharding as this chip sees it, and parts its block
	// bodies: the whole chunk, its attention span and its FFN span.
	plan  blockPlan
	parts [3]part
	// wg holds the weight-gathered layout's at-rest shards (nil otherwise).
	wg *wgState

	// Per-chip scratch: every temporary of a forward pass comes from the
	// arena (reset at the top of each pass) and the attention walk is a
	// task bound once whose softmax runs in one scratch per pool part, each
	// sized to heads-per-KV-head × maxLen before its first walk, so a
	// steady-state decode iteration performs zero heap allocations on this
	// chip.
	arena tensor.Arena
	walk  walk
	// logits is this chip's output of the latest pass (arena-backed, valid
	// until the chip's next pass; public APIs clone or copy out of it).
	logits *tensor.Mat
	// shards is the shard-pointer table the attention all-to-alls send
	// from and recv the table they receive into, one entry per chip;
	// contents are transient within one layer. view is a matrix header the
	// collectives' chunk callbacks wrap a chunk in.
	shards, recv [][]float32
	view         tensor.Mat
}

// Engine is a sharded inference session.
type Engine struct {
	cfg    model.Config
	opts   Options
	m      *mesh.Mesh
	chips  []*chipState
	batch  int
	maxLen int
	// prefix is the mesh's one shared-prefix index (nil until
	// EnablePrefixCache), and slotPfx holds, per slot, the acquired entry
	// whose reference ReleaseSlot must give back. slotPfx is the only owner
	// of those references; the caches only alias the entries' blocks.
	prefix  *kvcache.PrefixStore
	slotPfx []*kvcache.Prefix

	// fw carries the current pass's arguments to the per-chip SPMD body,
	// and runFwd is that body (chipForward) bound once at construction, so
	// issuing a pass allocates neither an argument struct nor a closure.
	fw     pass
	runFwd func(c *mesh.Chip)
	// counts and toks are the slot wrappers' pass (PrefillSlot,
	// DecodeSlotsInto), allocated once like fw.off.
	counts, toks []int
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
	plan := partition.PlanFFN(opts.FFN, t)
	switch len(plan.Gather) {
	case 0:
	case 3:
		// Token-sharded activations: attention must be batch-sharded and
		// the batch must split evenly; weights gather from ExFyz shards.
		if opts.Attn != partition.AttnShardBatch {
			return nil, fmt.Errorf("engine: weight-gathered XYZ requires batch-sharded attention")
		}
		if opts.Int8Weights {
			return nil, fmt.Errorf("engine: weight-gathered XYZ is float-only in the functional engine")
		}
	default:
		// A partial gather would shard tokens over some axes and
		// activations over the rest.
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
		slotPfx: make([]*kvcache.Prefix, batch), fw: pass{off: make([]int, batch+1)},
		counts: make([]int, batch), toks: make([]int, 0, batch)}
	e.chips = make([]*chipState, n)
	cuts := make([][wgMats]cut, n)
	for r := 0; r < n; r++ {
		e.chips[r] = e.buildChip(w, plan, r)
		cuts[r][0], cuts[r][1] = e.chips[r].plan.cuts(cfg)
		if opts.WireDType == model.Int8 {
			e.chips[r].setInt8Wire()
		}
	}
	// One layer at a time, fused into scratch every chip cuts from.
	var scratch [wgMats]*tensor.Mat
	for l := range w.Layers {
		full := e.fuse(&w.Layers[l], &scratch)
		for r, st := range e.chips {
			if st.wg != nil {
				st.wg.add(full, cuts[r], e.m.Chip(r))
				if l > 0 {
					// Every layer shares layer 0's full-size weights as staging.
					st.layers = append(st.layers, st.layers[0])
					continue
				}
			}
			st.layers = append(st.layers, chipLayer{win: full[0].take(cuts[r][0]), wout: full[1].take(cuts[r][1])})
		}
	}
	e.runFwd = e.chipForward
	return e, nil
}

// Reset returns every slot to empty — lengths zeroed, prefixes detached and
// their references given back — without reallocating any storage, so a
// benchmark or serving loop can reuse one engine session across logical
// sessions. Like kvcache.Reset, slot storage is not zeroed; use ReleaseSlot
// for per-slot eviction hygiene on a live batch.
func (e *Engine) Reset() {
	for _, st := range e.chips {
		st.cache.Reset()
	}
	for s, p := range e.slotPfx {
		if p != nil {
			e.slotPfx[s] = nil
			e.releasePrefix(p)
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

// cut is a block of a matrix: the rows and the columns it holds, in the
// order the block stores them, and the bounds of the panels its columns
// fall into — panel p is the block's columns [panels[p], panels[p+1]) — or
// nil for one panel.
type cut struct{ rows, cols, panels []int }

// matrix is a row-major k×n weight matrix, float32 or raw int8 with its
// per-column scales: the transient source New cuts every chip's shards
// from. Nothing multiplies it.
type matrix struct {
	k, n   int
	f32    []float32
	i8     []int8
	scales []float32
}

// wholeMatrix is m as a source: its float32 values, or with int8w its
// quantization, one scale per column.
func wholeMatrix(m *tensor.Mat, int8w bool) matrix {
	if int8w {
		q := quant.Quantize(m)
		return matrix{k: m.Rows, n: m.Cols, i8: q.Data, scales: q.Scales}
	}
	return matrix{k: m.Rows, n: m.Cols, f32: m.Data}
}

// take packs block ct of m into a shard of its own, in one pass: each
// panel strip by strip, with the block's column scales. Cutting int8
// weights quantized whole (quantize once, then shard, as a real checkpoint
// pipeline does) keeps every chip's arithmetic consistent with the
// unsharded quantized model; quantizing each shard would give it scales of
// its own.
func (m matrix) take(ct cut) shard {
	s := shard{k: len(ct.rows), n: len(ct.cols), b: simd.GemmB{RowStride: simd.GemmStrip, StripStride: simd.GemmStrip * len(ct.rows)}}
	if len(ct.panels) > 2 {
		s.panels = ct.panels
	}
	if m.scales != nil {
		s.scales = make([]float32, s.n)
		for j, c := range ct.cols {
			s.scales[j] = m.scales[c]
		}
	}
	n := stripCount(ct.panels, s.n)
	if m.i8 != nil {
		s.b.I8 = make([]int8, n*s.b.StripStride)
		pack(s.b.I8, m.i8, m.n, ct, 0, s.k, simd.GemmStrip)
	} else {
		s.b.F32 = make([]float32, n*s.b.StripStride)
		pack(s.b.F32, m.f32, m.n, ct, 0, s.k, simd.GemmStrip)
	}
	return s
}

// pack copies rows [lo, hi) of block ct of row-major src, n columns wide,
// into dst strip by strip in storage order (ct's panels as in shard), each
// strip's rows rowStride apart: the strip width for a panel, whose padding
// dst keeps as it is, or 0 for the strip's own width, runs with no padding
// at all (the weight-gathered layout's at-rest rows). dst is written in
// order; a strip of eight abutting source columns moves as one array.
func pack[T float32 | int8](dst, src []T, n int, ct cut, lo, hi, rowStride int) {
	at := 0
	strips(ct.panels, len(ct.cols), func(_, j, w int) {
		cols, c0 := ct.cols[j:j+w], ct.cols[j]
		abut := true
		for q, c := range cols {
			abut = abut && c == c0+q
		}
		stride := rowStride
		if stride == 0 {
			stride = w
		}
		for _, r := range ct.rows[lo:hi] {
			row := src[r*n : (r+1)*n]
			switch {
			case abut && w == simd.GemmStrip:
				*(*[simd.GemmStrip]T)(dst[at:]) = *(*[simd.GemmStrip]T)(row[c0:])
			case abut:
				copy(dst[at:at+w], row[c0:])
			default:
				for q, c := range cols {
					dst[at+q] = row[c]
				}
			}
			at += stride
		}
	})
}

func contiguous(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// The block bodies of a layer: the whole chunk, for a parallel block, and
// for a serial block its attention span, then its FFN span.
const (
	partAll = iota
	partAttn
	partFFN
)

// setParts sets the chip's block bodies' spans.
func (st *chipState) setParts() {
	p := &st.plan
	attnIn := p.qw + 2*p.kvw
	st.parts = [3]part{
		partAll:  {inHi: p.inW, outHi: p.outW},
		partAttn: {inHi: attnIn, outHi: p.qw},
		partFFN:  {inLo: attnIn, inHi: p.inW, outLo: p.qw, outHi: p.outW},
	}
}

// setInt8Wire switches every collective the chip issues to int8: one scale
// per chunk for the all-to-alls, weight staging and logit gather, one per
// token row for the block's activations, and the norm statistic exact
// beside each row of the in-projection's reduce-scatter.
func (st *chipState) setInt8Wire() {
	st.wire = collective.WireInt8
	st.rowsWire = collective.WireInt8Rows(st.embedCols.Cols)
	for i := range st.parts {
		pt := &st.parts[i]
		pt.rsWire = collective.WireInt8RowsStat(pt.inHi - pt.inLo)
		pt.agWire = collective.WireInt8Rows(pt.outHi - pt.outLo)
	}
}

// fuse returns one layer's two fused matrices whole, in the coordinates
// blockPlan.cuts reads: W_in = [W_Q | W_K | W_V | W_up | W_gate] (no gate
// for GELU) with each row scaled by its norm gain — the pre-block gain, or
// under a serial block the FFN's for the up and gate columns — and W_out =
// [W_O ; W_down]. They hold the reference float32 values, assembled in
// scratch that the next layer reuses, or under Int8Weights their
// quantization, one scale per fused column, computed once per matrix for
// every chip to cut its shards from.
func (e *Engine) fuse(lw *reference.LayerWeights, scratch *[wgMats]*tensor.Mat) [wgMats]matrix {
	ffnGain := lw.FFNNormGain
	if e.cfg.ParallelBlock {
		ffnGain = lw.NormGain
	}
	in := []*tensor.Mat{lw.WQ, lw.WK, lw.WV, lw.WUp}
	gains := [][]float32{lw.NormGain, lw.NormGain, lw.NormGain, ffnGain}
	if lw.WGate != nil {
		in, gains = append(in, lw.WGate), append(gains, ffnGain)
	}
	cols := 0
	for _, m := range in {
		cols += m.Cols
	}
	if scratch[0] == nil {
		scratch[0] = tensor.New(e.cfg.DModel, cols)
		scratch[1] = tensor.New(lw.WO.Rows+lw.WDown.Rows, e.cfg.DModel)
	}
	win, wout := scratch[0], scratch[1]
	at := 0
	for k, m := range in {
		for r := 0; r < m.Rows; r++ {
			src, g := m.Row(r), gains[k][r]
			dst := win.Row(r)[at : at+len(src)]
			for j, v := range src {
				dst[j] = v * g
			}
		}
		at += m.Cols
	}
	copy(wout.Data, lw.WO.Data)
	copy(wout.Data[len(lw.WO.Data):], lw.WDown.Data)
	return [wgMats]matrix{wholeMatrix(win, e.opts.Int8Weights), wholeMatrix(wout, e.opts.Int8Weights)}
}

// buildChip sets up one chip of plan: everything but its layers' weights,
// which New cuts for it layer by layer.
func (e *Engine) buildChip(w *reference.Weights, plan partition.FFNPlan, rank int) *chipState {
	cfg := e.cfg
	st := &chipState{plan: e.blockPlan(rank, plan), act: hardware.GroupXYZ}
	st.setParts()
	if plan.Gather != nil {
		// Token-sharded: no activation group, and at-rest shards that
		// gatherLayer stages before each layer.
		st.act, st.wg = nil, &wgState{gather: plan.Gather}
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
	st.shards, st.recv = make([][]float32, n), make([][]float32, n)

	// KV cache shard.
	if e.batchShardedCache() {
		st.cache = e.newKVCache(e.batch/e.m.Chips(), cfg.KVHeads*cfg.HeadDim)
	} else {
		st.cache = e.newKVCache(e.batch, st.plan.kvw)
	}
	st.walk = newWalk(st.cache, cfg.Heads/cfg.KVHeads, cfg.HeadDim)
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

// op mints a fresh collective op context (same id sequence on every chip,
// from 0 at each pass's start, because the program is SPMD-deterministic)
// carrying the session's wire format. Each reserves one id: every
// collective the engine issues is a single gather, reduce-scatter or
// all-to-all (no all-reduce), and the mesh's tag-collision check would
// catch any miscounted reservation.
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

// gatherNorm all-gathers the residual x, E-sharded over the chip's
// activation group, and RMS-normalizes every full row locally with the
// full-width gain: the final norm before the logits. The rows are
// normalized in place in the gathered copy; over a group of one the gather
// returns x itself, the residual, so they go to a fresh arena matrix
// instead. Under an int8 wire every token's shard travels with its own
// scale (st.rowsWire), so a loud token costs the others none of their
// resolution.
func gatherNorm(c *mesh.Chip, st *chipState, x *tensor.Mat, gain []float32) *tensor.Mat {
	o := st.op(c)
	o.Wire = st.rowsWire
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
