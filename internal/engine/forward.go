package engine

import (
	"fmt"
	"sort"

	"esti/internal/collective"
	"esti/internal/kvcache"
	"esti/internal/mesh"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/tensor"
)

// pass is one forward pass as the per-chip SPMD bodies see it: counts[s]
// new tokens for slot s — 0 leaves it idle, 1 decodes it, k prefills a
// chunk — concatenated in slot order in tokens. Slot s's rows of every
// activation of the pass are [off[s], off[s+1]): Step fills off once per
// pass, into a buffer allocated at New, and an idle slot has no row at all.
type pass struct {
	tokens, counts, off []int
}

// Step runs one forward pass: counts[s] tokens for slot s, taken in slot
// order from tokens, each appended at its slot's current depth and attending
// causally against everything before it. It writes one logits row per token,
// in the same order, into dst (reshaped, reusing its buffer; nil allocates)
// and returns it. A lockstep batch, a decode of some slots and an admission
// into one slot are all fillings of counts; a pass of no tokens runs nothing.
//
// Chip 0's logits are returned and are authoritative: under fp32 wire every
// chip gathers identical logits, but under an int8 wire each chip holds its
// own vocab shard exact and the others' dequantized, so per-chip copies may
// differ within the quantization bound. With a caller-reused dst a warm step
// on one chip performs zero heap allocations: temporaries come from per-chip
// arenas, attention reads the KV cache through zero-copy views, and the
// softmax runs in a pre-sized per-chip scratch.
//
// The pass is checked here, on the host, because a chip that panics
// mid-pass aborts the pass on every chip while those past their last
// collective with it may already have committed their appends: a slot
// overflow would panic on the slot's holders only. A rejected pass returns
// an error having moved no chip state, and the session stays usable.
func (e *Engine) Step(dst *tensor.Mat, tokens, counts []int) (*tensor.Mat, error) {
	if len(counts) != e.batch {
		return nil, fmt.Errorf("engine: %d counts for batch %d", len(counts), e.batch)
	}
	off := e.fw.off
	for s, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("engine: %d tokens for slot %d", n, s)
		}
		if got := e.SlotLen(s); got+n > e.maxLen {
			return nil, fmt.Errorf("engine: slot %d overflow: %d+%d > capacity %d", s, got, n, e.maxLen)
		}
		off[s+1] = off[s] + n
	}
	if len(tokens) != off[e.batch] {
		return nil, fmt.Errorf("engine: %d tokens for counts summing to %d", len(tokens), off[e.batch])
	}
	for _, tok := range tokens {
		if tok < 0 || tok >= e.cfg.Vocab {
			return nil, fmt.Errorf("engine: token %d out of vocab %d", tok, e.cfg.Vocab)
		}
	}
	if dst == nil {
		dst = new(tensor.Mat)
	}
	if len(tokens) == 0 {
		return dst.Reshape(0, e.cfg.Vocab), nil
	}

	e.fw.tokens, e.fw.counts = tokens, counts
	e.m.Run(e.runFwd)

	if e.chips[0].nAct > 1 {
		// Every chip gathered the full logits; chip 0's is authoritative.
		return tensor.CopyInto(dst, e.chips[0].logits), nil
	}
	// Each chip holds its own slots' logits: stack the row blocks in rank
	// order, which is slot order, on the host (no mesh traffic: results
	// leave through the host, as with any inference service).
	dst.Reshape(len(tokens), e.cfg.Vocab)
	at := 0
	for _, st := range e.chips {
		at += copy(dst.Data[at:], st.logits.Data)
	}
	return dst, nil
}

// must is a Step result for the slot wrappers, which panic on an error.
func must(m *tensor.Mat, err error) *tensor.Mat {
	if err != nil {
		panic(err.Error())
	}
	return m
}

// DecodeSlotsInto decodes every active slot one token from last[s], each
// against its own KV-cache depth: the iteration a continuous-batching
// scheduler issues. It is Step with a count of 1 per active slot (a nil mask
// decodes every slot), laid out as [batch, vocab] logits in dst (nil
// allocates): an inactive slot's last[s] is ignored, its cache does not
// grow and its logits row is zero. With a caller-reused dst it keeps Step's
// zero-allocation contract.
func (e *Engine) DecodeSlotsInto(dst *tensor.Mat, last []int, active []bool) *tensor.Mat {
	if len(last) != e.batch {
		panic(fmt.Sprintf("engine: %d last-tokens for batch %d", len(last), e.batch))
	}
	if active != nil && len(active) != e.batch {
		panic(fmt.Sprintf("engine: %d mask entries for batch %d", len(active), e.batch))
	}
	toks := e.toks[:0]
	for s, tok := range last {
		e.counts[s] = 0
		if active == nil || active[s] {
			e.counts[s] = 1
			toks = append(toks, tok)
		}
	}
	if dst == nil {
		dst = new(tensor.Mat)
	}
	// Sized for the batch first, so Step's live rows and their spread
	// below share one buffer.
	dst.Reshape(e.batch, e.cfg.Vocab)
	live := must(e.Step(dst, toks, e.counts)).Rows
	dst.Reshape(e.batch, e.cfg.Vocab)
	// Spread the live rows to their slots', last first so none is
	// overwritten before it moves, and zero the idle slots' rows.
	for s := e.batch - 1; s >= 0; s-- {
		if e.counts[s] == 0 {
			clear(dst.Row(s))
			continue
		}
		if live--; live != s {
			copy(dst.Row(s), dst.Row(live))
		}
	}
	return dst
}

// chipSeqs is the block of slots a chip's cache shard holds: slots
// [at, at+count), slot at+i at index i of the shard.
type chipSeqs struct{ at, count int }

// seqsOn returns a chip's block of slots, fixed at New: every slot under
// head-sharded attention, its batch/n under batch-sharded attention. It
// returns a value, so the attention all-to-alls can ask it for every
// destination without allocating.
func (e *Engine) seqsOn(rank int) chipSeqs {
	if !e.batchShardedCache() {
		return chipSeqs{count: e.batch}
	}
	n := e.batch / e.m.Chips()
	return chipSeqs{at: rank * n, count: n}
}

// rows is the block's rows of pass p, [lo, hi).
func (sq chipSeqs) rows(p *pass) (lo, hi int) { return p.off[sq.at], p.off[sq.at+sq.count] }

// counts is the block's slots' token counts in pass p.
func (sq chipSeqs) counts(p *pass) []int { return p.counts[sq.at : sq.at+sq.count] }

// advance commits the pass's appended positions on a chip's cache shard.
func (e *Engine) advance(st *chipState, sq chipSeqs) {
	for i, n := range sq.counts(&e.fw) {
		st.cache.AdvanceSeq(i, n)
	}
}

// chipForward is one chip's body of a pass under every layout, bound to
// e.runFwd at construction so issuing a pass allocates no closure. Every
// temporary comes from the chip's arena, the logits included: st.logits is
// valid until the chip's next pass. A weight-gathered chip whose slots are
// all idle — an admission into another chip's slot — still serves its
// weight shards to every gather and runs the rest on no rows.
func (e *Engine) chipForward(c *mesh.Chip) {
	p := &e.fw
	st := e.chips[c.Rank]
	// Every pass mints its collective ids from 0 on every chip: a pass a
	// chip panicked out of leaves the chips' counters apart, and mesh.Run
	// has joined every chip and cleared every inbox before the next pass,
	// so no message of an old id is still in flight.
	st.opID = 0
	ar := &st.arena
	ar.Reset()

	// Embedding lookup onto this chip's residual stream: every token of the
	// pass, E-sharded over the activation group — or, with no group, the
	// tokens of the chip's own slots at full width.
	sq := e.seqsOn(c.Rank)
	toks := p.tokens
	if st.nAct == 1 {
		lo, hi := sq.rows(p)
		toks = p.tokens[lo:hi]
	}
	x := ar.Mat(len(toks), st.embedCols.Cols)
	for i, tok := range toks {
		copy(x.Row(i), st.embedCols.Row(tok))
	}

	// A block's temporaries die with it: each body takes the same ones
	// again.
	mark := ar.Mark()
	for l := range st.layers {
		if st.wg != nil {
			e.gatherLayer(c, st, l)
		}
		cl := &st.layers[l]
		if e.cfg.ParallelBlock {
			e.block(c, st, cl, l, x, &st.parts[partAll])
		} else {
			e.block(c, st, cl, l, x, &st.parts[partAttn])
			ar.Release(mark)
			e.block(c, st, cl, l, x, &st.parts[partFFN])
		}
		ar.Release(mark)
	}
	e.advance(st, sq)

	// Logits: the full normed final rows times this chip's vocab-row
	// block, then gather the vocab dimension.
	final := gatherNorm(c, st, x, st.finalGain)
	logitsLocal := tensor.MatMulTInto(ar.Mat(final.Rows, st.embedRows.Rows), final, st.embedRows)
	st.logits = agCols(ar, st.op(c), st.act, logitsLocal, st.nAct)
}

// batchShardedCache reports whether each chip's cache holds a sequence
// shard (batch-sharded attention, which the weight-gathered layout also
// requires) rather than the whole batch.
func (e *Engine) batchShardedCache() bool {
	return e.opts.Attn == partition.AttnShardBatch
}

// block runs one block body over pt — the whole fused block, or a serial
// block's attention or FFN span — and adds its output into the residual x:
// the outer gather of the residual stripe, the in-projection reduce-scattered
// over the inner group with each token's norm statistic, attention and the
// nonlinearity on the chip's chunk, the inner gather, and the out-projection
// reduce-scattered over the outer group (see the package comment).
func (e *Engine) block(c *mesh.Chip, st *chipState, cl *chipLayer, layer int, x *tensor.Mat, pt *part) {
	ar := &st.arena
	p := &st.plan
	streamed := e.opts.Streamed && p.nOuter*p.nInner > 1

	// The residual's E/nInner stripe, and each token's sum of squares over
	// it: over the whole row when the inner group is empty, else a partial
	// the in-projection's reduce-scatter sums. Over a group of one h is x.
	o := st.op(c)
	o.Wire = st.rowsWire
	h := agCols(ar, o, p.outer, x, p.nOuter)
	tokens := h.Rows
	ss := ar.Mat(1, tokens).Data
	for t := range ss {
		var s float32
		for _, v := range h.Row(t) {
			s += v * v
		}
		ss[t] = s
	}
	var stat []float32
	if p.nInner > 1 {
		stat = ss
	}
	y, sum := st.reduceScatter(c, p.inner, p.nInner, tokens, pt.inHi-pt.inLo, stat, pt.rsWire, streamed,
		func(i int, dst *tensor.Mat) {
			cl.win.cols(i*p.inW+pt.inLo, i*p.inW+pt.inHi).mulInto(dst, h)
		})
	if sum != nil {
		ss = sum
	}
	inv := ss // 1/rms per token, in place
	for t, s := range ss {
		inv[t] = invSqrt(s/float32(e.cfg.DModel) + 1e-6)
	}

	// Attention on the chip's query heads and the nonlinearity on its F
	// block, each span normalized as it is read out of y, into out: the
	// [attn | act] rows the out-projection contracts.
	var attn *tensor.Mat
	col := 0 // y's column of the span at hand
	if pt.inLo == 0 {
		attn = e.attention(c, st, layer, y, inv)
		col = p.qw + 2*p.kvw
	}
	out := attn
	if pt.inHi == p.inW {
		out = ar.Mat(tokens, pt.outHi-pt.outLo)
		at := out.Cols - p.fw // act's first column
		for t := 0; t < tokens; t++ {
			row, s := out.Row(t), inv[t]
			if attn != nil {
				copy(row, attn.Row(t))
			}
			act := tensor.Mat{Rows: 1, Cols: p.fw, Data: row[at:]}
			up := y.Row(t)[col : col+p.fw]
			if e.cfg.FFNKind != model.SwiGLU {
				for j, v := range up {
					act.Data[j] = v * s
				}
				tensor.GELU(&act)
				continue
			}
			for j, v := range y.Row(t)[col+p.fw : col+2*p.fw] {
				act.Data[j] = v * s
			}
			tensor.SiLUFast(&act)
			for j, v := range up {
				act.Data[j] *= v * s
			}
		}
	}

	// The out-projection, reduce-scattered over the outer group back to
	// the chip's E-shard. With no inner group the chip holds the whole
	// contraction and the reduce-scatter's producer computes each E chunk
	// of out·W_out; otherwise each inner chunk folds its product with its
	// row block of W_out, and the producer hands out the sum's E chunks.
	eb := e.cfg.DModel / (p.nOuter * p.nInner)
	var produce func(j int, dst *tensor.Mat)
	if p.nInner == 1 {
		wo := cl.wout.rows(pt.outLo, pt.outHi)
		produce = func(j int, dst *tensor.Mat) { wo.cols(j*eb, (j+1)*eb).mulInto(dst, out) }
	} else {
		acc := ar.Mat(tokens, p.nOuter*eb)
		acc.Zero()
		st.gatherFold(c, p.inner, p.nInner, out, pt.agWire, streamed, func(i int, chunk *tensor.Mat) {
			cl.wout.rows(i*p.outW+pt.outLo, i*p.outW+pt.outHi).mulAcc(acc, chunk)
		})
		cl.wout.finishAcc(acc)
		produce = func(j int, dst *tensor.Mat) {
			for t := 0; t < tokens; t++ {
				copy(dst.Row(t), acc.Row(t)[j*eb:(j+1)*eb])
			}
		}
	}
	res, _ := st.reduceScatter(c, p.outer, p.nOuter, tokens, eb, nil, st.rowsWire, streamed, produce)
	tensor.AddInPlace(x, res)
}

// normCols copies columns [lo, hi) of y into a fresh arena matrix, each row
// scaled by its inv.
func normCols(ar *tensor.Arena, y *tensor.Mat, lo, hi int, inv []float32) *tensor.Mat {
	out := ar.Mat(y.Rows, hi-lo)
	for t := 0; t < y.Rows; t++ {
		s, dst := inv[t], out.Row(t)
		for j, v := range y.Row(t)[lo:hi] {
			dst[j] = v * s
		}
	}
	return out
}

// attention runs the attention on the chip's query heads of y's Q columns,
// appending the K/V rows of the sequences this chip caches — all of them
// when the cache is head-sharded (this chip's KV heads, or the replicated
// multiquery head), its own batch shard otherwise — and returns the
// [tokens, qw] head block of the output. Query heads are split over the
// activation group; with no group the chip holds all of them and attends
// locally.
func (e *Engine) attention(c *mesh.Chip, st *chipState, layer int, y *tensor.Mat, inv []float32) *tensor.Mat {
	ar := &st.arena
	p := &st.plan
	q := normCols(ar, y, 0, p.qw, inv)
	sq := e.seqsOn(c.Rank)
	lo, hi := sq.rows(&e.fw)
	if st.nAct == 1 {
		lo, hi = 0, hi-lo
	}
	yMine := tensor.RowsView(y, lo, hi)
	k := normCols(ar, &yMine, p.qw, p.qw+p.kvw, inv[lo:hi])
	v := normCols(ar, &yMine, p.qw+p.kvw, p.qw+2*p.kvw, inv[lo:hi])
	if e.batchShardedCache() && st.nAct > 1 {
		return e.attnBatchSharded(c, st, layer, sq, q, k, v)
	}
	// The queries' sequences are all cached here: chip-local.
	return st.walk.appendAndAttendInto(ar.Mat(q.Rows, q.Cols), q, layer, sq.counts(&e.fw), k, v)
}

// appendAndAttendInto appends the new K/V of the chip's slots to its cache
// shard, then attends each slot's query rows against it, writing into out
// (which must be [q.Rows, q.Cols]). counts[i] is the number of rows of the
// shard's slot i, which follow slot i-1's; an idle slot has none. The
// appends run in the caller; the walk, from walkMinFlops on, runs as one
// split, each pool part over a contiguous range of the pass's query rows
// holding about an equal share of the positions they walk — the paper's
// Section 3.3 split of attention over the batch, carried down to the rows,
// so that one slot's prefill chunk is cut too, and cut evenly though its
// later rows walk more of the causal prefix. A row's walk is the same
// whichever part runs it, so the split changes no bit. Everything is views
// and fused kernels — no temporaries.
func (w *walk) appendAndAttendInto(out, q *tensor.Mat, layer int, counts []int, kNew, vNew *tensor.Mat) *tensor.Mat {
	w.out, w.q, w.layer = out, q, layer
	w.slots, w.off, w.depth, w.positions = w.slots[:0], w.off[:1], w.depth[:0], 0
	lo := 0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		hi := lo + n
		kv, vv := tensor.RowsView(kNew, lo, hi), tensor.RowsView(vNew, lo, hi)
		w.cache.AppendSeq(layer, i, &kv, &vv, n)
		// n causal rows from depth p walk n·p + n(n+1)/2 positions.
		p := w.cache.SeqLen(i)
		w.slots, w.off, w.depth = append(w.slots, i), append(w.off, hi), append(w.depth, p)
		w.positions += n*p + n*(n+1)/2
		lo = hi
	}
	// A score and a weigh multiply-add per head dimension and position.
	w.split(tensor.Parts(lo, 2*w.positions*q.Cols, walkMinFlops))
	return out
}

// walkMinFlops is the walk's break-even on the pool, in multiply-adds: a
// score and a weigh multiply-add per head dimension for each position a
// query head walks, as appendAndAttendInto counts them for tensor.Parts. A
// smaller walk runs in the chip's goroutine. BenchmarkWalkSplit (bench/'s
// one-chip geometry, two parts, a 2-vCPU x86 box) reads eight decode slots
// split 3–8 % faster than serial at 262 K multiply-adds and 20–26 % faster
// at 524 K, and a cold 32-row chunk, cut by positions, 13–15 % faster at
// 270 K (docs/measurements.md, "The split handoff"). The threshold was set
// when a split's handoff cost about 70 µs and those decodes lost 24–48 %;
// it stays, since lowering it would start splitting walks that run
// serially today (prefill_1chip's decodes, shared_prefix_mix's tails and
// cold chunks), a change to measure on its own. What clears it:
// longctx_int8kv's decode (about 3.9 M), its admissions (8–16 rows over
// the 1,024-token document, 4–8 M) and its set-up template (268 M);
// prefill_1chip's prompts from 45 rows on; shared_prefix_mix's
// whole-prompt admissions from 128 rows on, its templates at set-up and
// after an eviction (a chip holds 2 heads of 16). prefill_1chip's decode
// (160–420 K), shared_prefix_mix's decode, tails and cold chunks (at most
// 361 K) and every chat_mesh8 walk (at most 68 K, one slot a chip) do
// not.
const walkMinFlops = 1 << 19

// walk is one chip's attention walk over its cache shard as a tensor.Task,
// bound once at New so a pass splits it without allocating:
// appendAndAttendInto fills in the pass's operands and live slots, and
// split cuts the pass's rows into the parts the pool runs.
type walk struct {
	out, q *tensor.Mat
	cache  *kvcache.Cache
	layer  int
	// slots are the pass's live slots of the cache shard, in shard order,
	// and depth their committed depths. off holds their first rows in out
	// and q, with the pass's rows at the end, and positions counts what
	// those rows walk: row t of a chunk from depth p walks p + t + 1.
	slots, depth, off []int
	positions         int
	// first holds each part's first row, with the pass's rows at the end:
	// part k walks rows [first[k], first[k+1]) in scr[k]. Each scratch
	// holds the scores of g query heads over the cache's capacity and the
	// state of g heads of dim dh: the first, which every pass uses, from
	// New, the others from their first use, so a chip whose walk never
	// splits keeps one scratch and the table grows to the parts of the
	// largest split.
	first []int
	scr   []reference.AttnScratch
	g, dh int
}

// newWalk is the walk over cache's slots for g query heads of dim dh per KV
// head: the walk scores all of them at once, into a [depth][g] scratch
// beside the query row laid out in lanes, and no sharding gives a chip more
// of them per KV head than the model has.
func newWalk(cache *kvcache.Cache, g, dh int) *walk {
	n := cache.Seqs
	w := &walk{cache: cache, slots: make([]int, 0, n), depth: make([]int, 0, n),
		off: make([]int, 1, n+1), scr: make([]reference.AttnScratch, 1), g: g, dh: dh}
	w.scratch(0)
	return w
}

// scratch returns scratch i, sized for any pass.
func (w *walk) scratch(i int) *reference.AttnScratch {
	scr := &w.scr[i]
	scr.Reserve(w.g * w.cache.MaxLen)
	scr.ReserveHeads(w.g, w.dh)
	return scr
}

// split walks the pass's rows as parts contiguous ranges on the pool, no
// more parts than rows. A row goes to the part its middle position falls
// in, of parts of ⌈positions/parts⌉, so rows stay whole, every row is in
// exactly one part, and each part walks within one row of its share
// whatever the rows' depths.
func (w *walk) split(parts int) {
	rows := w.off[len(w.off)-1]
	parts = max(min(parts, rows), 1)
	size := (w.positions + parts - 1) / parts
	w.first = append(w.first[:0], 0)
	before := 0 // positions the rows before r walk
	for i, p := range w.depth {
		for r := w.off[i]; r < w.off[i+1]; r++ {
			n := p + r - w.off[i] + 1
			for k := len(w.first); k < parts && 2*before+n >= 2*k*size; k++ {
				w.first = append(w.first, r)
			}
			before += n
		}
	}
	for len(w.first) <= parts {
		w.first = append(w.first, rows)
	}
	for len(w.scr) < parts {
		w.scr = append(w.scr, reference.AttnScratch{})
	}
	tensor.Split(w, parts, parts)
}

// Run walks parts [lo, hi) of the pass in scratch part.
func (w *walk) Run(part, lo, hi int) {
	w.walkRows(w.scratch(part), w.first[lo], w.first[hi])
}

// walkRows walks rows [lo, hi) of the pass in scr. The range may start or
// end inside a slot's chunk: each row attends as it would in its whole
// chunk's walk.
func (w *walk) walkRows(scr *reference.AttnScratch, lo, hi int) {
	// The first slot whose rows end past lo.
	for i := sort.SearchInts(w.off[1:], lo+1); lo < hi; i++ {
		r0, r1 := w.off[i], min(w.off[i+1], hi)
		ov, qv := tensor.RowsView(w.out, lo, r1), tensor.RowsView(w.q, lo, r1)
		reference.AttendRowsInto(&ov, w.dh, &qv, w.cache, w.layer, w.slots[i], lo-r0, r1-lo, scr)
		lo = r1
	}
}

// attnBatchSharded moves the queries to the chips that cache their
// sequences, attends there, and moves each head block of the output back
// to the chip whose W_O rows contract it. kMine/vMine are the projections
// of this chip's own sequences (multiquery K/V identical on every chip,
// batch-sharded multihead full-width).
//
// Q is resharded from head-sharded to batch-sharded with an all-to-all and
// the attention output back with another (Figure 5(b)). Each destination
// gets the rows of its block of slots (seqsOn), as many as the pass gives
// them: a chip whose slots are all idle gets an empty shard.
func (e *Engine) attnBatchSharded(c *mesh.Chip, st *chipState, layer int, sq chipSeqs, qLocal, kMine, vMine *tensor.Mat) *tensor.Mat {
	ar := &st.arena
	p := &e.fw
	n := st.nAct
	headW := qLocal.Cols
	shards := st.shards

	// All-to-all #1: send each destination its slots' rows of my head-block
	// queries. Row blocks are contiguous, so the shards are zero-copy views
	// (Send copies on the wire).
	for d := range shards {
		lo, hi := e.seqsOn(d).rows(p)
		shards[d] = qLocal.Data[lo*headW : hi*headW]
	}
	recv := collective.AllToAllInto(st.op(c), st.act, st.recv, shards)
	// Assemble my slots' full-width queries [rowsPC, H·dh]: source srcIdx's
	// chunk is its head block, i.e. my column block srcIdx.
	lo, hi := sq.rows(p)
	rowsPC := hi - lo
	qMine := ar.Mat(rowsPC, headW*n)
	for srcIdx, data := range recv {
		for i := 0; i < rowsPC; i++ {
			copy(qMine.Row(i)[srcIdx*headW:(srcIdx+1)*headW], data[i*headW:(i+1)*headW])
		}
		c.Recycle(data)
	}

	outMine := st.walk.appendAndAttendInto(ar.Mat(rowsPC, headW*n), qMine, layer, sq.counts(p), kMine, vMine)

	// All-to-all #2: return each head block to its owner.
	backBuf := ar.Mat(rowsPC*n, headW)
	for d := range shards {
		blk := backBuf.Data[d*rowsPC*headW : (d+1)*rowsPC*headW]
		for i := 0; i < rowsPC; i++ {
			copy(blk[i*headW:(i+1)*headW], outMine.Row(i)[d*headW:(d+1)*headW])
		}
		shards[d] = blk
	}
	recv = collective.AllToAllInto(st.op(c), st.act, st.recv, shards)
	// Sources hold the slots in rank order, so their blocks stack into my
	// head block of every row [tokens, headsPC·dh].
	outLocal := ar.Mat(qLocal.Rows, headW)
	off := 0
	for _, data := range recv {
		off += copy(outLocal.Data[off:], data)
		c.Recycle(data)
	}
	return outLocal
}
