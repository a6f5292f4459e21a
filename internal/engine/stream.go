package engine

import (
	"esti/internal/collective"
	"esti/internal/hardware"
	"esti/internal/mesh"
	"esti/internal/tensor"
)

// This file holds the block's two ring shapes, each with the Looped
// CollectiveEinsum of Options.Streamed (Section 3.5): a reduce-scatter whose
// chunks a producer computes, and the inner all-gather whose chunks a
// consumer folds. Streamed, the producer runs inside the ring just before
// the ring sends or folds each chunk, and the consumer as each chunk lands,
// so each chunk's GEMM — still the blocked kernels — executes while the ring
// relays the next chunk. Unstreamed, the same producer fills every chunk
// before the ring starts and the same consumer folds the gathered chunks
// after it ends, in the order the ring would have handed them over: the
// results are bit-identical either way. The weights are zero-copy views:
// a reduce-scatter's chunk j multiplies a panel of a stored matrix
// (or, after a 2D inner gather, is a column block of the folded sum), and
// the gather's chunk i multiplies a row block of W_out.

// reduceScatter sums, over group g of size chips, a matrix whose chunk j —
// tokens rows of w columns — produce writes into dst, and returns this
// chip's chunk of the sum in arena storage. With a non-nil stat each chunk
// also carries those tokens' statistics after its rows, summed the same
// way and returned second. Over a group of one produce writes the result
// directly and stat comes back as it is.
func (st *chipState) reduceScatter(c *mesh.Chip, g hardware.AxisGroup, size, tokens, w int, stat []float32,
	wire collective.Payload, streamed bool, produce func(j int, dst *tensor.Mat)) (*tensor.Mat, []float32) {
	ar := &st.arena
	o := st.op(c)
	if size == 1 {
		dst := ar.Mat(tokens, w)
		produce(0, dst)
		return dst, stat
	}
	if wire != nil {
		o.Wire = wire
	}
	rows := tokens * w
	ws := ar.Mat(size, rows+len(stat))
	fill := func(j int, chunk []float32) {
		v := &st.view
		v.Rows, v.Cols, v.Data = tokens, w, chunk[:rows]
		produce(j, v)
		copy(chunk[rows:], stat)
	}
	var mine []float32
	if streamed {
		mine = collective.ReduceScatterStream(o, g, ws.Data, fill)
	} else {
		for j := 0; j < size; j++ {
			fill(j, ws.Row(j))
		}
		mine = collective.ReduceScatterStream(o, g, ws.Data, nil)
	}
	out := ar.Mat(tokens, w)
	copy(out.Data, mine[:rows])
	if stat != nil {
		stat = ar.Mat(1, tokens).Data
		copy(stat, mine[rows:])
	}
	c.Recycle(mine)
	return out, stat
}

// gatherFold all-gathers m, [tokens, w], over group g of size chips and
// hands each member's chunk to fold as a [tokens, w] matrix — in ring order,
// the chip's own first, then rank-1, rank-2, ... — streamed as the chunks
// land or, unstreamed, after the gather completes.
func (st *chipState) gatherFold(c *mesh.Chip, g hardware.AxisGroup, size int, m *tensor.Mat,
	wire collective.Payload, streamed bool, fold func(i int, chunk *tensor.Mat)) {
	o := st.op(c)
	if wire != nil {
		o.Wire = wire
	}
	consume := func(i int, chunk []float32) {
		v := &st.view
		v.Rows, v.Cols, v.Data = m.Rows, m.Cols, chunk
		fold(i, v)
	}
	if streamed {
		c.Recycle(collective.AllGatherStream(o, g, m.Data, consume))
		return
	}
	all := collective.AllGather(o, g, m.Data)
	rank, _ := c.GroupRank(g)
	per := len(m.Data)
	for s := 0; s < size; s++ {
		i := (rank - s + size) % size
		consume(i, all[i*per:(i+1)*per])
	}
	c.Recycle(all)
}
