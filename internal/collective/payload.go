package collective

import (
	"math"

	"esti/internal/mesh"
	"esti/internal/quant"
	"esti/internal/simd"
)

// Payload is the wire format a collective's chunks travel in. The
// algorithms in this package are written once against this interface and
// stay format-agnostic: every chunk a collective moves is encoded by the
// op's payload on send, decoded (or folded) on receive, and relayed in
// transit form without re-encoding. Two implementations ship today —
//
//	WireF32:  4 bytes per element, exact (the default).
//	int8 rows: 1 byte per element plus one float32 scale per row, the
//	          paper's §3.3 insight — charge collectives by bytes, then
//	          shrink the bytes — applied to activations on the wire.
//	          WireInt8Rows(cols) puts a row every cols elements; WireInt8
//	          is its one-row-per-chunk case, one scale per chunk; and
//	          WireInt8RowsStat(cols) adds an exact float32 statistic a row.
//
// A future fp16 or block-quantized format is one more implementation of
// this interface; nothing in the ring algorithms changes. Implementations
// must be stateless values (they are copied inside Op on every collective
// call of a steady-state decode step) and draw all scratch from the chip's
// message pools so the hot path stays allocation-free.
//
// Accuracy contract of WireInt8: a gathered chunk is quantized exactly
// once, at its source chip, and relayed raw — error per element is bounded
// by half a quantization step (0.5/127 of the chunk's max magnitude)
// regardless of ring length. Reducing collectives (ReduceScatter,
// AllReduce) fold in float32 and re-quantize the running partial sum once
// per hop, so a K-chip reduction accumulates at most K-1 half-steps of its
// running magnitude. NaN/Inf inputs are clamped at encode time
// (quant.QuantizeRowInto), so scales are always finite-positive and a
// poisoned activation cannot NaN the fabric.
type Payload interface {
	// send encodes data and delivers it to dst (copy semantics: the
	// caller keeps data).
	send(c *mesh.Chip, dst int, tag uint64, data []float32)
	// recvInto receives the (src, tag) message, decodes it into dst, and
	// returns the chunk in transit form for a later relay or drop.
	recvInto(c *mesh.Chip, src int, tag uint64, dst []float32) transit
	// relay forwards a received chunk unchanged (ownership transfers).
	relay(c *mesh.Chip, dst int, tag uint64, t transit)
	// drop recycles a received chunk that will not be relayed.
	drop(c *mesh.Chip, t transit)
	// recvAdd receives the (src, tag) message and accumulates its decoded
	// values into dst (the reduction fold), recycling the wire buffer.
	recvAdd(c *mesh.Chip, src int, tag uint64, dst []float32)
	// recvTake receives the (src, tag) message and returns its decoded
	// values in a pool-owned float32 buffer the caller may Recycle.
	recvTake(c *mesh.Chip, src int, tag uint64) []float32
}

// WireF32 is the exact float32 wire format, the zero-cost default: sends
// copy into pooled buffers, receives hand the delivered buffer straight to
// the consumer.
var WireF32 Payload = f32Payload{}

// WireInt8 is the per-chunk-scaled int8 wire format: one byte per element
// plus a 4-byte scale per chunk, quartering activation collective volume
// versus float32 (halving it versus the analytic model's bf16 baseline).
// It is the int8 rows payload with the whole chunk as its one row.
var WireInt8 Payload = int8RowsPayload{}

// transit is a received chunk in wire form, held between the receive that
// folded it into the output and the send that relays it onward.
type transit struct {
	f     []float32
	q     []int8
	scale float32
}

type f32Payload struct{}

func (f32Payload) send(c *mesh.Chip, dst int, tag uint64, data []float32) {
	c.Send(dst, tag, data)
}

func (f32Payload) recvInto(c *mesh.Chip, src int, tag uint64, dst []float32) transit {
	buf := c.Recv(src, tag)
	if len(buf) != len(dst) {
		panic("collective: chunk size mismatch")
	}
	copy(dst, buf)
	return transit{f: buf}
}

func (f32Payload) relay(c *mesh.Chip, dst int, tag uint64, t transit) {
	c.SendOwned(dst, tag, t.f)
}

func (f32Payload) drop(c *mesh.Chip, t transit) {
	c.Recycle(t.f)
}

func (f32Payload) recvAdd(c *mesh.Chip, src int, tag uint64, dst []float32) {
	in := c.Recv(src, tag)
	if len(in) != len(dst) {
		panic("collective: chunk size mismatch")
	}
	in = in[:len(dst)]
	for i, v := range in {
		dst[i] += v
	}
	c.Recycle(in)
}

func (f32Payload) recvTake(c *mesh.Chip, src int, tag uint64) []float32 {
	return c.Recv(src, tag)
}

// WireInt8Rows is WireInt8 with one scale per row of cols elements instead
// of one per chunk, for chunks whose rows can differ in magnitude by
// orders: a raw residual, where one loud token would otherwise set every
// token's quantization step. Each row keeps WireInt8's error bound on its
// own max magnitude. The message's scale field carries the first row's
// scale and the others ride after the elements, four bytes each, so a
// chunk of r rows costs r·(cols+4) bytes. Chunks must be whole rows.
func WireInt8Rows(cols int) Payload { return int8RowsPayload{cols: cols} }

// WireInt8RowsStat is WireInt8Rows for a chunk of r rows of cols elements
// followed by r per-row statistics, which travel as exact float32 after the
// scales: a chunk of r·(cols+1) elements costs r·(cols+8) bytes. The
// statistic is a quantity on another scale than its row, which the row's
// int8 step would crush — the fused block's partial sum of squares of a
// token's un-normalized input, summed by the reduce-scatter it rides.
func WireInt8RowsStat(cols int) Payload { return int8RowsPayload{cols: cols, stat: true} }

// int8RowsPayload quantizes each row of cols elements with its own scale;
// a zero cols makes the whole chunk one row (WireInt8). With stat, each row
// has one float32 statistic, stored after all the rows.
type int8RowsPayload struct {
	cols int
	stat bool
}

// rows splits a chunk of n elements into r rows of cols int8 elements; with
// stat the last r elements are the rows' statistics.
func (p int8RowsPayload) rows(n int) (r, cols int) {
	switch {
	case n == 0:
		return 0, 0
	case p.cols == 0:
		return 1, n
	case p.stat:
		return n / (p.cols + 1), p.cols
	}
	return n / p.cols, p.cols
}

// elems is how many elements a wire payload of length wire carries.
func (p int8RowsPayload) elems(wire int) int {
	if wire == 0 || p.cols == 0 {
		return wire
	}
	if p.stat {
		return (wire + 4) / (p.cols + 8) * (p.cols + 1)
	}
	return (wire + 4) * p.cols / (p.cols + 4)
}

// scale returns row i's scale from a payload whose int8 rows end at q[at].
func scaleAt(q []int8, at, i int, first float32) float32 {
	if i == 0 {
		return first
	}
	return getF32(q[at+4*(i-1):])
}

func getF32(b []int8) float32 {
	return math.Float32frombits(uint32(uint8(b[0])) | uint32(uint8(b[1]))<<8 |
		uint32(uint8(b[2]))<<16 | uint32(uint8(b[3]))<<24)
}

func putF32(b []int8, v float32) {
	bits := math.Float32bits(v)
	b[0], b[1], b[2], b[3] = int8(bits), int8(bits>>8), int8(bits>>16), int8(bits>>24)
}

func (p int8RowsPayload) send(c *mesh.Chip, dst int, tag uint64, data []float32) {
	n := len(data)
	r, cols := p.rows(n)
	stat := 0
	if p.stat {
		stat = r
	}
	if r*cols+stat != n {
		panic("collective: chunk is not whole rows")
	}
	var q []int8
	first := float32(1) // an empty chunk's, as QuantizeRowInto gives an empty row
	if r > 0 {
		q = c.Buffer8(r*cols + 4*(r-1) + 4*stat)
		first = quant.QuantizeRowInto(q[:cols], data[:cols])
	}
	at := r * cols
	for i := 1; i < r; i++ {
		putF32(q[at+4*(i-1):], quant.QuantizeRowInto(q[i*cols:(i+1)*cols], data[i*cols:(i+1)*cols]))
	}
	for i, v := range data[at : at+stat] {
		putF32(q[at+4*(r-1)+4*i:], v)
	}
	c.SendOwned8(dst, tag, q, first)
}

// decode dequantizes a payload of len(dst) elements into dst, or adds it
// to dst.
func (p int8RowsPayload) decode(dst []float32, q []int8, first float32, add bool) {
	n := len(dst)
	if p.elems(len(q)) != n {
		panic("collective: chunk size mismatch")
	}
	r, cols := p.rows(n)
	at := r * cols
	for i := 0; i < r; i++ {
		d, s := dst[i*cols:(i+1)*cols], q[i*cols:(i+1)*cols]
		if add {
			simd.AxpyF32I8(d, scaleAt(q, at, i, first), s)
		} else {
			quant.DequantizeRowInto(d, s, scaleAt(q, at, i, first))
		}
	}
	if !p.stat {
		return
	}
	for i := range dst[at:] {
		v := getF32(q[at+4*(r-1)+4*i:])
		if add {
			v += dst[at+i]
		}
		dst[at+i] = v
	}
}

func (p int8RowsPayload) recvInto(c *mesh.Chip, src int, tag uint64, dst []float32) transit {
	q, scale := c.Recv8(src, tag)
	p.decode(dst, q, scale, false)
	return transit{q: q, scale: scale}
}

func (int8RowsPayload) relay(c *mesh.Chip, dst int, tag uint64, t transit) {
	c.SendOwned8(dst, tag, t.q, t.scale)
}

func (int8RowsPayload) drop(c *mesh.Chip, t transit) {
	c.Recycle8(t.q)
}

func (p int8RowsPayload) recvAdd(c *mesh.Chip, src int, tag uint64, dst []float32) {
	q, scale := c.Recv8(src, tag)
	p.decode(dst, q, scale, true)
	c.Recycle8(q)
}

func (p int8RowsPayload) recvTake(c *mesh.Chip, src int, tag uint64) []float32 {
	q, scale := c.Recv8(src, tag)
	out := c.Buffer(p.elems(len(q)))
	p.decode(out, q, scale, false)
	c.Recycle8(q)
	return out
}

// Int8WireError bounds the absolute per-element error WireInt8 introduces
// into a non-reducing collective (all-gather, all-to-all) for a chunk whose
// maximum magnitude is maxAbs: half a quantization step. Reducing
// collectives over K chips accumulate at most K-1 of these on the running
// partial-sum magnitude. Exported for tests and callers sizing tolerances.
func Int8WireError(maxAbs float64) float64 {
	if math.IsNaN(maxAbs) {
		return 0
	}
	return maxAbs / 127 / 2
}
