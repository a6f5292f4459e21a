package collective

import (
	"math"

	"esti/internal/mesh"
	"esti/internal/quant"
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
//	          is its one-row-per-chunk case, one scale per chunk.
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
func WireInt8Rows(cols int) Payload { return int8RowsPayload{cols} }

// int8RowsPayload quantizes each row of cols elements with its own scale;
// a zero cols makes the whole chunk one row (WireInt8).
type int8RowsPayload struct{ cols int }

// rowLen is the row length of a chunk of n elements.
func (p int8RowsPayload) rowLen(n int) int {
	if p.cols == 0 {
		return n
	}
	return p.cols
}

// elems is how many elements a wire payload of length wire carries.
func (p int8RowsPayload) elems(wire int) int {
	if wire == 0 || p.cols == 0 {
		return wire
	}
	return (wire + 4) * p.cols / (p.cols + 4)
}

// scale returns row r's scale from a payload of n elements.
func (p int8RowsPayload) scale(q []int8, n, r int, first float32) float32 {
	if r == 0 {
		return first
	}
	b := q[n+4*(r-1):]
	return math.Float32frombits(uint32(uint8(b[0])) | uint32(uint8(b[1]))<<8 |
		uint32(uint8(b[2]))<<16 | uint32(uint8(b[3]))<<24)
}

func (p int8RowsPayload) send(c *mesh.Chip, dst int, tag uint64, data []float32) {
	n := len(data)
	cols := p.rowLen(n)
	if n > 0 && n%cols != 0 {
		panic("collective: chunk is not whole rows")
	}
	var q []int8
	first := float32(1) // an empty chunk's, as QuantizeRowInto gives an empty row
	if n > 0 {
		q = c.Buffer8(n + 4*(n/cols-1))
		first = quant.QuantizeRowInto(q[:cols], data[:cols])
	}
	for r := 1; r*cols < n; r++ {
		bits := math.Float32bits(quant.QuantizeRowInto(q[r*cols:(r+1)*cols], data[r*cols:(r+1)*cols]))
		b := q[n+4*(r-1):]
		b[0], b[1], b[2], b[3] = int8(bits), int8(bits>>8), int8(bits>>16), int8(bits>>24)
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
	cols := p.rowLen(n)
	for r := 0; r*cols < n; r++ {
		d, s := dst[r*cols:(r+1)*cols], q[r*cols:(r+1)*cols]
		if add {
			quant.AxpyF32I8(d, p.scale(q, n, r, first), s)
		} else {
			quant.DequantizeRowInto(d, s, p.scale(q, n, r, first))
		}
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
