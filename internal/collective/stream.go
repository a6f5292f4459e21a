package collective

import (
	"fmt"
	"time"

	"esti/internal/hardware"
	"esti/internal/mesh"
)

// The two ring loops — the Looped CollectiveEinsum of Section 3.5. Each
// takes an optional callback: without one the caller is held until the last
// chunk lands (AllGather and ReduceScatter in collective.go are exactly
// that); with one, each chunk is handed over at the moment it becomes
// available, while the next chunk is still relaying on the ring. Because
// each ring step's relay-send is issued before the callback runs (and mesh
// sends never block), the downstream chip is already receiving chunk k+1
// while this chip computes on chunk k: compute genuinely overlaps the
// in-flight transfer, which is what hides the bandwidth component of the
// collective. The serial hop-latency floor — one link traversal per ring
// step on the critical path — remains, exactly as package perf's
// overlap-aware comm term charges it.
//
// The wire does not see the callback: message sizes, tags, op-id
// consumption (one id per call, so streamed and barrier ops interleave
// freely on one chip) and, for WireInt8, quantization points — chunks
// quantize once at their source on a gather and once per hop on a reduction
// — are the same with or without one, so results are bit-identical for both
// payload formats, which the property and fuzz tests assert under
// adversarial consumer delays. Only the overlap window (the mesh's measured
// wait/work split) depends on it: it opens when a callback is supplied, so
// a session of barrier collectives measures no overlap.

// AllGatherStream concatenates each group member's shard in group-rank
// order and returns the full buffer, using a simple ring: K-1 steps, each
// chip forwarding the newest chunk to its ring successor. Per-chip traffic:
// K-1 chunk transmissions = D·(K-1)/K for output size D, in the op's wire
// format. Received chunks are decoded into the output and relayed in wire
// form untouched, so an int8 chunk is quantized exactly once at its source
// chip however many hops it travels; the local shard is copied in exact.
//
// A non-nil consume(idx, chunk) is invoked exactly once per group member,
// with idx the source's group rank and chunk aliasing that member's slice
// of the returned buffer, as soon as the chunk's contents are available —
// own shard first, then ring order (rank-1, rank-2, ...). Each invocation
// runs after the step's relay-send, so the ring keeps moving while the
// consumer computes. The callback must not retain chunk beyond the call,
// and must not issue mesh operations.
func AllGatherStream(o Op, g hardware.AxisGroup, shard []float32, consume func(chunkIdx int, chunk []float32)) []float32 {
	c := o.Chip
	w := o.wire()
	rank, size := c.GroupRank(g)
	if size == 1 {
		out := make([]float32, len(shard))
		copy(out, shard)
		if consume != nil {
			consume(0, out)
		}
		return out
	}
	chunkLen := len(shard)
	out := c.Buffer(size * chunkLen)
	copy(out[rank*chunkLen:(rank+1)*chunkLen], shard)
	next := c.GroupPeer(g, (rank+1)%size)
	prev := c.GroupPeer(g, (rank-1+size)%size)
	if consume != nil {
		c.BeginOverlapOp()
		defer c.EndOverlapOp()
	}
	var tr transit
	ready := rank // chunk decoded and not yet consumed
	for s := 0; s < size-1; s++ {
		if s == 0 {
			w.send(c, next, o.tag(s), shard) // the caller keeps its shard
		} else {
			// Relay the chunk received last step without re-encoding: its
			// contents are already decoded into out.
			w.relay(c, next, o.tag(s), tr)
		}
		handChunk(c, consume, ready, out[ready*chunkLen:(ready+1)*chunkLen])
		idx := (rank - s - 1 + 2*size) % size
		tr = w.recvInto(c, prev, o.tag(s), out[idx*chunkLen:(idx+1)*chunkLen])
		ready = idx
	}
	w.drop(c, tr)
	handChunk(c, consume, ready, out[ready*chunkLen:(ready+1)*chunkLen])
	return out
}

// ReduceScatterStream sums `full` elementwise across the group and returns
// this chip's shard (group-rank-indexed chunk of the sum). len(full) must
// divide evenly by the group size. Per-chip traffic: K-1 chunk
// transmissions = D·(K-1)/K for input size D, in the op's wire format. The
// running partial sum is held and folded in float32 on every chip; a lossy
// wire format re-encodes the partial fresh at each hop (one quantization of
// the running sum per hop, K-1 total), which is what keeps int8 reduction
// error bounded instead of compounding through stale scales.
//
// full is the caller's workspace: chunks are folded in place (clobbered),
// so its contents do not survive. A nil produce treats it as already valid;
// a non-nil produce(idx, dst) is called exactly once per chunk — just
// before the ring needs that chunk — to write the chip's contribution into
// dst. The production order is ring order: rank-1 first, then rank-2, ...,
// ending with the chip's own chunk rank — and every produce after the
// first runs between a ring send and the matching blocking receive, so
// producing chunk k overlaps the upstream chip's transmission of chunk
// k+1. The callback must not issue mesh operations.
func ReduceScatterStream(o Op, g hardware.AxisGroup, full []float32, produce func(chunkIdx int, chunk []float32)) []float32 {
	c := o.Chip
	w := o.wire()
	rank, size := c.GroupRank(g)
	if size == 1 {
		if produce != nil {
			produce(0, full)
		}
		out := make([]float32, len(full))
		copy(out, full)
		return out
	}
	if len(full)%size != 0 {
		panic(fmt.Sprintf("collective: reduce-scatter %d elements over %d chips", len(full), size))
	}
	chunkLen := len(full) / size
	chunk := func(i int) []float32 { return full[i*chunkLen : (i+1)*chunkLen] }
	next := c.GroupPeer(g, (rank+1)%size)
	prev := c.GroupPeer(g, (rank-1+size)%size)
	if produce != nil {
		c.BeginOverlapOp()
		defer c.EndOverlapOp()
	}
	first := (rank - 1 + size) % size
	handChunk(c, produce, first, chunk(first))
	for s := 0; s < size-1; s++ {
		sendIdx := (rank - 1 - s + 2*size) % size
		w.send(c, next, o.tag(s), chunk(sendIdx))
		recvIdx := (rank - 2 - s + 3*size) % size
		handChunk(c, produce, recvIdx, chunk(recvIdx))
		w.recvAdd(c, prev, o.tag(s), chunk(recvIdx))
	}
	out := c.Buffer(chunkLen)
	copy(out, chunk(rank))
	return out
}

// handChunk invokes a non-nil consumer or producer on one chunk under the
// overlap-work timer.
func handChunk(c *mesh.Chip, fn func(int, []float32), idx int, chunk []float32) {
	if fn == nil {
		return
	}
	start := time.Now()
	fn(idx, chunk)
	c.NoteOverlapWork(time.Since(start))
}
