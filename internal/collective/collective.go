// Package collective implements the communication collectives of Section
// 3.1 as real message-passing algorithms on the simulated mesh: ring
// all-gather, ring reduce-scatter, all-reduce (their composition), and
// direct all-to-all, each over an arbitrary torus axis group.
//
// The algorithms are payload-typed: every chunk they move travels in the
// wire format the Op selects (see Payload) — exact float32 by default, or
// per-chunk-scaled int8, which shrinks the wire volume the same way §3.3's
// int8 weights shrink the weight-gather volume. The callers keep float32
// inputs and outputs either way; only the bytes on the wire change. The
// ring algorithms transfer exactly the volumes the paper's Appendix A cost
// model assigns them — D·(K-1)/K per chip in the payload's bytes-per-
// element — which the tests assert by comparing measured mesh traffic
// against package commcost for both formats.
//
// The gather and reduce-scatter rings are one loop each (stream.go):
// AllGatherStream and ReduceScatterStream hand each chunk to an optional
// caller callback while the next chunk is still in flight — the paper's
// Looped CollectiveEinsum (§3.5), which fuses the per-chunk slice of a
// matmul into the ring schedule — and AllGather and ReduceScatter are
// those loops without a callback. Overlap of this kind hides only the
// bandwidth component of the collective: the K-1 serial link traversals
// (hops × per-hop latency) stay on the critical path no matter how the
// compute is chunked, which is exactly the bandwidth-vs-latency-floor
// split package perf's comm term charges.
//
// Buffer ownership: collective results are allocated from the mesh's
// message pool; a caller that has fully consumed a result may hand it back
// with Chip.Recycle so a steady-state SPMD loop triggers no allocation,
// and a caller that retains it simply lets the GC take it. Transit buffers
// the collectives receive and fold in are recycled internally (int8 wire
// buffers to the int8 pool).
package collective

import (
	"fmt"

	"esti/internal/hardware"
	"esti/internal/mesh"
)

// Op is a collective operation context: the chip it runs on, the unique op
// id that namespaces its message tags, and the wire format its chunks
// travel in (nil Wire means WireF32). Consecutive collectives on the same
// chips never confuse their messages even when a fast sender runs a step
// ahead, provided their ids differ. Every chip in the group must use the
// same op id for the same collective call (the SPMD program allocates ids
// in lockstep).
//
// Id discipline: a plain collective consumes one id; AllReduce consumes
// AllReduceIDs consecutive ids (its reduce-scatter and all-gather phases).
// Callers minting ids advance by the ids actually consumed — Advance is
// the reservation helper — and the mesh's tag-collision check panics on
// any overlap a miscounted advance lets through, rather than letting two
// collectives silently swap chunks.
type Op struct {
	Chip *mesh.Chip
	ID   uint64
	Wire Payload
}

// AllReduceIDs is the number of consecutive op ids AllReduce consumes: one
// for its reduce-scatter phase and one for its all-gather phase. A caller
// that mints ids for a program containing all-reduces must advance its
// counter by at least this much per collective slot.
const AllReduceIDs = 2

// Advance returns a copy of the op with its id advanced by n — the
// explicit id-reservation helper for composite collectives: AllReduce uses
// o and o.Advance(1), so the next independent collective must start at
// o.Advance(AllReduceIDs) or later.
func (o Op) Advance(n uint64) Op {
	o.ID += n
	return o
}

// opSteps is the per-op tag space: tags are ID<<20 | step, so a single
// collective may label at most 1<<20 distinct messages per peer.
const opSteps = 1 << 20

func (o Op) tag(step int) uint64 {
	if step < 0 || step >= opSteps {
		panic(fmt.Sprintf("collective: step %d outside the op's %d-message tag space", step, opSteps))
	}
	return o.ID<<20 | uint64(step)
}

// wire returns the op's payload format, defaulting to exact float32.
func (o Op) wire() Payload {
	if o.Wire == nil {
		return WireF32
	}
	return o.Wire
}

// AllGather is the ring all-gather with nothing looped into it: the
// callback-free case of AllGatherStream, which holds the algorithm.
func AllGather(o Op, g hardware.AxisGroup, shard []float32) []float32 {
	return AllGatherStream(o, g, shard, nil)
}

// ReduceScatter is the ring reduce-scatter with nothing looped into it: the
// callback-free case of ReduceScatterStream, which holds the algorithm, run
// on a pooled copy so that the caller keeps `full`.
func ReduceScatter(o Op, g hardware.AxisGroup, full []float32) []float32 {
	acc := o.Chip.Buffer(len(full))
	copy(acc, full)
	out := ReduceScatterStream(o, g, acc, nil)
	o.Chip.Recycle(acc)
	return out
}

// AllReduce composes ReduceScatter and AllGather (the paper's preferred
// decomposition, after Rajbhandari et al. 2020), consuming AllReduceIDs
// consecutive op ids — one per phase — via Advance.
func AllReduce(o Op, g hardware.AxisGroup, full []float32) []float32 {
	shard := ReduceScatter(o, g, full)
	out := AllGather(o.Advance(1), g, shard)
	o.Chip.Recycle(shard) // AllGather copied it into out
	return out
}

// AllToAll sends shards[i] to group member i and returns the received
// shards in group-rank order (own shard passed through exact). Transfers
// are direct pairwise messages in the op's wire format, matching the
// collective's use for resharding in Figure 5(b). It allocates the result
// table; AllToAllInto fills one the caller keeps.
func AllToAll(o Op, g hardware.AxisGroup, shards [][]float32) [][]float32 {
	return AllToAllInto(o, g, make([][]float32, len(shards)), shards)
}

// AllToAllInto is AllToAll writing the received shards into out, which must
// have one entry per group member and may be shards itself (each entry is
// sent before it is replaced). The shards are pool buffers the caller may
// Recycle; a steady-state loop that reuses out allocates nothing.
func AllToAllInto(o Op, g hardware.AxisGroup, out, shards [][]float32) [][]float32 {
	c := o.Chip
	w := o.wire()
	rank, size := c.GroupRank(g)
	if len(shards) != size || len(out) != size {
		panic(fmt.Sprintf("collective: all-to-all %d shards into %d for group of %d", len(shards), len(out), size))
	}
	for i := 0; i < size; i++ {
		if i != rank {
			w.send(c, c.GroupPeer(g, i), o.tag(i), shards[i])
		}
	}
	own := c.Buffer(len(shards[rank]))
	copy(own, shards[rank])
	out[rank] = own
	for i := 0; i < size; i++ {
		if i != rank {
			out[i] = w.recvTake(c, c.GroupPeer(g, i), o.tag(rank))
		}
	}
	return out
}
