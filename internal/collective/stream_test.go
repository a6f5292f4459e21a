package collective

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"esti/internal/hardware"
	"esti/internal/mesh"
)

// streamWires are the payload formats the bit-identity properties are
// asserted for: exact float32 and the lossy-but-deterministic int8 wire.
var streamWires = []struct {
	name string
	wire Payload
}{
	{"fp32", nil},
	{"int8", WireInt8},
}

// adversarialDelay sleeps a small random time, forcing every interleaving
// of consumer work and ring progress: slow consumers make later chunks
// queue up, fast ones make the stream wait on the wire. Bit-identity must
// hold either way because the wire schedule (message sizes, tags,
// quantization points) is independent of consumer timing.
func adversarialDelay(rng *rand.Rand) {
	if d := rng.Intn(3); d > 0 {
		time.Sleep(time.Duration(d) * 100 * time.Microsecond)
	}
}

// TestAllGatherStreamBitIdenticalToBarrier: under random per-chunk consumer
// delays, the streamed gather's returned buffer — and every chunk as
// delivered to the consumer — is bitwise equal to the barrier AllGather,
// for fp32 and int8 payloads, across 1-, 2-, and 8-chip groups.
func TestAllGatherStreamBitIdenticalToBarrier(t *testing.T) {
	tr := hardware.Torus{X: 2, Y: 2, Z: 2}
	const chunkLen = 5
	shardFor := func(rank int) []float32 {
		s := make([]float32, chunkLen)
		for i := range s {
			s[i] = float32(math.Sin(float64(rank*31+i*7))) * 3.7
		}
		return s
	}
	for _, w := range streamWires {
		for _, g := range []hardware.AxisGroup{hardware.GroupX, hardware.GroupYZ, hardware.GroupXYZ} {
			barrier, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
				rank, _ := c.GroupRank(g)
				return AllGather(Op{Chip: c, ID: 1, Wire: w.wire}, g, shardFor(rank))
			})
			seen := make([]map[int][]float32, tr.Chips())
			var mu sync.Mutex
			streamed, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
				rank, _ := c.GroupRank(g)
				rng := rand.New(rand.NewSource(int64(c.Rank) + 99))
				got := map[int][]float32{}
				out := AllGatherStream(Op{Chip: c, ID: 1, Wire: w.wire}, g, shardFor(rank),
					func(idx int, chunk []float32) {
						adversarialDelay(rng)
						if _, dup := got[idx]; dup {
							t.Errorf("%s group %v chip %d: chunk %d consumed twice", w.name, g, c.Rank, idx)
						}
						got[idx] = append([]float32(nil), chunk...)
					})
				mu.Lock()
				seen[c.Rank] = got
				mu.Unlock()
				return out
			})
			for rank := range streamed {
				if !bitsEqual(streamed[rank], barrier[rank]) {
					t.Fatalf("%s group %v chip %d: streamed buffer differs from barrier", w.name, g, rank)
				}
				_, size := meshChip0GroupRank(tr, g)
				if len(seen[rank]) != size {
					t.Fatalf("%s group %v chip %d: consume called for %d chunks, want %d",
						w.name, g, rank, len(seen[rank]), size)
				}
				for idx, chunk := range seen[rank] {
					if !bitsEqual(chunk, barrier[rank][idx*chunkLen:(idx+1)*chunkLen]) {
						t.Fatalf("%s group %v chip %d: delivered chunk %d differs from barrier",
							w.name, g, rank, idx)
					}
				}
			}
		}
	}
}

// TestReduceScatterStreamBitIdenticalToBarrier: the lazy-producer form,
// with each chunk produced on demand under random delays, returns the same
// bits as the barrier ReduceScatter over the same logical input — fp32 and
// int8 (whose per-hop requantization makes any deviation in fold order or
// quantization points visible immediately).
func TestReduceScatterStreamBitIdenticalToBarrier(t *testing.T) {
	tr := hardware.Torus{X: 2, Y: 2, Z: 2}
	const chunkLen = 4
	fullFor := func(rank, size int) []float32 {
		f := make([]float32, size*chunkLen)
		for i := range f {
			f[i] = float32(math.Cos(float64(rank*17+i*5))) * float32(rank+1)
		}
		return f
	}
	for _, w := range streamWires {
		for _, g := range []hardware.AxisGroup{hardware.GroupX, hardware.GroupYZ, hardware.GroupXYZ} {
			barrier, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
				rank, size := c.GroupRank(g)
				return ReduceScatter(Op{Chip: c, ID: 1, Wire: w.wire}, g, fullFor(rank, size))
			})
			counts := make([][]int, tr.Chips())
			var mu sync.Mutex
			streamed, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
				rank, size := c.GroupRank(g)
				ref := fullFor(rank, size)
				work := make([]float32, len(ref)) // produced lazily, never pre-filled
				rng := rand.New(rand.NewSource(int64(c.Rank) + 7))
				cnt := make([]int, size)
				out := ReduceScatterStream(Op{Chip: c, ID: 1, Wire: w.wire}, g, work,
					func(idx int, chunk []float32) {
						adversarialDelay(rng)
						cnt[idx]++
						copy(chunk, ref[idx*chunkLen:(idx+1)*chunkLen])
					})
				mu.Lock()
				counts[c.Rank] = cnt
				mu.Unlock()
				return out
			})
			for rank := range streamed {
				if !bitsEqual(streamed[rank], barrier[rank]) {
					t.Fatalf("%s group %v chip %d: streamed shard differs from barrier", w.name, g, rank)
				}
				for idx, n := range counts[rank] {
					if n != 1 {
						t.Fatalf("%s group %v chip %d: chunk %d produced %d times, want 1",
							w.name, g, rank, idx, n)
					}
				}
			}
		}
	}
}

// TestStreamInterleavedWithBarrierOps: streamed and barrier collectives
// share the same tag discipline, so a program can interleave them freely as
// long as op ids advance — the id-consumption contract stream.go documents.
// Each result is checked against its standalone barrier twin.
func TestStreamInterleavedWithBarrierOps(t *testing.T) {
	tr := hardware.Torus{X: 2, Y: 2, Z: 2}
	g := hardware.GroupXYZ
	const chunkLen = 3
	results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
		rank, size := c.GroupRank(g)
		shard := make([]float32, chunkLen)
		for i := range shard {
			shard[i] = float32(rank*100 + i)
		}
		op := Op{Chip: c, ID: 1}
		a := AllGatherStream(op, g, shard, func(int, []float32) {})
		op = op.Advance(1)
		b := AllGather(op, g, shard)
		op = op.Advance(1)
		full := make([]float32, size*chunkLen)
		for i := range full {
			full[i] = float32(rank + i)
		}
		cRes := ReduceScatterStream(op, g, full, func(idx int, chunk []float32) {
			for i := range chunk {
				chunk[i] = float32(rank + idx*chunkLen + i)
			}
		})
		op = op.Advance(1)
		arIn := make([]float32, size)
		for i := range arIn {
			arIn[i] = float32(rank)
		}
		d := AllReduce(op, g, arIn) // consumes AllReduceIDs
		op = op.Advance(AllReduceIDs)
		e := AllGatherStream(op, g, shard, nil)
		out := append(append([]float32(nil), a...), b...)
		out = append(out, cRes...)
		out = append(out, d...)
		return append(out, e...)
	})
	// Cross-chip consistency: the gathers are identical on every chip, and
	// each chip's reduce-scatter shard matches the all-chip sum.
	_, size := meshChip0GroupRank(tr, g)
	agLen := size * chunkLen
	rsOff := 2 * agLen
	arOff := rsOff + chunkLen
	eOff := arOff + size
	for rank, got := range results {
		if len(got) != eOff+agLen {
			t.Fatalf("chip %d: result length %d, want %d", rank, len(got), eOff+agLen)
		}
		for i := 0; i < agLen; i++ {
			want := float32((i/chunkLen)*100 + i%chunkLen)
			if got[i] != want || got[agLen+i] != want || got[eOff+i] != want {
				t.Fatalf("chip %d: interleaved gather wrong at %d", rank, i)
			}
		}
		for i := 0; i < chunkLen; i++ {
			var want float32
			for r := 0; r < size; r++ {
				want += float32(r + rank*chunkLen + i)
			}
			if got[rsOff+i] != want {
				t.Fatalf("chip %d: interleaved reduce-scatter wrong at %d: %g != %g",
					rank, i, got[rsOff+i], want)
			}
		}
		wantAR := float32(size * (size - 1) / 2)
		for i := 0; i < size; i++ {
			if got[arOff+i] != wantAR {
				t.Fatalf("chip %d: interleaved all-reduce wrong at %d: %g != %g",
					rank, i, got[arOff+i], wantAR)
			}
		}
	}
}

// TestStreamTagCollisionPanics: a streamed collective reusing a live op id
// hits the mesh's tag-collision check, same as a barrier collective would —
// the op-id discipline audit for the streaming forms.
func TestStreamTagCollisionPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected tag-collision panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "tag collision") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	tr := hardware.Torus{X: 2, Y: 1, Z: 1}
	m := mesh.New(tr)
	m.Run(func(c *mesh.Chip) {
		shard := []float32{1, 2}
		if c.Rank == 0 {
			// Plant a message on the wire with the tag the stream's step-0
			// send will reuse: (src 0, tag 5<<20|0) is now in flight twice.
			c.Send(1, Op{ID: 5}.tag(0), shard)
		}
		AllGatherStream(Op{Chip: c, ID: 5}, hardware.GroupX, shard, nil)
	})
}

// TestStreamNoGoroutineLeak: the streaming forms add no background
// goroutines — after the mesh run returns, the goroutine count settles back
// to where it started.
func TestStreamNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := hardware.Torus{X: 2, Y: 2, Z: 2}
	for iter := 0; iter < 3; iter++ {
		runSPMD(tr, func(c *mesh.Chip) []float32 {
			rank, size := c.GroupRank(hardware.GroupXYZ)
			shard := []float32{float32(rank), float32(rank + 1)}
			out := AllGatherStream(Op{Chip: c, ID: 1}, hardware.GroupXYZ, shard,
				func(int, []float32) { time.Sleep(50 * time.Microsecond) })
			full := make([]float32, size*2)
			ReduceScatterStream(Op{Chip: c, ID: 2}, hardware.GroupXYZ, full,
				func(idx int, chunk []float32) {
					for i := range chunk {
						chunk[i] = float32(idx + i)
					}
				})
			return out
		})
	}
	// Let mesh worker goroutines finish exiting before counting.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestStreamMeasuresOverlap: consumer work inside the stream window is
// attributed to the mesh's overlap counters, and the measured fraction
// stays in [0, 1]; ResetCounters clears it. The window opens only for a
// callback: the same rings without one measure nothing.
func TestStreamMeasuresOverlap(t *testing.T) {
	tr := hardware.Torus{X: 4, Y: 1, Z: 1}
	_, m := runSPMD(tr, func(c *mesh.Chip) []float32 {
		rank, size := c.GroupRank(hardware.GroupX)
		full := make([]float32, 2*size)
		full[rank] = 1
		return AllGather(Op{Chip: c, ID: 2}, hardware.GroupX,
			ReduceScatter(Op{Chip: c, ID: 1}, hardware.GroupX, full))
	})
	if m.OverlapWorkNS() != 0 || m.OverlapWaitNS() != 0 {
		t.Fatalf("barrier rings opened an overlap window: work %d ns, wait %d ns", m.OverlapWorkNS(), m.OverlapWaitNS())
	}
	_, m = runSPMD(tr, func(c *mesh.Chip) []float32 {
		rank, _ := c.GroupRank(hardware.GroupX)
		shard := []float32{float32(rank)}
		return AllGatherStream(Op{Chip: c, ID: 1}, hardware.GroupX, shard,
			func(int, []float32) { time.Sleep(200 * time.Microsecond) })
	})
	if m.OverlapWorkNS() <= 0 {
		t.Fatal("no overlap work recorded despite sleeping consumers")
	}
	f := m.MeasuredOverlapFrac()
	if f <= 0 || f > 1 {
		t.Fatalf("measured overlap fraction %g outside (0, 1]", f)
	}
	m.ResetCounters()
	if m.OverlapWorkNS() != 0 || m.OverlapWaitNS() != 0 || m.MeasuredOverlapFrac() != 0 {
		t.Fatal("ResetCounters did not clear overlap counters")
	}
}

// bitsEqual compares float32 slices bitwise (NaN-safe, -0 != +0 distinct).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
