package collective

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"esti/internal/commcost"
	"esti/internal/hardware"
	"esti/internal/mesh"
)

// runSPMD runs fn on every chip and collects per-chip results.
func runSPMD(t hardware.Torus, fn func(c *mesh.Chip) []float32) ([][]float32, *mesh.Mesh) {
	m := mesh.New(t)
	out := make([][]float32, m.Chips())
	var mu sync.Mutex
	m.Run(func(c *mesh.Chip) {
		r := fn(c)
		mu.Lock()
		out[c.Rank] = r
		mu.Unlock()
	})
	return out, m
}

// settleGoroutines fails t unless the goroutine count falls back to base
// within a second. A chip goroutine may still be exiting for a moment
// after Run returns (its WaitGroup is done before it is gone), so the
// count is polled, not read once.
func settleGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// noLeaks records the goroutine count and checks, when t ends, that it
// came back: no chip goroutine outlives its Run, and no collective,
// barrier or streamed, leaves one behind (the mesh tests' check, copied).
func noLeaks(t testing.TB) {
	base := runtime.NumGoroutine()
	t.Cleanup(func() { settleGoroutines(t, base) })
}

func TestAllGatherConcatenatesInGroupOrder(t *testing.T) {
	noLeaks(t)
	tr := hardware.Torus{X: 2, Y: 2, Z: 2}
	for _, g := range []hardware.AxisGroup{hardware.GroupX, hardware.GroupYZ, hardware.GroupXYZ} {
		results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
			rank, _ := c.GroupRank(g)
			shard := []float32{float32(rank) * 10, float32(rank)*10 + 1}
			return AllGather(Op{Chip: c, ID: 1}, g, shard)
		})
		_, size := meshChip0GroupRank(tr, g)
		for rank, got := range results {
			if len(got) != 2*size {
				t.Fatalf("group %v chip %d: got %d elements, want %d", g, rank, len(got), 2*size)
			}
			for i := 0; i < size; i++ {
				if got[2*i] != float32(i)*10 || got[2*i+1] != float32(i)*10+1 {
					t.Fatalf("group %v chip %d: order wrong at %d: %v", g, rank, i, got)
				}
			}
		}
	}
}

func meshChip0GroupRank(t hardware.Torus, g hardware.AxisGroup) (int, int) {
	m := mesh.New(t)
	var rank, size int
	m.Run(func(c *mesh.Chip) {
		if c.Rank == 0 {
			rank, size = c.GroupRank(g)
		}
	})
	return rank, size
}

func TestReduceScatterSumsAndShards(t *testing.T) {
	noLeaks(t)
	tr := hardware.Torus{X: 4, Y: 1, Z: 1}
	const chunk = 3
	results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
		rank, size := c.GroupRank(hardware.GroupX)
		full := make([]float32, size*chunk)
		for i := range full {
			full[i] = float32(rank+1) * float32(i)
		}
		return ReduceScatter(Op{Chip: c, ID: 1}, hardware.GroupX, full)
	})
	// Sum over ranks of (rank+1)·i = 10·i for 4 chips.
	for rank, got := range results {
		if len(got) != chunk {
			t.Fatalf("chip %d: shard len %d", rank, len(got))
		}
		for j, v := range got {
			i := rank*chunk + j
			if want := float32(10 * i); v != want {
				t.Fatalf("chip %d shard[%d] = %g, want %g", rank, j, v, want)
			}
		}
	}
}

// reduce-scatter then all-gather must equal an all-reduce, elementwise.
func TestAllReduceEqualsSum(t *testing.T) {
	noLeaks(t)
	tr := hardware.Torus{X: 2, Y: 2, Z: 1}
	results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
		full := []float32{float32(c.Rank), 1, -float32(c.Rank), 0.5}
		return AllReduce(Op{Chip: c, ID: 10}, hardware.GroupXY, full)
	})
	want := []float32{0 + 1 + 2 + 3, 4, -(0 + 1 + 2 + 3), 2}
	for rank, got := range results {
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-6 {
				t.Fatalf("chip %d all-reduce[%d] = %g, want %g", rank, i, got[i], want[i])
			}
		}
	}
}

func TestAllToAllTransposesShards(t *testing.T) {
	noLeaks(t)
	tr := hardware.Torus{X: 4, Y: 1, Z: 1}
	results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
		rank, size := c.GroupRank(hardware.GroupX)
		shards := make([][]float32, size)
		for i := range shards {
			shards[i] = []float32{float32(rank*10 + i)}
		}
		out := AllToAll(Op{Chip: c, ID: 5}, hardware.GroupX, shards)
		flat := make([]float32, 0, size)
		for _, s := range out {
			flat = append(flat, s...)
		}
		return flat
	})
	for rank, got := range results {
		for src, v := range got {
			if want := float32(src*10 + rank); v != want {
				t.Fatalf("chip %d received[%d] = %g, want %g", rank, src, v, want)
			}
		}
	}
}

// Double all-to-all is the identity.
func TestAllToAllInvolution(t *testing.T) {
	noLeaks(t)
	tr := hardware.Torus{X: 2, Y: 2, Z: 1}
	results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
		rank, size := c.GroupRank(hardware.GroupXY)
		shards := make([][]float32, size)
		for i := range shards {
			shards[i] = []float32{float32(rank), float32(i)}
		}
		once := AllToAll(Op{Chip: c, ID: 2}, hardware.GroupXY, shards)
		twice := AllToAll(Op{Chip: c, ID: 4}, hardware.GroupXY, once)
		flat := make([]float32, 0)
		for i, s := range twice {
			if s[0] != float32(rank) || s[1] != float32(i) {
				t.Errorf("chip %d involution broken at %d: %v", rank, i, s)
			}
			flat = append(flat, s...)
		}
		return flat
	})
	_ = results
}

// Property: all-gather of shards reassembles exactly the concatenation, for
// random shard contents and any single-axis group.
func TestAllGatherProperty(t *testing.T) {
	noLeaks(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := hardware.Torus{X: 4, Y: 2, Z: 1}
		data := make([][]float32, 8)
		for i := range data {
			data[i] = make([]float32, 5)
			for j := range data[i] {
				data[i][j] = rng.Float32()
			}
		}
		results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
			return AllGather(Op{Chip: c, ID: 3}, hardware.GroupX, data[c.Rank])
		})
		// Within each x-ring (fixed y,z), result = concat over x of members.
		for rank, got := range results {
			y := (rank / 4) % 2
			for x := 0; x < 4; x++ {
				member := x + 4*y + 0
				for j := 0; j < 5; j++ {
					if got[x*5+j] != data[member][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Measured traffic must equal the analytical volume formulas of Appendix A:
// ring all-gather and reduce-scatter move exactly D·(K-1)/K bytes per chip.
func TestMeasuredBytesMatchCostModel(t *testing.T) {
	noLeaks(t)
	tr := hardware.Torus{X: 4, Y: 2, Z: 1}
	const shardLen = 24
	_, m := runSPMD(tr, func(c *mesh.Chip) []float32 {
		return AllGather(Op{Chip: c, ID: 1}, hardware.GroupX, make([]float32, shardLen))
	})
	outBytes := float64(4 * shardLen * 4) // per-chip output: 4 shards × 24 floats
	wantPerChip := commcost.AllGatherVolume(outBytes, 4)
	gotPerChip := float64(m.BytesSent()) / float64(m.Chips())
	if math.Abs(gotPerChip-wantPerChip) > 1e-9 {
		t.Errorf("all-gather bytes/chip = %g, want %g", gotPerChip, wantPerChip)
	}

	_, m2 := runSPMD(tr, func(c *mesh.Chip) []float32 {
		return ReduceScatter(Op{Chip: c, ID: 1}, hardware.GroupYZ, make([]float32, 2*shardLen))
	})
	inBytes := float64(2 * shardLen * 4)
	wantRS := commcost.ReduceScatterVolume(inBytes, 2)
	gotRS := float64(m2.BytesSent()) / float64(m2.Chips())
	if math.Abs(gotRS-wantRS) > 1e-9 {
		t.Errorf("reduce-scatter bytes/chip = %g, want %g", gotRS, wantRS)
	}

	_, m3 := runSPMD(tr, func(c *mesh.Chip) []float32 {
		shards := make([][]float32, 8)
		for i := range shards {
			shards[i] = make([]float32, 6)
		}
		AllToAll(Op{Chip: c, ID: 1}, hardware.GroupXYZ, shards)
		return nil
	})
	perChip := float64(8 * 6 * 4)
	wantA2A := commcost.AllToAllVolume(perChip, 8)
	gotA2A := float64(m3.BytesSent()) / float64(m3.Chips())
	if math.Abs(gotA2A-wantA2A) > 1e-9 {
		t.Errorf("all-to-all bytes/chip = %g, want %g", gotA2A, wantA2A)
	}
}

func TestSingleChipGroupIsNoop(t *testing.T) {
	noLeaks(t)
	tr := hardware.Torus{X: 1, Y: 1, Z: 1}
	results, m := runSPMD(tr, func(c *mesh.Chip) []float32 {
		ag := AllGather(Op{Chip: c, ID: 1}, hardware.GroupX, []float32{1, 2})
		rs := ReduceScatter(Op{Chip: c, ID: 3}, hardware.GroupX, []float32{3, 4})
		return append(ag, rs...)
	})
	if got := results[0]; got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Errorf("single-chip collectives mangled data: %v", got)
	}
	if m.BytesSent() != 0 {
		t.Errorf("single-chip collectives sent %d bytes", m.BytesSent())
	}
}

func TestReduceScatterUnevenPanics(t *testing.T) {
	noLeaks(t)
	tr := hardware.Torus{X: 2, Y: 1, Z: 1}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for indivisible buffer")
		}
	}()
	m := mesh.New(tr)
	m.Run(func(c *mesh.Chip) {
		ReduceScatter(Op{Chip: c, ID: 1}, hardware.GroupX, make([]float32, 3))
	})
}

// Consecutive collectives with distinct op ids must not cross-contaminate
// even though messages may interleave in inboxes.
func TestSequentialCollectivesIsolated(t *testing.T) {
	noLeaks(t)
	tr := hardware.Torus{X: 4, Y: 1, Z: 1}
	results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
		rank, _ := c.GroupRank(hardware.GroupX)
		a := AllGather(Op{Chip: c, ID: 100}, hardware.GroupX, []float32{float32(rank)})
		b := AllGather(Op{Chip: c, ID: 102}, hardware.GroupX, []float32{float32(rank) + 0.5})
		return append(a, b...)
	})
	for rank, got := range results {
		for i := 0; i < 4; i++ {
			if got[i] != float32(i) {
				t.Fatalf("chip %d first gather[%d] = %g", rank, i, got[i])
			}
			if got[4+i] != float32(i)+0.5 {
				t.Fatalf("chip %d second gather[%d] = %g", rank, i, got[4+i])
			}
		}
	}
}

// A group of one moves nothing, and its result comes from the chip's pool
// as every other group size's does: handed back with Recycle, a warm
// collective over one chip allocates nothing.
func TestGroupOfOneAllocatesNothing(t *testing.T) {
	noLeaks(t)
	c := mesh.New(hardware.Torus{X: 1, Y: 1, Z: 1}).Chip(0)
	o, g := Op{Chip: c, ID: 1}, hardware.GroupXYZ
	shard := make([]float32, 64)
	for _, tc := range []struct {
		name string
		call func() []float32
	}{
		{"AllGather", func() []float32 { return AllGather(o, g, shard) }},
		{"AllGatherStream", func() []float32 { return AllGatherStream(o, g, shard, func(int, []float32) {}) }},
		{"ReduceScatter", func() []float32 { return ReduceScatter(o, g, shard) }},
		{"ReduceScatterStream", func() []float32 { return ReduceScatterStream(o, g, shard, func(int, []float32) {}) }},
	} {
		run := func() { c.Recycle(tc.call()) }
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("%s over one chip allocates %v times per call, want 0", tc.name, avg)
		}
	}
}
