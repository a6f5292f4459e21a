package collective

import (
	"math"
	"math/rand"
	"testing"

	"esti/internal/commcost"
	"esti/internal/hardware"
	"esti/internal/mesh"
)

// wireGroups are the group sizes the acceptance bar names: 1 (no wire), 2
// and 8 chips.
var wireGroups = []hardware.Torus{
	{X: 1, Y: 1, Z: 1},
	{X: 2, Y: 1, Z: 1},
	{X: 2, Y: 2, Z: 2},
}

// Measured per-chip traffic must equal the closed-form wire volumes for
// every payload format, chunk and row overheads included — the
// byte-accurate counters are what make the int8 claims checkable — and the
// int8 formats must move at most 0.55× the fp32 bytes for every collective.
func TestWireVolumesMatchCostModelBothFormats(t *testing.T) {
	const shardLen, rowLen = 24, 6
	formats := []struct {
		name string
		p    Payload
		w    commcost.WireFormat
	}{
		{"fp32", WireF32, commcost.WireFP32},
		{"int8", WireInt8, commcost.WireInt8},
		{"int8rows", WireInt8Rows(rowLen), commcost.WireInt8Rows(rowLen)},
	}
	for _, tr := range wireGroups {
		k := tr.Chips()
		perCollective := map[string][4]float64{} // format → AG, RS, AR, A2A bytes/chip
		for _, f := range formats {
			t.Run(tr.String()+"/"+f.name, func(t *testing.T) {
				measure := func(fn func(c *mesh.Chip)) float64 {
					m := mesh.New(tr)
					m.Run(fn)
					if f.name == "fp32" && m.Int8BytesSent() != 0 {
						t.Fatalf("fp32 payload sent %d int8 bytes", m.Int8BytesSent())
					}
					if f.name != "fp32" && m.Int8BytesSent() != m.BytesSent() {
						t.Fatalf("int8 payload sent %d of %d bytes as int8",
							m.Int8BytesSent(), m.BytesSent())
					}
					return float64(m.BytesSent()) / float64(m.Chips())
				}
				ag := measure(func(c *mesh.Chip) {
					AllGather(Op{Chip: c, ID: 1, Wire: f.p}, hardware.GroupXYZ, make([]float32, shardLen))
				})
				if want := commcost.AllGatherWireVolume(shardLen, k, f.w); ag != want {
					t.Errorf("all-gather bytes/chip = %g, want %g", ag, want)
				}
				rs := measure(func(c *mesh.Chip) {
					ReduceScatter(Op{Chip: c, ID: 1, Wire: f.p}, hardware.GroupXYZ, make([]float32, k*shardLen))
				})
				if want := commcost.ReduceScatterWireVolume(float64(k*shardLen), k, f.w); rs != want {
					t.Errorf("reduce-scatter bytes/chip = %g, want %g", rs, want)
				}
				ar := measure(func(c *mesh.Chip) {
					AllReduce(Op{Chip: c, ID: 1, Wire: f.p}, hardware.GroupXYZ, make([]float32, k*shardLen))
				})
				if want := commcost.AllReduceWireVolume(float64(k*shardLen), k, f.w); ar != want {
					t.Errorf("all-reduce bytes/chip = %g, want %g", ar, want)
				}
				a2a := measure(func(c *mesh.Chip) {
					shards := make([][]float32, k)
					for i := range shards {
						shards[i] = make([]float32, shardLen)
					}
					AllToAll(Op{Chip: c, ID: 1, Wire: f.p}, hardware.GroupXYZ, shards)
				})
				if want := commcost.AllToAllWireVolume(float64(k*shardLen), k, f.w); a2a != want {
					t.Errorf("all-to-all bytes/chip = %g, want %g", a2a, want)
				}
				perCollective[f.name] = [4]float64{ag, rs, ar, a2a}
			})
		}
		if k == 1 {
			continue
		}
		names := [4]string{"all-gather", "reduce-scatter", "all-reduce", "all-to-all"}
		for i := range names {
			for _, q := range []string{"int8", "int8rows"} {
				fp, q8 := perCollective["fp32"][i], perCollective[q][i]
				if q8 > 0.55*fp {
					t.Errorf("%v %s: %s %g bytes/chip not <= 0.55x fp32 %g", tr, names[i], q, q8, fp)
				}
			}
		}
	}
}

// Int8 all-gather semantics: every receiver reconstructs each remote chunk
// within half a quantization step of its source values (one quantization
// at the source, raw relays), and its own chunk exactly.
func TestInt8AllGatherWithinBound(t *testing.T) {
	for _, tr := range wireGroups {
		rng := rand.New(rand.NewSource(7))
		const chunkLen = 17
		data := make([][]float32, tr.Chips())
		for i := range data {
			data[i] = make([]float32, chunkLen)
			for j := range data[i] {
				data[i][j] = (rng.Float32() - 0.5) * float32(math.Pow(10, float64(i%4)-1))
			}
		}
		results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
			return AllGather(Op{Chip: c, ID: 1, Wire: WireInt8}, hardware.GroupXYZ, data[c.Rank])
		})
		for rank, got := range results {
			for src := 0; src < tr.Chips(); src++ {
				var maxAbs float64
				for _, v := range data[src] {
					if a := math.Abs(float64(v)); a > maxAbs {
						maxAbs = a
					}
				}
				bound := Int8WireError(maxAbs) + 1e-12
				for j := 0; j < chunkLen; j++ {
					gotV := float64(got[src*chunkLen+j])
					wantV := float64(data[src][j])
					if src == rank && gotV != wantV {
						t.Fatalf("chip %d: own chunk not exact at %d", rank, j)
					}
					if e := math.Abs(gotV - wantV); e > bound {
						t.Fatalf("chip %d chunk %d[%d]: error %g > bound %g", rank, src, j, e, bound)
					}
				}
			}
		}
	}
}

// The per-row int8 format holds every row to half a quantization step of
// its own max magnitude, however loud the rows beside it, and costs four
// bytes a row on top of the elements — through the ring gather, the
// reduce-scatter and the all-to-all alike.
func TestInt8RowsWithinRowBound(t *testing.T) {
	const rows, cols = 3, 5
	tr := hardware.Torus{X: 2, Y: 2, Z: 1}
	k := tr.Chips()
	rng := rand.New(rand.NewSource(3))
	// data[c] holds k chunks of rows×cols; row r is 1000^r times louder.
	data := make([][]float32, k)
	for c := range data {
		data[c] = make([]float32, k*rows*cols)
		for j := range data[c] {
			data[c][j] = (rng.Float32() - 0.5) * float32(math.Pow(1000, float64(j/cols%rows)))
		}
	}
	// rowBound is the half step of every row of src (whole rows) on its
	// own, times steps.
	rowBound := func(src []float32, steps int) []float64 {
		b := make([]float64, len(src))
		for r := 0; r*cols < len(src); r++ {
			var m float64
			for _, v := range src[r*cols : (r+1)*cols] {
				m = max(m, math.Abs(float64(v)))
			}
			for j := r * cols; j < (r+1)*cols; j++ {
				b[j] = float64(steps)*Int8WireError(m) + 1e-9
			}
		}
		return b
	}
	check := func(name string, got, want []float32, bound []float64, wantBytes int64, m *mesh.Mesh) {
		t.Helper()
		for j := range want {
			if e := math.Abs(float64(got[j] - want[j])); e > bound[j] {
				t.Fatalf("%s [%d]: error %g > its row's bound %g", name, j, e, bound[j])
			}
		}
		if m.BytesSent() != wantBytes || m.Int8BytesSent() != wantBytes {
			t.Errorf("%s: %d B (%d int8), want %d", name, m.BytesSent(), m.Int8BytesSent(), wantBytes)
		}
	}
	chunkBytes := int64(rows * (cols + 4))
	wire := WireInt8Rows(cols)
	shard := func(c int) []float32 { return data[c][:rows*cols] }
	got, m := runSPMD(tr, func(c *mesh.Chip) []float32 {
		return AllGather(Op{Chip: c, ID: 1, Wire: wire}, hardware.GroupXYZ, shard(c.Rank))
	})
	for rank := range got {
		for src := 0; src < k; src++ {
			check("all-gather", got[rank][src*rows*cols:(src+1)*rows*cols], shard(src),
				rowBound(shard(src), 1), int64(k*(k-1))*chunkBytes, m)
		}
	}
	got, m = runSPMD(tr, func(c *mesh.Chip) []float32 {
		return ReduceScatter(Op{Chip: c, ID: 1, Wire: wire}, hardware.GroupXYZ, data[c.Rank])
	})
	for rank := range got {
		sum := make([]float32, rows*cols)
		for c := range data {
			for j := range sum {
				sum[j] += float32(math.Abs(float64(data[c][rank*rows*cols+j])))
			}
		}
		want := make([]float32, rows*cols)
		for c := range data {
			for j := range want {
				want[j] += data[c][rank*rows*cols+j]
			}
		}
		check("reduce-scatter", got[rank], want, rowBound(sum, k-1), int64(k*(k-1))*chunkBytes, m)
	}
	got, m = runSPMD(tr, func(c *mesh.Chip) []float32 {
		shards := make([][]float32, k)
		for i := range shards {
			shards[i] = data[c.Rank][i*rows*cols : (i+1)*rows*cols]
		}
		var flat []float32
		for _, s := range AllToAll(Op{Chip: c, ID: 1, Wire: wire}, hardware.GroupXYZ, shards) {
			flat = append(flat, s...)
		}
		return flat
	})
	for rank := range got {
		for src := 0; src < k; src++ {
			want := data[src][rank*rows*cols : (rank+1)*rows*cols]
			check("all-to-all", got[rank][src*rows*cols:(src+1)*rows*cols], want,
				rowBound(want, 1), int64(k*(k-1))*chunkBytes, m)
		}
	}
}

// Int8 reduce-scatter semantics: the result is within K-1 quantization
// half-steps (of the running partial-sum magnitude) of the exact sum —
// the bounded-error contract of fold-in-float32, requantize-per-hop.
func TestInt8ReduceScatterWithinBound(t *testing.T) {
	for _, tr := range wireGroups {
		k := tr.Chips()
		rng := rand.New(rand.NewSource(9))
		const chunkLen = 13
		data := make([][]float32, k)
		for i := range data {
			data[i] = make([]float32, k*chunkLen)
			for j := range data[i] {
				data[i][j] = rng.Float32()*4 - 2
			}
		}
		results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
			return ReduceScatter(Op{Chip: c, ID: 1, Wire: WireInt8}, hardware.GroupXYZ, data[c.Rank])
		})
		// Worst-case running magnitude: max over prefixes of partial sums;
		// bound loosely by the max |exact partial| over any subset ≤ sum of
		// max magnitudes.
		var magSum float64
		for _, d := range data {
			var m float64
			for _, v := range d {
				if a := math.Abs(float64(v)); a > m {
					m = a
				}
			}
			magSum += m
		}
		bound := float64(k-1)*Int8WireError(magSum) + 1e-6
		for rank, got := range results {
			for j := 0; j < chunkLen; j++ {
				var want float64
				for i := 0; i < k; i++ {
					want += float64(data[i][rank*chunkLen+j])
				}
				if e := math.Abs(float64(got[j]) - want); e > bound {
					t.Fatalf("%v chip %d[%d]: error %g > bound %g", tr, rank, j, e, bound)
				}
			}
		}
	}
}

// Int8 all-to-all: own shard exact, remote shards within one quantization
// half-step of their source values.
func TestInt8AllToAllWithinBound(t *testing.T) {
	tr := hardware.Torus{X: 2, Y: 2, Z: 2}
	k := tr.Chips()
	const shardLen = 5
	results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
		rank, size := c.GroupRank(hardware.GroupXYZ)
		shards := make([][]float32, size)
		for i := range shards {
			shards[i] = make([]float32, shardLen)
			for j := range shards[i] {
				shards[i][j] = float32(rank) + float32(i)/8 + float32(j)/64
			}
		}
		out := AllToAll(Op{Chip: c, ID: 5, Wire: WireInt8}, hardware.GroupXYZ, shards)
		flat := make([]float32, 0, size*shardLen)
		for _, s := range out {
			flat = append(flat, s...)
		}
		return flat
	})
	for rank, got := range results {
		for src := 0; src < k; src++ {
			var maxAbs float64
			for j := 0; j < shardLen; j++ {
				v := math.Abs(float64(src) + float64(rank)/8 + float64(j)/64)
				if v > maxAbs {
					maxAbs = v
				}
			}
			bound := Int8WireError(maxAbs) + 1e-12
			for j := 0; j < shardLen; j++ {
				want := float64(src) + float64(rank)/8 + float64(j)/64
				e := math.Abs(float64(got[src*shardLen+j]) - want)
				if src == rank && e != 0 {
					t.Fatalf("chip %d: own shard not exact", rank)
				}
				if e > bound {
					t.Fatalf("chip %d from %d[%d]: error %g > bound %g", rank, src, j, e, bound)
				}
			}
		}
	}
}

// Mixing payload formats across ops on the same mesh must work: the tag
// space keeps them apart and each op's format decodes its own messages.
func TestMixedWireOpsIsolated(t *testing.T) {
	tr := hardware.Torus{X: 4, Y: 1, Z: 1}
	results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
		rank, _ := c.GroupRank(hardware.GroupX)
		a := AllGather(Op{Chip: c, ID: 100}, hardware.GroupX, []float32{float32(rank)})
		b := AllGather(Op{Chip: c, ID: 101, Wire: WireInt8}, hardware.GroupX, []float32{float32(rank) + 0.5})
		return append(a, b...)
	})
	for rank, got := range results {
		for i := 0; i < 4; i++ {
			if got[i] != float32(i) {
				t.Fatalf("chip %d fp32 gather[%d] = %g", rank, i, got[i])
			}
			want := float64(i) + 0.5
			if e := math.Abs(float64(got[4+i]) - want); e > Int8WireError(want)+1e-12 {
				t.Fatalf("chip %d int8 gather[%d] = %g, want %g±%g", rank, i, got[4+i], want, Int8WireError(want))
			}
		}
	}
}

// Op.Advance is the id-reservation helper: AllReduce consumes AllReduceIDs
// consecutive ids, so ops advanced by that stride never collide — and the
// composition still equals the sum.
func TestOpAdvanceReservesIDs(t *testing.T) {
	o := Op{ID: 7}
	if got := o.Advance(AllReduceIDs).ID; got != 9 {
		t.Fatalf("Advance(%d) = id %d, want 9", AllReduceIDs, got)
	}
	if o.ID != 7 {
		t.Fatalf("Advance mutated the receiver: %d", o.ID)
	}
	tr := hardware.Torus{X: 2, Y: 2, Z: 1}
	results, _ := runSPMD(tr, func(c *mesh.Chip) []float32 {
		op := Op{Chip: c, ID: 40}
		a := AllReduce(op, hardware.GroupXY, []float32{1, float32(c.Rank), 0, 1})
		b := AllReduce(op.Advance(AllReduceIDs), hardware.GroupXY, []float32{2, -float32(c.Rank), 0, 2})
		return append(a, b...)
	})
	for rank, got := range results {
		want := []float32{4, 0 + 1 + 2 + 3, 0, 4, 8, -(0 + 1 + 2 + 3), 0, 8}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chip %d result[%d] = %g, want %g", rank, i, got[i], want[i])
			}
		}
	}
}

// The tag guard rejects steps outside the op's 2^20-message space instead
// of silently aliasing a neighboring op id.
func TestTagStepGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range step")
		}
	}()
	Op{ID: 1}.tag(opSteps)
}

// WireInt8RowsStat: each row of a chunk is int8 with its own scale and each
// row's statistic, stored after the rows, travels as exact float32. Summed
// by a reduce-scatter, the rows keep the per-row bound and the statistics
// are the float32 sums of the inputs' — though they are orders of magnitude
// larger than their rows, whose step they would otherwise set. A chunk of r
// rows costs r·(cols+8) bytes.
func TestInt8RowsStatKeepsStatisticExact(t *testing.T) {
	tr := hardware.Torus{X: 2, Y: 2, Z: 2}
	k := tr.Chips()
	const rows, cols = 3, 5
	per := rows*cols + rows
	rng := rand.New(rand.NewSource(21))
	data := make([][]float32, k)
	for c := range data {
		data[c] = make([]float32, k*per)
		for j := range data[c] {
			data[c][j] = float32(rng.NormFloat64())
			if j%per >= rows*cols {
				data[c][j] = 1e4 * float32(1+rng.Float64())
			}
		}
	}
	got, m := runSPMD(tr, func(c *mesh.Chip) []float32 {
		return ReduceScatter(Op{Chip: c, ID: 1, Wire: WireInt8RowsStat(cols)}, hardware.GroupXYZ, data[c.Rank])
	})
	if want := int64(k * (k - 1) * rows * (cols + 8)); m.BytesSent() != want || m.Int8BytesSent() != want {
		t.Errorf("%d B (%d int8), want %d", m.BytesSent(), m.Int8BytesSent(), want)
	}
	for rank, g := range got {
		for j := 0; j < per; j++ {
			var want, mag float64
			for c := range data {
				v := float64(data[c][rank*per+j])
				want, mag = want+v, mag+math.Abs(v)
			}
			bound := mag * 1e-6 // a statistic: float32 sums only
			if j < rows*cols {
				bound = float64(k-1) * 4 * mag / 127 // a row element: every hop's half step
			}
			if e := math.Abs(float64(g[j]) - want); e > bound {
				t.Fatalf("chip %d element %d: %g, want %g ± %g", rank, j, g[j], want, bound)
			}
		}
	}
}

// AllToAllInto fills the caller's table, so a steady-state loop that
// recycles what it receives allocates nothing beyond the mesh's own run.
func TestAllToAllIntoAllocatesNothing(t *testing.T) {
	m := mesh.New(hardware.Torus{X: 2, Y: 2, Z: 1})
	k := m.Chips()
	outs, shards := make([][][]float32, k), make([][][]float32, k)
	for c := range outs {
		outs[c], shards[c] = make([][]float32, k), make([][]float32, k)
		for i := range shards[c] {
			shards[c][i] = make([]float32, 16)
		}
	}
	var id uint64
	exchange := func(c *mesh.Chip) {
		for _, r := range AllToAllInto(Op{Chip: c, ID: id}, hardware.GroupXYZ, outs[c.Rank], shards[c.Rank]) {
			c.Recycle(r)
		}
	}
	run := func(fn func(*mesh.Chip)) func() {
		return func() { id++; m.Run(fn) }
	}
	empty := run(func(*mesh.Chip) {})
	full := run(exchange)
	for i := 0; i < 4; i++ {
		full()
	}
	if base, got := testing.AllocsPerRun(50, empty), testing.AllocsPerRun(50, full); got != base {
		t.Errorf("a warm all-to-all run allocates %v times, an empty run %v", got, base)
	}
}
