package partition

import (
	"testing"
	"testing/quick"

	"esti/internal/hardware"
)

func torus444() hardware.Torus { return hardware.Torus{X: 4, Y: 4, Z: 4} }

func TestPlanFFNSplits(t *testing.T) {
	tr := torus444()
	cases := []struct {
		layout                    FFNLayout
		eSplit, fSplit, tokSplit  int
		gather                    int
		storedESplit, storedFSplt int
	}{
		{FFN1DWeightStationary, 1, 64, 1, 1, 1, 64},
		{FFN2DWeightStationary, 4, 16, 1, 1, 4, 16},
		{FFNWeightGatheredX, 1, 16, 4, 4, 4, 16},
		{FFNWeightGatheredXY, 1, 4, 16, 16, 4, 16},
		{FFNWeightGatheredXYZ, 1, 1, 64, 64, 4, 16},
	}
	for _, c := range cases {
		p := PlanFFN(c.layout, tr)
		if p.ESplit != c.eSplit || p.FSplit != c.fSplit || p.TokenSplit != c.tokSplit {
			t.Errorf("%v: splits E=%d F=%d T=%d, want %d/%d/%d",
				c.layout, p.ESplit, p.FSplit, p.TokenSplit, c.eSplit, c.fSplit, c.tokSplit)
		}
		if got := p.GatherFactor(); got != c.gather {
			t.Errorf("%v: gather factor %d, want %d", c.layout, got, c.gather)
		}
		if p.StoredESplit != c.storedESplit || p.StoredFSplit != c.storedFSplt {
			t.Errorf("%v: stored splits %d/%d, want %d/%d",
				c.layout, p.StoredESplit, p.StoredFSplit, c.storedESplit, c.storedFSplt)
		}
	}
}

// Invariant: work conservation — every layout splits the layer's matmul
// FLOPs evenly, so the product of the compute-time splits equals the chip
// count (each chip computes exactly 1/n of the tokens×E×F work).
func TestPlanFFNShardConservation(t *testing.T) {
	f := func(xe, ye, ze uint8, li uint8) bool {
		tr := hardware.Torus{X: 1 << (xe % 4), Y: 1 << (ye % 4), Z: 1 << (ze % 4)}
		l := FFNLayouts[int(li)%len(FFNLayouts)]
		p := PlanFFN(l, tr)
		return p.ESplit*p.FSplit*p.TokenSplit == tr.Chips()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The per-chip matmul shapes perf prices are [tokens/TokenSplit,
// E/ESplit]×[E/ESplit, F/FSplit] and back: 2D weight-stationary keeps every
// token and splits both weight dims, weight-gathered XYZ splits only the
// tokens.
func TestMatmulShapes(t *testing.T) {
	const tokens, e, f = 512, 18432, 73728
	p := PlanFFN(FFN2DWeightStationary, torus444())
	if m, k, n := tokens/p.TokenSplit, e/p.ESplit, f/p.FSplit; m != 512 || k != 4608 || n != 4608 {
		t.Errorf("2D WS per-chip shape = %d×%d×%d, want 512×4608×4608", m, k, n)
	}
	p = PlanFFN(FFNWeightGatheredXYZ, torus444())
	if m, k, n := 1048576/p.TokenSplit, e/p.ESplit, f/p.FSplit; m != 16384 || k != e || n != f {
		t.Errorf("WG-XYZ per-chip shape = %d×%d×%d, want 16384×%d×%d", m, k, n, e, f)
	}
}

// At-rest weight storage is one 1/nchips block per chip under every layout:
// weight-gathered layouts transfer weights but do not duplicate them.
func TestWeightBytesPerChipUniformAcrossLayouts(t *testing.T) {
	const layerBytes = 4.69e9
	for _, l := range FFNLayouts {
		p := PlanFFN(l, torus444())
		if got, want := layerBytes/float64(p.StoredESplit*p.StoredFSplit), layerBytes/64; got != want {
			t.Errorf("%v: weight bytes/chip = %g, want %g", l, got, want)
		}
	}
}

func TestKVReplication(t *testing.T) {
	tr := torus444() // 64 chips
	cases := []struct {
		name     string
		layout   AttnLayout
		heads    int
		kvHeads  int
		wantRepl float64
	}{
		{"MQA batch-sharded", AttnShardBatch, 48, 1, 1},
		{"MQA head-sharded replicates fully", AttnShardHeads, 48, 1, 64},
		{"MHA head-sharded, heads<chips", AttnShardHeads, 48, 48, 64.0 / 48.0},
		{"MHA head-sharded, heads>=chips", AttnShardHeads, 128, 128, 1},
		{"MHA batch-sharded", AttnShardBatch, 128, 128, 1},
	}
	for _, c := range cases {
		p := PlanAttn(c.layout, tr, c.heads, c.kvHeads)
		if got := p.KVReplication(); got != c.wantRepl {
			t.Errorf("%s: replication = %g, want %g", c.name, got, c.wantRepl)
		}
	}
}

// The heart of Section 3.3: batch sharding divides per-chip KV bytes by
// nchips; head sharding of a multiquery model does not shrink them at all.
// A chip holds KVReplication/nchips of the logical cache (perf's
// kvShardFactor at full batch).
func TestKVBytesPerChipMultiquery(t *testing.T) {
	tr := torus444()
	const logical = 1 << 30
	perChip := func(p AttnPlan) float64 { return logical * p.KVReplication() / float64(tr.Chips()) }
	batch := perChip(PlanAttn(AttnShardBatch, tr, 48, 1))
	heads := perChip(PlanAttn(AttnShardHeads, tr, 48, 1))
	if want := float64(logical) / 64; batch != want {
		t.Errorf("batch-sharded KV/chip = %g, want %g", batch, want)
	}
	if want := float64(logical); heads != want {
		t.Errorf("head-sharded MQA KV/chip = %g, want %g (fully replicated)", heads, want)
	}
	if ratio := heads / batch; ratio != 64 {
		t.Errorf("optimized/baseline ratio = %g, want nchips = 64", ratio)
	}
}

func TestNeedsAllToAll(t *testing.T) {
	tr := torus444()
	if !PlanAttn(AttnShardBatch, tr, 48, 1).NeedsAllToAll() {
		t.Error("batch-sharded must reshard with all-to-all")
	}
	if PlanAttn(AttnShardHeads, tr, 48, 1).NeedsAllToAll() {
		t.Error("head-sharded must not need all-to-all")
	}
}

func TestStringers(t *testing.T) {
	want := map[FFNLayout]string{
		FFN1DWeightStationary: "WS 1D",
		FFN2DWeightStationary: "WS 2D",
		FFNWeightGatheredX:    "WG X",
		FFNWeightGatheredXY:   "WG XY",
		FFNWeightGatheredXYZ:  "WG XYZ",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(l), l.String(), s)
		}
	}
	if AttnShardHeads.String() != "shard-heads" || AttnShardBatch.String() != "shard-batch" {
		t.Error("AttnLayout strings wrong")
	}
	if FFNLayout(99).String() == "" || AttnLayout(99).String() == "" {
		t.Error("unknown layout String should be non-empty")
	}
}

func TestWeightGathered(t *testing.T) {
	if FFN1DWeightStationary.WeightGathered() || FFN2DWeightStationary.WeightGathered() {
		t.Error("WS layouts must not be weight-gathered")
	}
	for _, l := range []FFNLayout{FFNWeightGatheredX, FFNWeightGatheredXY, FFNWeightGatheredXYZ} {
		if !l.WeightGathered() {
			t.Errorf("%v must be weight-gathered", l)
		}
	}
}

func TestPlanFFNPanicsOnUnknownLayout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PlanFFN(unknown) did not panic")
		}
	}()
	PlanFFN(FFNLayout(42), torus444())
}

func TestKVReplicationPanicsOnUnknownLayout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("KVReplication(unknown) did not panic")
		}
	}()
	p := AttnPlan{Layout: AttnLayout(42), Torus: torus444(), Heads: 8, KVHeads: 1}
	p.KVReplication()
}
