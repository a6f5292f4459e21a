package commcost

import (
	"math"
	"testing"
	"testing/quick"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
)

func torus444() hardware.Torus { return hardware.Torus{X: 4, Y: 4, Z: 4} }

func TestPrimitiveVolumes(t *testing.T) {
	if got := AllGatherVolume(1000, 4); got != 750 {
		t.Errorf("AllGatherVolume = %g, want 750", got)
	}
	if got := ReduceScatterVolume(1000, 4); got != 750 {
		t.Errorf("ReduceScatterVolume = %g, want 750", got)
	}
	if got := AllReduceWireVolume(250, 4, WireFP32); got != 1500 {
		t.Errorf("AllReduceWireVolume = %g, want 1500", got)
	}
	if got := AllToAllVolume(1000, 4); got != 750 {
		t.Errorf("AllToAllVolume = %g, want 750", got)
	}
}

func TestCollectiveOverOneChipIsFree(t *testing.T) {
	if AllGatherVolume(1e9, 1) != 0 || ReduceScatterVolume(1e9, 1) != 0 ||
		AllReduceWireVolume(1e9, 1, WireFP32) != 0 || AllToAllVolume(1e9, 1) != 0 {
		t.Error("collectives over a single chip must move zero bytes")
	}
}

// Appendix A.1: all-reduce = reduce-scatter + all-gather, the ring's
// 2·(k-1) chunk transmissions against the classic byte forms.
func TestAllReduceComposition(t *testing.T) {
	f := func(kRaw uint8, chunkRaw uint16) bool {
		k := int(kRaw%16) + 1
		elems := float64(k) * float64(chunkRaw)
		b := 4 * elems
		return AllReduceWireVolume(elems, k, WireFP32) == ReduceScatterVolume(b, k)+AllGatherVolume(b, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTime(t *testing.T) {
	if got := Time(270e9, 270e9); got != 1 {
		t.Errorf("Time = %g, want 1s", got)
	}
	if Time(0, 270e9) != 0 || Time(-5, 270e9) != 0 {
		t.Error("non-positive volume should cost zero time")
	}
}

// A non-positive (or NaN) bandwidth is a broken hardware description, not a
// free fabric: Time must return +Inf for every volume — zero volume
// included, which previously slipped through as a zero-cost transfer and
// masked the bad config — so the error surfaces in phase totals instead of
// silently pricing collectives at 0 (or propagating -0 / negative times).
func TestTimeDegenerateBandwidth(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name              string
		volume, bandwidth float64
		wantInf           bool
		want              float64
	}{
		{"zero bandwidth", 1e9, 0, true, 0},
		{"zero bandwidth zero volume", 0, 0, true, 0},
		{"negative bandwidth", 1e9, -270e9, true, 0},
		{"negative bandwidth negative volume", -5, -1, true, 0},
		{"NaN bandwidth", 1e9, nan, true, 0},
		{"NaN volume", nan, 270e9, true, 0},
		{"both NaN", nan, nan, true, 0},
		{"healthy", 540e9, 270e9, false, 2},
		{"healthy zero volume", 0, 270e9, false, 0},
		{"healthy negative volume", -7, 270e9, false, 0},
	}
	for _, tc := range cases {
		got := Time(tc.volume, tc.bandwidth)
		if tc.wantInf {
			if !math.IsInf(got, 1) {
				t.Errorf("%s: Time(%g, %g) = %g, want +Inf", tc.name, tc.volume, tc.bandwidth, got)
			}
		} else if got != tc.want {
			t.Errorf("%s: Time(%g, %g) = %g, want %g", tc.name, tc.volume, tc.bandwidth, got, tc.want)
		}
	}
}

// Section 3.2.1: 1D weight-stationary communication is 2·B·L·E/bandwidth,
// independent of chip count (up to the (K-1)/K factor).
func Test1DWSVolumeMatchesPaperFormula(t *testing.T) {
	const tokens, e, f = 512, 18432, 73728
	const ab = 2.0
	p := partition.PlanFFN(partition.FFN1DWeightStationary, torus444())
	c := FFNLayerComm(p, tokens, e, f, f, ab, 4.7e9)
	want := 2 * tokens * e * ab * 63.0 / 64.0
	if math.Abs(c.Total()-want) > 1 {
		t.Errorf("1D WS volume = %g, want %g", c.Total(), want)
	}
	if c.WeightBytes != 0 {
		t.Error("weight-stationary layout moved weight bytes")
	}
}

// Appendix A.2.1: 2D weight-stationary communication is
// 2·B·L·(E/X + F/(Y·Z)), and with F = 4E and the optimal X = sqrt(n)/2 it
// reduces to 8·B·L·E/sqrt(n).
func Test2DWSVolumeMatchesPaperFormula(t *testing.T) {
	const tokens = 512.0
	const e = 16384.0
	const f = 4 * e
	const ab = 2.0
	// Optimal split for 64 chips: X = 4, Y·Z = 16 (a 4x4x4 torus).
	p := partition.PlanFFN(partition.FFN2DWeightStationary, torus444())
	c := FFNLayerComm(p, tokens, e, f, f, ab, 0)
	// Exact with (K-1)/K factors:
	want := 2*tokens*(e/4)*ab*(15.0/16.0) + 2*tokens*(f/16)*ab*(3.0/4.0)
	if math.Abs(c.Total()-want) > 1 {
		t.Errorf("2D WS volume = %g, want %g", c.Total(), want)
	}
	// And the asymptotic form 8·tokens·E/sqrt(n)·ab bounds it above.
	asymptotic := 8 * tokens * e * ab / 8.0
	if c.Total() > asymptotic {
		t.Errorf("2D WS volume %g exceeds asymptotic bound %g", c.Total(), asymptotic)
	}
}

// Section 3.2.2: 2D beats 1D when sqrt(nchips) > dff/dmodel, i.e. beyond 16
// chips for F = 4E.
func Test2Dvs1DCrossover(t *testing.T) {
	const tokens, e = 256.0, 8192.0
	const f = 4 * e
	const ab = 2.0
	vol := func(l partition.FFNLayout, tr hardware.Torus) float64 {
		return FFNLayerComm(partition.PlanFFN(l, tr), tokens, e, f, f, ab, 0).Total()
	}
	// At 64 chips 2D wins.
	big := torus444()
	if v2, v1 := vol(partition.FFN2DWeightStationary, big), vol(partition.FFN1DWeightStationary, big); v2 >= v1 {
		t.Errorf("at 64 chips 2D (%g) should beat 1D (%g)", v2, v1)
	}
	// At 8 chips (2x2x2) 1D wins or ties: sqrt(8) < 4.
	small := hardware.Torus{X: 2, Y: 2, Z: 2}
	if v2, v1 := vol(partition.FFN2DWeightStationary, small), vol(partition.FFN1DWeightStationary, small); v1 > v2 {
		t.Errorf("at 8 chips 1D (%g) should not lose to 2D (%g)", v1, v2)
	}
}

// Figure 3's setup: X=Y=Z=4, d_model 16384, d_ff 65536, two-matrix bf16 MLP.
// The communication-optimal layout must switch WS → X-WG → XY-WG → XYZ-WG as
// tokens per batch grow from 2k to 2M.
func TestFig3LayoutProgression(t *testing.T) {
	tr := torus444()
	const e, f = 16384.0, 65536.0
	const ab = 2.0
	layerW := 2 * e * f * ab // the paper's abstract 2-matrix MLP

	bestAt := func(tokens float64) partition.FFNLayout {
		l, _ := BestFFNLayout(tr, tokens, e, f, ab, layerW)
		return l
	}
	if got := bestAt(2000); got != partition.FFN2DWeightStationary {
		t.Errorf("at 2k tokens best = %v, want WS 2D", got)
	}
	if got := bestAt(2000000); got != partition.FFNWeightGatheredXYZ {
		t.Errorf("at 2M tokens best = %v, want WG XYZ", got)
	}
	// The full progression is monotone in gather factor.
	prev := 0
	for _, tokens := range []float64{2e3, 2e4, 6e4, 2e5, 6e5, 2e6} {
		l := bestAt(tokens)
		g := partition.PlanFFN(l, tr).GatherFactor()
		if g < prev {
			t.Errorf("gather factor regressed to %d at %g tokens", g, tokens)
		}
		prev = g
	}
	// XYZ-WG volume is flat in tokens (weights only).
	c1 := FFNLayerComm(partition.PlanFFN(partition.FFNWeightGatheredXYZ, tr), 2e3, e, f, f, ab, layerW)
	c2 := FFNLayerComm(partition.PlanFFN(partition.FFNWeightGatheredXYZ, tr), 2e6, e, f, f, ab, layerW)
	if c1.Total() != c2.Total() {
		t.Errorf("XYZ-WG volume should not depend on tokens: %g vs %g", c1.Total(), c2.Total())
	}
	if want := layerW * 63 / 64; c1.Total() != want {
		t.Errorf("XYZ-WG volume = %g, want %g", c1.Total(), want)
	}
}

// Appendix A.2.2: the optimal gather factor reduces to sqrt(B·L·n/F) for the
// paper's 2-matrix bf16 MLP.
func TestOptimalGatherFactorPaperForm(t *testing.T) {
	const tokens, e, f = 250000.0, 16384.0, 65536.0
	const ab = 2.0
	layerW := 2 * e * f * ab
	got := OptimalGatherFactor(tokens, e, ab, layerW, 64)
	want := math.Sqrt(tokens * 64 / f)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("N* = %g, want sqrt(BLn/F) = %g", got, want)
	}
}

func TestOptimalGatherFactorClamps(t *testing.T) {
	if got := OptimalGatherFactor(1, 16384, 2, 4e9, 64); got != 1 {
		t.Errorf("tiny batch N* = %g, want clamp to 1", got)
	}
	if got := OptimalGatherFactor(1e12, 16384, 2, 4e9, 64); got != 64 {
		t.Errorf("huge batch N* = %g, want clamp to 64", got)
	}
	if got := OptimalGatherFactor(100, 16384, 2, 0, 64); got != 64 {
		t.Errorf("zero weight bytes N* = %g, want 64", got)
	}
}

// Weight-gathered communication scales as sqrt(tokens) at the optimum while
// weight-stationary scales linearly — so WG wins for large enough batches
// (Section 3.2.3).
func TestWGBeatsWSAtLargeBatch(t *testing.T) {
	tr := torus444()
	const e, f = 16384.0, 65536.0
	const ab = 2.0
	layerW := 2 * e * f * ab
	ws := FFNLayerComm(partition.PlanFFN(partition.FFN2DWeightStationary, tr), 1e6, e, f, f, ab, layerW)
	wg := FFNLayerComm(partition.PlanFFN(partition.FFNWeightGatheredXYZ, tr), 1e6, e, f, f, ab, layerW)
	if wg.Total() >= ws.Total() {
		t.Errorf("at 1M tokens WG XYZ (%g) should beat WS 2D (%g)", wg.Total(), ws.Total())
	}
}

func TestAttnAllToAllBytes(t *testing.T) {
	tr := torus444()
	headPlan := partition.PlanAttn(partition.AttnShardHeads, tr, 48, 1)
	if got := AttnAllToAllBytes(headPlan, 512, 256, 2); got != 0 {
		t.Errorf("head-sharded all-to-all bytes = %g, want 0", got)
	}
	batchPlan := partition.PlanAttn(partition.AttnShardBatch, tr, 48, 1)
	got := AttnAllToAllBytes(batchPlan, 512, 256, 2)
	// The queries go out and the outputs come back; K/V ride the
	// in-projection (BlockWidths).
	q := 512.0 * 48 * 256 * 2 / 64
	want := 2 * q * 63 / 64
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("batch-sharded all-to-all bytes = %g, want %g", got, want)
	}
}

// The all-to-all the optimized layout pays is orders of magnitude smaller
// than the KV-cache bytes it saves (Section 3.3: "very profitable").
func TestAllToAllMuchSmallerThanKVSavings(t *testing.T) {
	tr := torus444()
	p := partition.PlanAttn(partition.AttnShardBatch, tr, 48, 1)
	const batch, ctx = 256.0, 2048.0
	a2a := AttnAllToAllBytes(p, batch, 256, 2)
	kvLogical := 2 * batch * ctx * 256 * 2 // K+V · tokens · head dim · bf16
	saved := kvLogical - kvLogical/64      // replicated vs batch-sharded, per chip
	if a2a*10 > saved {
		t.Errorf("all-to-all (%g B) not small vs KV savings (%g B)", a2a, saved)
	}
}

func TestFFNLayerCommPanicsOnUnknownLayout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FFNLayerComm(unknown) did not panic")
		}
	}()
	p := partition.FFNPlan{Layout: partition.FFNLayout(42), Torus: torus444()}
	FFNLayerComm(p, 1, 1, 1, 1, 2, 0)
}

// The wire-format forms are exact per-chunk accountings: they reduce to
// the classic (K-1)/K volumes for zero-overhead formats and add exactly
// one chunk overhead per transmission for int8, or one per row for per-row
// int8.
func TestWireVolumesReduceToClassicForms(t *testing.T) {
	const elems, k = 96, 8
	// fp32, zero overhead: element form × 4 B == byte form.
	if got, want := AllGatherWireVolume(elems, k, WireFP32), AllGatherVolume(4*elems*k, k); got != want {
		t.Errorf("fp32 all-gather %g != classic %g", got, want)
	}
	if got, want := ReduceScatterWireVolume(elems*k, k, WireFP32), ReduceScatterVolume(4*elems*k, k); got != want {
		t.Errorf("fp32 reduce-scatter %g != classic %g", got, want)
	}
	if got, want := AllReduceWireVolume(elems*k, k, WireFP32), ReduceScatterVolume(4*elems*k, k)+AllGatherVolume(4*elems*k, k); got != want {
		t.Errorf("fp32 all-reduce %g != classic %g", got, want)
	}
	if got, want := AllToAllWireVolume(elems*k, k, WireFP32), AllToAllVolume(4*elems*k, k); got != want {
		t.Errorf("fp32 all-to-all %g != classic %g", got, want)
	}
	// int8: (k-1) chunks, each elems + 4 B of scale.
	if got, want := AllGatherWireVolume(elems, k, WireInt8), float64((k-1)*(elems+4)); got != want {
		t.Errorf("int8 all-gather %g != %g", got, want)
	}
	if got, want := AllToAllWireVolume(elems*k, k, WireInt8), float64((k-1)*(elems+4)); got != want {
		t.Errorf("int8 all-to-all %g != %g", got, want)
	}
	// Per-row int8 over rows of 12: 4 B of scale per row, not per chunk.
	if got, want := AllGatherWireVolume(elems, k, WireInt8Rows(12)), float64((k-1)*(elems+4*elems/12)); got != want {
		t.Errorf("int8 rows all-gather %g != %g", got, want)
	}
	// One chip: free in every format.
	for _, w := range []WireFormat{WireFP32, WireBF16, WireInt8, WireInt8Rows(12)} {
		if AllGatherWireVolume(elems, 1, w)+ReduceScatterWireVolume(elems, 1, w)+
			AllReduceWireVolume(elems, 1, w)+AllToAllWireVolume(elems, 1, w) != 0 {
			t.Errorf("single-chip collectives not free in %+v", w)
		}
	}
	// Int8 is at most 0.55x fp32 whenever chunks carry ≥9 elements
	// (scale amortized); at the engine's activation sizes it is ~0.26x.
	fp := AllGatherWireVolume(elems, k, WireFP32)
	q8 := AllGatherWireVolume(elems, k, WireInt8)
	if q8 > 0.55*fp {
		t.Errorf("int8 all-gather %g not <= 0.55x fp32 %g", q8, fp)
	}
}

// The fused block's closed forms: FFNLayerComm's activation volume is
// BlockWireVolume at the element size, whose int8 form pays a scale per
// token row; the norm statistic rides the Inner reduce-scatter only; and
// the K/V columns are copied to every chip unless head-sharded multihead
// attention cuts them like the query heads.
func TestFusedBlockForms(t *testing.T) {
	tr := hardware.Torus{X: 2, Y: 2, Z: 2}
	const tokens, e, fIn, fOut = 8.0, 64.0, 336.0, 192.0
	for _, l := range partition.FFNLayouts {
		p := partition.PlanFFN(l, tr)
		if got, want := FFNLayerComm(p, tokens, e, fIn, fOut, 4, 0).ActBytes, BlockWireVolume(p, tokens, e, fIn, fOut, WireFP32); got != want {
			t.Errorf("%v: FFNLayerComm moves %g activation bytes, BlockWireVolume %g", l, got, want)
		}
	}
	p2 := partition.PlanFFN(partition.FFN2DWeightStationary, tr)
	// X = 2, Y·Z = 4: per token three E/8 chunks out and three back, and
	// one fIn/8 and one fOut/8 chunk over X.
	want8 := tokens * (6*(e/8+4) + (fIn/8 + 4) + (fOut/8 + 4))
	if got := BlockWireVolume(p2, tokens, e, fIn, fOut, WireInt8); got != want8 {
		t.Errorf("2D int8 block volume %g, want %g", got, want8)
	}
	if got := NormStatVolume(p2, tokens); got != tokens*NormStatBytes {
		t.Errorf("2D norm statistic %g B, want %g", got, tokens*NormStatBytes)
	}
	if got := NormStatVolume(partition.PlanFFN(partition.FFN1DWeightStationary, tr), tokens); got != 0 {
		t.Errorf("1D norm statistic %g B, want 0: every chip holds whole rows", got)
	}
	mqa := model.Config{Heads: 8, HeadDim: 8, KVHeads: 1, DFF: 128, FFNKind: model.SwiGLU}
	mha := mqa
	mha.KVHeads = 8
	for _, c := range []struct {
		cfg  model.Config
		attn partition.AttnLayout
		want int
	}{
		{mqa, partition.AttnShardHeads, 8},
		{mqa, partition.AttnShardBatch, 8},
		{mha, partition.AttnShardHeads, 1},
		{mha, partition.AttnShardBatch, 8},
	} {
		if got := KVCopies(c.cfg, partition.PlanAttn(c.attn, tr, c.cfg.Heads, c.cfg.KVHeads)); got != c.want {
			t.Errorf("%d KV heads, %v: %d K/V copies, want %d", c.cfg.KVHeads, c.attn, got, c.want)
		}
	}
	if ai, fi, ao, fo := BlockWidths(mqa); ai != 64+16 || fi != 256 || ao != 64 || fo != 128 {
		t.Errorf("BlockWidths = %g, %g, %g, %g; want 80, 256, 64, 128", ai, fi, ao, fo)
	}
}
