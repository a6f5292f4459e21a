package perf

import (
	"math"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
)

// The headline regression: at OverlapFrac 1.0 on a 64-chip decode, the comm
// term must still charge the full hop-latency floor. The former subtractive
// model (exposed = comm - overlap·compute over the combined term) let full
// overlap erase the floor and report near-zero comm — the mis-pricing
// behind the fictitious 0.92x int8-wire decode ratio.
func TestHopFloorSurvivesFullOverlap(t *testing.T) {
	k := DefaultKnobs()
	k.OverlapFrac = 1.0
	r := Decode(req540(model.Int8, 8), k)
	if !r.Feasible {
		t.Fatalf("infeasible: %s", r.Reason)
	}
	b := r.Breakdown
	if b.Comm <= 0 {
		t.Fatalf("full overlap reported Comm = %g; the hop floor must survive", b.Comm)
	}
	if b.Comm < b.CommFloor-1e-15 {
		t.Fatalf("Comm %g below its own floor %g", b.Comm, b.CommFloor)
	}
	// White-box: the floor is Gen · Layers · CollectiveHops · HopLatency
	// (embedStep adds no communication).
	req := req540(model.Int8, 8)
	plan := partition.PlanFFN(req.FFN, req.System.Torus)
	attn := partition.PlanAttn(req.Attn, req.System.Torus, req.Model.Heads, req.Model.KVHeads)
	hops := CollectiveHops(plan, attn, req.Model.ParallelBlock, PhaseDecode)
	want := float64(req.Gen) * float64(req.Model.Layers) * float64(hops) * k.HopLatency
	if math.Abs(b.CommFloor-want)/want > 1e-9 {
		t.Errorf("CommFloor %g, want Gen·Layers·hops·HopLatency = %g (hops %d)", b.CommFloor, want, hops)
	}
	// At full overlap the bandwidth component is entirely hidden: Comm
	// collapses to exactly the floor.
	if math.Abs(b.Comm-b.CommFloor)/b.CommFloor > 1e-9 {
		t.Errorf("full overlap should pin Comm (%g) to the floor (%g)", b.Comm, b.CommFloor)
	}
}

// Ring steps per layer, pinned per layout from outside the layout table:
// K-1 per all-gather or reduce-scatter over a K-chip group, one AG/RS pair
// per activation group and one weight all-gather, plus the torus diameter
// for a batch-sharded decode's all-to-alls. A serial block pays its
// activation pairs twice, once for the attention and once for the FFN, and
// its weight all-gather once.
func TestCollectiveHopsPerLayout(t *testing.T) {
	for _, tr := range []hardware.Torus{{X: 4, Y: 4, Z: 4}, {X: 2, Y: 4, Z: 8}} {
		n, yz, xy := tr.Chips(), tr.Y*tr.Z, tr.X*tr.Y
		want := map[partition.FFNLayout]int{
			partition.FFN1DWeightStationary: 2 * (n - 1),
			partition.FFN2DWeightStationary: 2*(tr.X-1) + 2*(yz-1),
			partition.FFNWeightGatheredX:    2*(yz-1) + (tr.X - 1),
			partition.FFNWeightGatheredXY:   2*(tr.Z-1) + (xy - 1),
			partition.FFNWeightGatheredXYZ:  n - 1,
		}
		for _, l := range partition.FFNLayouts {
			plan := partition.PlanFFN(l, tr)
			heads := partition.PlanAttn(partition.AttnShardHeads, tr, 48, 1)
			batch := partition.PlanAttn(partition.AttnShardBatch, tr, 48, 1)
			for _, c := range []struct {
				name  string
				attn  partition.AttnPlan
				phase Phase
				want  int
			}{
				{"head-sharded decode", heads, PhaseDecode, want[l]},
				{"batch-sharded prefill", batch, PhasePrefill, want[l]},
				{"batch-sharded decode", batch, PhaseDecode, want[l] + tr.X + tr.Y + tr.Z},
			} {
				if got := CollectiveHops(plan, c.attn, true, c.phase); got != c.want {
					t.Errorf("%v on %v, %s: %d ring steps, want %d", l, tr, c.name, got, c.want)
				}
				act := want[l] - (plan.TokenSplit - 1)
				if got := CollectiveHops(plan, c.attn, false, c.phase); got != c.want+act {
					t.Errorf("%v on %v, %s, serial: %d ring steps, want %d", l, tr, c.name, got, c.want+act)
				}
			}
		}
	}
}

// Overlap hides only bandwidth: Comm is nonincreasing in OverlapFrac, never
// drops below CommFloor, and CommFloor itself is overlap-invariant.
func TestCommMonotoneAboveInvariantFloor(t *testing.T) {
	prev := math.Inf(1)
	var floor0 float64
	for i, ov := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		k := DefaultKnobs()
		k.OverlapFrac = ov
		r := Decode(req540(model.BF16, 8), k)
		if !r.Feasible {
			t.Fatalf("overlap %g infeasible: %s", ov, r.Reason)
		}
		b := r.Breakdown
		if b.Comm > prev+1e-15 {
			t.Errorf("Comm increased with overlap: %g at %g after %g", b.Comm, ov, prev)
		}
		if b.Comm < b.CommFloor-1e-15 {
			t.Errorf("overlap %g: Comm %g below floor %g", ov, b.Comm, b.CommFloor)
		}
		if i == 0 {
			floor0 = b.CommFloor
		} else if b.CommFloor != floor0 {
			t.Errorf("CommFloor changed with overlap: %g at %g, %g at 0", b.CommFloor, ov, floor0)
		}
		prev = b.Comm
	}
}

// The corrected 64-chip small-batch story: without overlap the int8 wire
// buys a real (if modest) decode comm reduction; at full overlap both wire
// formats wait on the same ring hops and the ratio pins to exactly 1.
func TestInt8WireDecodeRatioPinsToFloor(t *testing.T) {
	comm := func(dt model.DType, ov float64) float64 {
		k := DefaultKnobs()
		k.OverlapFrac = ov
		req := req540(model.Int8, 8)
		req.WireDType = dt
		r := Decode(req, k)
		if !r.Feasible {
			t.Fatalf("infeasible: %s", r.Reason)
		}
		return r.Breakdown.Comm
	}
	if ratio := comm(model.Int8, 0) / comm(model.BF16, 0); ratio >= 1 {
		t.Errorf("without overlap int8 wire should reduce decode comm, ratio %g", ratio)
	}
	if ratio := comm(model.Int8, 1) / comm(model.BF16, 1); math.Abs(ratio-1) > 1e-9 {
		t.Errorf("at full overlap the int8-vs-bf16 ratio must pin to 1.0, got %g", ratio)
	}
}

// CommFloor is an informational subset of Comm: the breakdown still sums to
// the reported time with the floor included once, not twice.
func TestCommFloorNotDoubleCounted(t *testing.T) {
	k := DefaultKnobs()
	k.OverlapFrac = 0.7
	for _, mk := range []func() Result{
		func() Result { return Decode(req540(model.Int8, 8), k) },
		func() Result { return Prefill(req540(model.Int8, 1), k) },
	} {
		r := mk()
		if !r.Feasible {
			t.Fatalf("infeasible: %s", r.Reason)
		}
		if math.Abs(r.Breakdown.Total()-r.Time)/r.Time > 1e-12 {
			t.Errorf("breakdown sums to %g, time %g", r.Breakdown.Total(), r.Time)
		}
		if r.Breakdown.CommFloor > r.Breakdown.Comm+1e-15 {
			t.Errorf("CommFloor %g exceeds Comm %g", r.Breakdown.CommFloor, r.Breakdown.Comm)
		}
	}
}
