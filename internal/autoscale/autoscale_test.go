package autoscale

import (
	"math"
	"testing"
)

// testPolicy is a fast-acting tuning for unit tests: one-tick debounce on
// pressure, two on slack, short cooldown.
func testPolicy() Policy {
	return Policy{
		Interval:       0.25,
		MinReplicas:    1,
		MaxReplicas:    8,
		ScaleOutAbove:  1.0,
		ScaleInBelow:   0.25,
		OverTicks:      2,
		UnderTicks:     3,
		CooldownTicks:  2,
		ProvisionDelay: 0.5,
		WarmupCost:     0.25,
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := New(Policy{}).Policy()
	if p.Interval <= 0 || p.MinReplicas < 1 || p.MaxReplicas < p.MinReplicas {
		t.Fatalf("defaults left invalid policy: %+v", p)
	}
	if p.ScaleInBelow >= p.ScaleOutAbove {
		t.Fatalf("defaults left no hysteresis gap: %+v", p)
	}
	if p.OverTicks < 1 || p.UnderTicks < 1 || p.CooldownTicks < 1 {
		t.Fatalf("defaults left zero debounce: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("defaulted policy fails its own Validate: %v", err)
	}
}

func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{Interval: math.NaN()},
		{ScaleOutAbove: math.Inf(1)},
		{ProvisionDelay: -1},
		{MinReplicas: -2},
		{MinReplicas: 5, MaxReplicas: 2},
		{ScaleOutAbove: 1, ScaleInBelow: 1},   // no hysteresis gap
		{ScaleOutAbove: 1, ScaleInBelow: 1.5}, // inverted bands
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
	if err := (Policy{}).Validate(); err != nil {
		t.Errorf("zero policy (all defaults) rejected: %v", err)
	}
	if err := testPolicy().Validate(); err != nil {
		t.Errorf("test policy rejected: %v", err)
	}
}

// Sustained pressure with a backlog that repays the warm-up scales out —
// after exactly OverTicks ticks, not on the first breach.
func TestScaleOutAfterDebounce(t *testing.T) {
	c := New(testPolicy())
	hot := Signals{Live: 2, DrainTime: 3.0, TotalBacklog: 6.0}
	if d := c.Decide(hot); d.Verdict != Hold {
		t.Fatalf("first breach acted immediately: %+v", d)
	}
	if d := c.Decide(hot); d.Verdict != ScaleOut {
		t.Fatalf("second consecutive breach held: %+v", d)
	}
	// Immediately after the action, cooldown holds even under pressure.
	for i := 0; i < c.Policy().CooldownTicks; i++ {
		if d := c.Decide(hot); d.Verdict != Hold {
			t.Fatalf("tick %d of cooldown acted: %+v", i, d)
		}
	}
}

// A backlog too small to repay the provision+warm-up cost holds even under
// sustained pressure — the perf-model payback check.
func TestScaleOutPaybackCheck(t *testing.T) {
	c := New(testPolicy())
	// Drain beyond the band but total backlog under what the pool carries
	// at the high watermark: excess = 0.6 - 1.0×1 = -0.4 < 0.75 cost.
	thin := Signals{Live: 1, DrainTime: 1.2, TotalBacklog: 0.6}
	for i := 0; i < 6; i++ {
		if d := c.Decide(thin); d.Verdict != Hold {
			t.Fatalf("tick %d scaled out on unrepayable backlog: %+v", i, d)
		}
	}
	// A brownout overrides the payback check: lost capacity is evidence.
	c2 := New(testPolicy())
	brown := thin
	brown.Brownout = true
	c2.Decide(brown)
	if d := c2.Decide(brown); d.Verdict != ScaleOut {
		t.Fatalf("brownout with thin backlog held: %+v", d)
	}
}

// Recovering or provisioning replicas are capacity about to return: the
// controller does not stack a second scale-out on top of one in flight.
func TestArrivingCapacitySuppressesScaleOut(t *testing.T) {
	c := New(testPolicy())
	hot := Signals{Live: 2, Arriving: 1, DrainTime: 3.0, TotalBacklog: 6.0}
	for i := 0; i < 5; i++ {
		if d := c.Decide(hot); d.Verdict != Hold {
			t.Fatalf("tick %d scaled out past arriving capacity: %+v", i, d)
		}
	}
	hot.Arriving = 0
	if d := c.Decide(hot); d.Verdict != ScaleOut {
		t.Fatalf("arrival landed but still held: %+v", d)
	}
}

func TestMaxReplicasBound(t *testing.T) {
	c := New(testPolicy())
	hot := Signals{Live: 8, DrainTime: 5.0, TotalBacklog: 40.0}
	for i := 0; i < 5; i++ {
		if d := c.Decide(hot); d.Verdict != Hold {
			t.Fatalf("scaled out past MaxReplicas: %+v", d)
		}
	}
}

// Sustained slack with an idle replica scales in, but never below
// MinReplicas, never during a brownout, and never while a drain is in
// flight.
func TestScaleInGuards(t *testing.T) {
	p := testPolicy()
	calm := Signals{Live: 3, Idle: 1, DrainTime: 0.1, TotalBacklog: 0.2}

	c := New(p)
	for i := 0; i < p.UnderTicks-1; i++ {
		if d := c.Decide(calm); d.Verdict != Hold {
			t.Fatalf("tick %d scaled in before debounce: %+v", i, d)
		}
	}
	if d := c.Decide(calm); d.Verdict != ScaleIn {
		t.Fatalf("sustained slack held: %+v", d)
	}

	guards := []struct {
		name string
		s    Signals
	}{
		{"at-min", Signals{Live: 1, Idle: 1, DrainTime: 0.1}},
		{"draining", Signals{Live: 3, Idle: 1, Draining: 1, DrainTime: 0.1}},
		{"brownout", Signals{Live: 3, Idle: 1, DrainTime: 0.1, Brownout: true}},
		{"shedding", Signals{Live: 3, Idle: 1, DrainTime: 0.1, ShedDelta: 1}},
		{"missing", Signals{Live: 3, Idle: 1, DrainTime: 0.1, MissDelta: 2}},
		{"queue-hot", Signals{Live: 3, Idle: 1, DrainTime: 2.0, TotalBacklog: 2.0}},
	}
	for _, g := range guards {
		c := New(p)
		for i := 0; i < 3*p.UnderTicks; i++ {
			if d := c.Decide(g.s); d.Verdict == ScaleIn {
				t.Errorf("%s: scaled in at tick %d: %+v", g.name, i, d)
				break
			}
		}
	}
}

// The flapping test ISSUE 9 names: a square-wave load alternating hot and
// cold faster than the debounce window must not produce an action per
// half-period. The hysteretic controller acts a bounded number of times; a
// degenerate single-tick controller flaps on nearly every edge.
func TestSquareWaveFlappingPrevention(t *testing.T) {
	hot := Signals{Live: 4, DrainTime: 3.0, TotalBacklog: 12.0}
	cold := Signals{Live: 4, Idle: 2, DrainTime: 0.05, TotalBacklog: 0.1}
	// 200 ticks of period-4 square wave: 2 hot, 2 cold — each phase shorter
	// than the debounce the test policy requires (OverTicks 2 is met exactly
	// at the last hot tick, UnderTicks 3 never inside a cold phase).
	wave := func(c *Controller, overTicks, underTicks int) (actions int) {
		for i := 0; i < 200; i++ {
			s := cold
			if i%4 < 2 {
				s = hot
			}
			if d := c.Decide(s); d.Verdict != Hold {
				actions++
			}
		}
		return actions
	}

	p := testPolicy()
	p.OverTicks, p.UnderTicks, p.CooldownTicks = 3, 4, 4
	damped := wave(New(p), p.OverTicks, p.UnderTicks)
	if damped != 0 {
		t.Errorf("hysteretic controller acted %d times on a sub-debounce square wave, want 0", damped)
	}

	// The same wave through a trigger-happy tuning (no debounce, no
	// cooldown) flaps — this is the failure mode the bands exist to prevent,
	// pinned so the comparison stays honest.
	trigger := testPolicy()
	trigger.OverTicks, trigger.UnderTicks, trigger.CooldownTicks = 1, 1, -1 // -1 → clamped to 0
	flappy := wave(New(trigger), 1, 1)
	if flappy < 50 {
		t.Errorf("degenerate controller acted only %d times; square wave should make it flap", flappy)
	}
}

// Decide is a pure function of policy and signal sequence: two controllers
// fed the same sequence produce identical decisions — the unit-level half
// of the fleet's byte-identical replay guarantee.
func TestControllerDeterminism(t *testing.T) {
	seq := []Signals{
		{Live: 2, DrainTime: 2.0, TotalBacklog: 4.0},
		{Live: 2, DrainTime: 2.5, TotalBacklog: 5.0},
		{Live: 2, Arriving: 1, DrainTime: 1.8, TotalBacklog: 3.6},
		{Live: 3, DrainTime: 0.1, TotalBacklog: 0.2, Idle: 1},
		{Live: 3, DrainTime: 0.1, TotalBacklog: 0.2, Idle: 1},
		{Live: 3, DrainTime: 0.1, TotalBacklog: 0.2, Idle: 2},
		{Live: 3, DrainTime: 0.1, TotalBacklog: 0.2, Idle: 2},
		{Live: 2, DrainTime: 3.0, TotalBacklog: 6.0, ShedDelta: 1},
	}
	a, b := New(testPolicy()), New(testPolicy())
	for i, s := range seq {
		da, db := a.Decide(s), b.Decide(s)
		if da != db {
			t.Fatalf("tick %d diverged: %+v vs %+v", i, da, db)
		}
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{Hold: "hold", ScaleOut: "scale-out", ScaleIn: "scale-in", Verdict(9): "verdict(9)"} {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}
