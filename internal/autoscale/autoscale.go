// Package autoscale closes the loop the paper leaves open: its cost-vs-
// latency Pareto frontiers price a *fixed* chip budget, but a fleet serving
// bursty Zipf traffic through crashes and stragglers has to re-spend that
// budget continuously. The Controller here is the deterministic control law
// the fleet simulator runs at every control tick: read the pressure signals
// the serving stack already exports (perf-model backlog drain times, shed
// and deadline-miss deltas, replica health), decide scale-out / scale-in /
// hold per pool, and damp the decision with hysteresis so bursty traffic
// does not turn the fleet into a flapping thermostat.
//
// Three properties matter more than cleverness:
//
//   - Deterministic: Decide is a pure function of the Policy and the tick's
//     Signals plus a few integer counters — the same trace, fault plan, and
//     policy replay to byte-identical fleets.
//   - Perf-model-driven: the scale-out test is a payback check in seconds,
//     not a utilization rule of thumb. A new replica costs ProvisionDelay +
//     WarmupCost seconds before it does useful work; the controller adds it
//     only when the pool's excess backlog (drain time beyond the low
//     watermark, summed over live replicas) already exceeds that cost — so
//     the replica is provably repaid within the horizon the backlog
//     represents.
//   - Health-aware: Recovering and still-provisioning replicas count as
//     capacity about to return (no double scale-out while one is warming),
//     and scale-in never fires during a brownout or while a previous drain
//     is still in flight.
package autoscale

import (
	"fmt"
	"math"
)

// Policy is the control law's tuning. The zero value is invalid; New fills
// unset fields with the defaults noted per field, chosen for the simulated
// PaLM-540B fleet's timescales (tens-of-milliseconds iterations, seconds-
// long traces).
type Policy struct {
	// Interval is the control tick period in seconds (default 0.25). Ticks
	// are first-class events in the fleet's heap, at the same granularity as
	// arrivals and faults, so autoscaled runs replay deterministically.
	Interval float64
	// MinReplicas / MaxReplicas bound each pool's size, provisioning
	// replicas included (defaults 1 and 8). In a disaggregated fleet the
	// bounds apply to the prefill and decode pools independently.
	MinReplicas, MaxReplicas int
	// ScaleOutAbove is the high watermark: a pool whose worst per-replica
	// backlog drain time exceeds it is under pressure (default 1.5 s).
	ScaleOutAbove float64
	// ScaleInBelow is the low watermark: a pool whose *mean* per-replica
	// backlog drain is under it has slack (default 0.25 s). The mean, not
	// the max: in a drain-down tail one replica may still hold seconds of
	// pinned work while its idle peers are pure surplus — the pool has
	// slack even though its worst replica does not. The gap between the
	// bands is the first hysteresis defense; keep ScaleInBelow well under
	// ScaleOutAbove.
	ScaleInBelow float64
	// OverTicks / UnderTicks are how many *consecutive* ticks a band must be
	// breached before the controller acts (defaults 2 and 4) — the second
	// hysteresis defense. A one-tick spike from a burst admission never
	// scales; a sustained breach does.
	OverTicks, UnderTicks int
	// CooldownTicks is how many ticks the controller holds after any action
	// (default 4) — the third defense, covering the dead time while a
	// provisioned replica warms or a drained one empties. Negative means no
	// cooldown at all (the degenerate tuning the flapping tests measure
	// against); zero takes the default.
	CooldownTicks int
	// ProvisionDelay is the seconds between a scale-out decision and the new
	// replica accepting work (default 0.5): container start, weight load.
	ProvisionDelay float64
	// WarmupCost is the additional seconds of work a cold replica wastes
	// before it pulls its weight — the prefix cache it must re-warm, the
	// first cold template prefills (default 0.25).
	WarmupCost float64
}

// withDefaults returns the policy with unset fields filled in.
func (p Policy) withDefaults() Policy {
	if p.Interval <= 0 {
		p.Interval = 0.25
	}
	if p.MinReplicas < 1 {
		p.MinReplicas = 1
	}
	if p.MaxReplicas < p.MinReplicas {
		p.MaxReplicas = p.MinReplicas + 7
	}
	if p.ScaleOutAbove <= 0 {
		p.ScaleOutAbove = 1.5
	}
	if p.ScaleInBelow <= 0 {
		p.ScaleInBelow = 0.25
	}
	if p.ScaleInBelow >= p.ScaleOutAbove {
		p.ScaleInBelow = p.ScaleOutAbove / 4
	}
	if p.OverTicks < 1 {
		p.OverTicks = 2
	}
	if p.UnderTicks < 1 {
		p.UnderTicks = 4
	}
	if p.CooldownTicks < 0 {
		p.CooldownTicks = 0
	} else if p.CooldownTicks == 0 {
		p.CooldownTicks = 4
	}
	if p.ProvisionDelay <= 0 {
		p.ProvisionDelay = 0.5
	}
	if p.WarmupCost <= 0 {
		p.WarmupCost = 0.25
	}
	return p
}

// Validate rejects non-finite or nonsensical tunings (set fields only; zero
// fields default). It is the fleet's pre-flight check, mirroring
// faults.Plan.Validate.
func (p Policy) Validate() error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }
	switch {
	case bad(p.Interval), bad(p.ScaleOutAbove), bad(p.ScaleInBelow),
		bad(p.ProvisionDelay), bad(p.WarmupCost):
		return fmt.Errorf("autoscale: non-finite or negative policy field: %+v", p)
	case p.MinReplicas < 0 || p.MaxReplicas < 0:
		return fmt.Errorf("autoscale: negative replica bound: min %d max %d", p.MinReplicas, p.MaxReplicas)
	case p.MaxReplicas > 0 && p.MinReplicas > p.MaxReplicas:
		return fmt.Errorf("autoscale: min replicas %d above max %d", p.MinReplicas, p.MaxReplicas)
	case p.ScaleOutAbove > 0 && p.ScaleInBelow > 0 && p.ScaleInBelow >= p.ScaleOutAbove:
		return fmt.Errorf("autoscale: scale-in band %g not below scale-out band %g (hysteresis gap required)",
			p.ScaleInBelow, p.ScaleOutAbove)
	case p.OverTicks < 0 || p.UnderTicks < 0:
		return fmt.Errorf("autoscale: negative debounce: over %d under %d", p.OverTicks, p.UnderTicks)
	}
	return nil
}

// Signals is one pool's state at a control tick, as the fleet measures it.
type Signals struct {
	// Live counts replicas currently accepting work (Healthy, Degraded, or
	// Recovering — a Recovering replica serves, just cold).
	Live int
	// Arriving counts capacity about to return without the controller's
	// help: replicas still provisioning from an earlier scale-out plus
	// crashed replicas whose recovery is scheduled. While Arriving > 0 the
	// controller does not scale out again.
	Arriving int
	// Draining counts replicas mid-drain (fault-injected or a previous
	// scale-in); while one is draining the controller does not scale in.
	Draining int
	// DrainTime is the pool's pressure signal: the worst per-replica backlog
	// drain estimate in seconds, from the perf model (batching.Snapshot).
	DrainTime float64
	// TotalBacklog is the sum of per-replica drain estimates — the pool's
	// backlog in replica-seconds, the quantity the payback check spends.
	TotalBacklog float64
	// Idle counts live replicas with zero backlog — the preferred scale-in
	// victims (informational: the executor drains the emptiest replica
	// gracefully either way).
	Idle int
	// ShedDelta / MissDelta count SLO sheds and deadline misses since the
	// previous tick: nonzero means the pool is already failing its SLO, and
	// pressure is treated as breached regardless of DrainTime.
	ShedDelta, MissDelta int
	// Brownout reports the fleet is below its live-replica watermark —
	// immediate pressure, and an absolute bar on scaling in.
	Brownout bool
}

// Verdict is a Decision's direction.
type Verdict int

const (
	// Hold keeps the pool's size.
	Hold Verdict = iota
	// ScaleOut provisions one replica.
	ScaleOut
	// ScaleIn drains and releases one replica.
	ScaleIn
)

// String names the verdict for reports and scale-event logs.
func (v Verdict) String() string {
	switch v {
	case Hold:
		return "hold"
	case ScaleOut:
		return "scale-out"
	case ScaleIn:
		return "scale-in"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Decision is one tick's output for one pool.
type Decision struct {
	Verdict Verdict
	// Reason is a short human-readable account of why ("backlog 3.2s over
	// 1.5s for 2 ticks, payback 1.9s > 0.75s cost"); empty for Hold without
	// a story.
	Reason string
}

// Controller runs the control law for one pool. It is deliberately tiny
// state: three integer counters over a fixed Policy, so replaying a trace
// replays the decisions.
type Controller struct {
	p Policy
	// over / under count consecutive ticks beyond each band.
	over, under int
	// cooldown counts ticks remaining before the next action may fire.
	cooldown int
}

// New returns a controller with the policy's unset fields defaulted.
func New(p Policy) *Controller { return &Controller{p: p.withDefaults()} }

// Policy returns the effective (defaulted) policy.
func (c *Controller) Policy() Policy { return c.p }

// Decide advances the controller one tick and returns the pool's decision.
// The law, in order:
//
//  1. Pressure is breached when the worst backlog drain exceeds the high
//     watermark, or the pool is already shedding / missing deadlines /
//     browned out. Slack requires the mean per-replica drain under the low
//     watermark AND none of those distress signals (mean, not max: pinned
//     work on one replica does not make its idle peers load-bearing).
//  2. Consecutive-tick counters debounce both: OverTicks breaches arm
//     scale-out, UnderTicks slack ticks arm scale-in. Any non-breach resets
//     the over counter (and vice versa), so oscillating load re-arms from
//     zero — the flapping defense the square-wave test pins.
//  3. Cooldown after any action holds the pool while the action lands.
//  4. Scale-out additionally requires: headroom under MaxReplicas, no
//     capacity already arriving (Recovering or provisioning replicas are
//     capacity about to return, not missing), and the payback check — the
//     backlog beyond what the pool can carry at the high watermark must
//     exceed the new replica's ProvisionDelay+WarmupCost, so the warm-up is
//     repaid from work the current fleet provably cannot absorb. A brownout
//     with zero measured backlog still scales out: lost capacity is its own
//     evidence.
//  5. Scale-in additionally requires: the pool stays at or above
//     MinReplicas, no drain already in flight, and no brownout. The release
//     itself is graceful — the executor drains the victim's queue to its
//     peers and lets resident work finish before the replica leaves — so an
//     idle victim is preferred but not required.
func (c *Controller) Decide(s Signals) Decision {
	p := c.p
	distress := s.ShedDelta > 0 || s.MissDelta > 0 || s.Brownout
	breach := distress || s.DrainTime > p.ScaleOutAbove
	mean := s.TotalBacklog / float64(max(s.Live, 1))
	slack := !distress && mean < p.ScaleInBelow
	if breach {
		c.over++
	} else {
		c.over = 0
	}
	if slack {
		c.under++
	} else {
		c.under = 0
	}
	if c.cooldown > 0 {
		c.cooldown--
		return Decision{Verdict: Hold, Reason: "cooldown"}
	}
	size := s.Live + s.Arriving + s.Draining
	if c.over >= p.OverTicks {
		switch {
		case size >= p.MaxReplicas:
			return Decision{Verdict: Hold, Reason: fmt.Sprintf("pressure, but at max %d replicas", p.MaxReplicas)}
		case s.Arriving > 0:
			return Decision{Verdict: Hold, Reason: fmt.Sprintf("pressure, but %d replica(s) already arriving", s.Arriving)}
		}
		cost := p.ProvisionDelay + p.WarmupCost
		excess := s.TotalBacklog - p.ScaleOutAbove*float64(max(s.Live, 1))
		if excess < cost && !s.Brownout {
			return Decision{Verdict: Hold, Reason: fmt.Sprintf(
				"pressure, but excess backlog %.2fs under warm-up cost %.2fs (not repaid)", excess, cost)}
		}
		c.over, c.under = 0, 0
		c.cooldown = p.CooldownTicks
		return Decision{Verdict: ScaleOut, Reason: fmt.Sprintf(
			"drain %.2fs > %.2fs (shed %d, miss %d, brownout %v); excess backlog %.2fs repays %.2fs warm-up",
			s.DrainTime, p.ScaleOutAbove, s.ShedDelta, s.MissDelta, s.Brownout, excess, cost)}
	}
	if c.under >= p.UnderTicks {
		switch {
		case size <= p.MinReplicas:
			return Decision{Verdict: Hold, Reason: fmt.Sprintf("slack, but at min %d replicas", p.MinReplicas)}
		case s.Draining > 0:
			return Decision{Verdict: Hold, Reason: "slack, but a drain is already in flight"}
		}
		c.over, c.under = 0, 0
		c.cooldown = p.CooldownTicks
		return Decision{Verdict: ScaleIn, Reason: fmt.Sprintf(
			"mean drain %.2fs < %.2fs for %d ticks, %d idle of %d live", mean, p.ScaleInBelow, p.UnderTicks, s.Idle, s.Live)}
	}
	return Decision{Verdict: Hold}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
