// Package faults defines deterministic fault plans for the fleet simulator:
// scheduled replica crashes and recoveries, graceful drains, straggler
// slowdown windows, and handoff-link outages. A Plan is data, not behavior —
// the fleet's event loop injects each Event into its heap as a first-class
// event, moves the replica through its lifecycle (package fleet owns the
// stages) and reacts per its recovery policy — so the same plan replayed
// against the same configuration and trace produces byte-identical results,
// which is what makes goodput-under-faults a measurable, assertable number
// rather than an anecdote.
//
// Plans come from three places: the chainable builders (Crash, Drain,
// Straggle, LinkFail) for hand-written scenarios, Parse for the compact
// command-line syntax estiserve accepts, and RandomPlan for seeded property
// tests and fuzzing.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind discriminates fault events.
type Kind int

const (
	// Crash takes the replica Down instantly: every occupied slot's KV and
	// every queued request is lost and must be re-routed or failed.
	Crash Kind = iota
	// Recover brings a Down replica back (cold) or cancels a Drain.
	Recover
	// Drain is the graceful shutdown: queued work re-routes immediately,
	// in-flight sequences finish locally, then the replica goes Down.
	Drain
	// SlowStart turns the replica into a straggler: iteration times (and
	// finish estimates) stretch by Factor until SlowEnd.
	SlowStart
	// SlowEnd restores full speed.
	SlowEnd
	// LinkDown severs the prefill→decode handoff interconnect: completed
	// prefills buffer at the sender until LinkUp (or fail at end of run).
	LinkDown
	// LinkUp restores the handoff interconnect and flushes buffered
	// transfers.
	LinkUp
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Drain:
		return "drain"
	case SlowStart:
		return "slow-start"
	case SlowEnd:
		return "slow-end"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	// At is the simulation time the fault fires.
	At float64
	// Kind selects the fault.
	Kind Kind
	// Replica indexes the affected replica in the fleet's replica order
	// (unified replicas 0..N-1; in disaggregated mode the prefill pool
	// first, then the decode pool). -1 for link events.
	Replica int
	// Factor is the SlowStart iteration-time multiplier (> 1).
	Factor float64
}

// Plan is an ordered set of fault events. The zero value is the fault-free
// plan.
type Plan struct {
	Events []Event
}

// Crash schedules a crash of replica at time at; if recoverAt > at, the
// replica recovers (cold) at recoverAt, otherwise it stays down. Returns the
// plan for chaining.
func (p *Plan) Crash(replica int, at, recoverAt float64) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: Crash, Replica: replica})
	if recoverAt > at {
		p.Events = append(p.Events, Event{At: recoverAt, Kind: Recover, Replica: replica})
	}
	return p
}

// Drain schedules a graceful drain of replica at time at; if recoverAt > at
// the drained replica comes back at recoverAt.
func (p *Plan) Drain(replica int, at, recoverAt float64) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: Drain, Replica: replica})
	if recoverAt > at {
		p.Events = append(p.Events, Event{At: recoverAt, Kind: Recover, Replica: replica})
	}
	return p
}

// Straggle slows replica by factor over [from, until) (until <= from means
// the slowdown never lifts).
func (p *Plan) Straggle(replica int, from, until, factor float64) *Plan {
	p.Events = append(p.Events, Event{At: from, Kind: SlowStart, Replica: replica, Factor: factor})
	if until > from {
		p.Events = append(p.Events, Event{At: until, Kind: SlowEnd, Replica: replica})
	}
	return p
}

// LinkFail severs the handoff link over [from, until) (until <= from means
// it never recovers).
func (p *Plan) LinkFail(from, until float64) *Plan {
	p.Events = append(p.Events, Event{At: from, Kind: LinkDown, Replica: -1})
	if until > from {
		p.Events = append(p.Events, Event{At: until, Kind: LinkUp, Replica: -1})
	}
	return p
}

// Validate checks every event against a fleet of the given replica count:
// times must be finite and non-negative, replica indices in range (or -1 for
// link events), slowdown factors finite and > 1.
func (p Plan) Validate(replicas int) error {
	for i, e := range p.Events {
		if math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0 {
			return fmt.Errorf("faults: event %d (%s) at non-finite or negative time %g", i, e.Kind, e.At)
		}
		switch e.Kind {
		case Crash, Recover, Drain, SlowStart, SlowEnd:
			if e.Replica < 0 || e.Replica >= replicas {
				return fmt.Errorf("faults: event %d (%s) targets replica %d of %d", i, e.Kind, e.Replica, replicas)
			}
		case LinkDown, LinkUp:
			// link events carry no replica
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
		if e.Kind == SlowStart && (math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) || e.Factor <= 1) {
			return fmt.Errorf("faults: event %d slow-start factor %g (want finite > 1)", i, e.Factor)
		}
	}
	return nil
}

// Sorted returns the events ordered by time, ties kept in insertion order —
// the deterministic injection order the fleet's event heap preserves via
// sequence numbers.
func (p Plan) Sorted() []Event {
	out := make([]Event, len(p.Events))
	copy(out, p.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// RandomPlan builds a seeded random (but deterministic) plan over a fleet of
// the given size and a time horizon: per replica an optional crash (usually
// recovered), an optional straggler window, an optional drain, plus an
// optional handoff-link outage. Identical seeds produce identical plans —
// the property-test and fuzzing entry point.
func RandomPlan(seed int64, replicas int, horizon float64) Plan {
	rng := rand.New(rand.NewSource(seed))
	var p Plan
	if replicas < 1 || horizon <= 0 {
		return p
	}
	u := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	for r := 0; r < replicas; r++ {
		switch roll := rng.Float64(); {
		case roll < 0.35:
			at := u(0.05, 0.7) * horizon
			rec := -1.0
			if rng.Float64() < 0.7 {
				rec = at + u(0.05, 0.4)*horizon
			}
			p.Crash(r, at, rec)
		case roll < 0.50:
			at := u(0.05, 0.6) * horizon
			p.Drain(r, at, at+u(0.1, 0.4)*horizon)
		case roll < 0.75:
			from := u(0.05, 0.6) * horizon
			until := -1.0
			if rng.Float64() < 0.8 {
				until = from + u(0.1, 0.4)*horizon
			}
			p.Straggle(r, from, until, u(1.5, 5))
		}
	}
	if rng.Float64() < 0.3 {
		from := u(0.1, 0.6) * horizon
		until := -1.0
		if rng.Float64() < 0.8 {
			until = from + u(0.05, 0.3)*horizon
		}
		p.LinkFail(from, until)
	}
	return p
}
