package fleet

// Fault handling: how the router reacts to the injected faults.Plan —
// crash/drain/straggle/link events, retries with capped exponential
// backoff, straggler hedging, brownout shedding, and the unified-serving
// fallback when the decode pool dies.

import (
	"fmt"
	"math"

	"esti/internal/batching"
	"esti/internal/faults"
)

// Recovery constants: a request whose last copy is lost re-routes up to
// three times, after a backoff of 50 ms doubling per attempt to a 1 s cap.
// A disaggregated fleet falls back to unified serving once no decode
// replica is live.
const (
	maxRetries = 3
	backoff    = 0.05
	backoffCap = 1.0
)

// RecoveryPolicy tunes the router's fault handling. The zero value is the
// health-aware router with hedging on and no brownout.
type RecoveryPolicy struct {
	// Naive selects the health-blind baseline that measures what the fault
	// machinery is worth: crashed replicas keep receiving traffic and
	// silently eat their queues, lost requests are never retried, and no
	// hedging, brownout or fallback happens — the failure mode the fault
	// layer exists to prevent, kept runnable so the difference is
	// measurable.
	Naive bool
	// NoHedge disables straggler hedging. By default, when a replica
	// degrades, every request it holds is duplicated once to the best
	// other live replica; the first completed copy wins and the loser's
	// tokens are booked as wasted work under ErrHedged.
	NoHedge bool
	// BrownoutBelow sheds Priority<=0 arrivals with ErrOverloaded while
	// the live ingress-replica fraction is below this watermark (0 =
	// disabled; NaN or above 1 is invalid). High-tier traffic is never
	// brownout-shed: capacity contracts around it.
	BrownoutBelow float64
}

// applyFault moves the replica (or sets the link state) for one scheduled
// fault event, re-routing or hedging work as the move demands. An event the
// replica's stage does not take changes nothing.
func (s *sim) applyFault(e event) {
	f := e.fault
	switch f.Kind {
	case faults.LinkDown:
		s.linkDown = true
		return
	case faults.LinkUp:
		s.linkDown = false
		held := s.held
		s.held = nil
		// Buffered transfers go out back-to-back now that the link is up.
		for _, h := range held {
			h.t = e.t + s.handoffDelay(h.req)
			h.seq = s.nextSeq()
			s.events.push(h)
		}
		return
	}
	rep := s.all[f.Replica]
	if !rep.move(faultEvent[f.Kind], e.t) {
		return
	}
	switch f.Kind {
	case faults.Crash:
		// The replica's entire state is lost: every resident request's KV
		// and tokens go to the wasted ledger, and each request whose last
		// copy died is retried (or failed). In-flight handoffs it already
		// sent survive — the exported KV is self-contained, exactly like
		// an engine.SlotKV, a deep copy.
		rep.stats.Crashes++
		for _, lw := range rep.s.Crash() {
			delete(s.origin, lw.Req)
			if s.lose(lw.Req, rep, batching.ErrReplicaDown, lw.Prefilled, lw.Decoded) {
				s.retryOrFail(s.states[lw.Req], e.t)
			}
		}
		s.checkFallback()
	case faults.Drain:
		s.drain(rep, e.t)
	case faults.Recover:
		// A recovered replica restarts its clock; a cancelled drain is
		// busy, so its clock is already past e.t.
		rep.s.AdvanceTo(e.t)
	case faults.SlowStart:
		rep.s.SetSlowdown(f.Factor)
		s.hedgeStraggler(rep, e.t)
	case faults.SlowEnd:
		rep.s.SetSlowdown(1)
	}
}

// faultEvent is the lifecycle event of each replica fault.
var faultEvent = map[faults.Kind]lifeEvent{faults.Crash: onCrash, faults.Drain: onDrain,
	faults.Recover: onRecover, faults.SlowStart: onSlowStart, faults.SlowEnd: onSlowEnd}

// drain empties a replica just moved to draining or retiring: its queued
// requests re-route now, and its resident slots finish locally. Once it runs
// dry (now, or in run()) the drain ends, losing nothing: the replica goes
// down, or an autoscale release retires — the moment its capacity is handed
// back, so its lifetime window closes there, not at the scale-in decision.
func (s *sim) drain(rep *replica, t float64) {
	for _, r := range rep.s.EvictQueued() {
		if s.lose(r, rep, nil, 0, 0) {
			s.reroute(r, t)
		}
	}
	if !rep.s.Busy() {
		rep.move(onDrained, t)
		s.checkFallback()
	}
}

// retryOrFail re-routes a request whose last live copy was just lost:
// capped exponential backoff, then it re-enters the router (which sheds it
// as ErrDeadline if the SLO is already unmeetable). With retries exhausted
// — or under the naive policy, immediately — the request fails for good as
// ErrReplicaDown.
func (s *sim) retryOrFail(st *reqState, t float64) {
	if st.firstLoss < 0 {
		st.firstLoss = t
	}
	if s.c.Recovery.Naive || st.attempts >= maxRetries {
		s.settle(st, -1, fmt.Errorf("fleet: %w: request %d lost after %d retries",
			batching.ErrReplicaDown, st.orig.ID, st.attempts))
		return
	}
	st.attempts++
	s.res.Retries++
	s.reroute(st.orig, t+math.Min(backoff*math.Pow(2, float64(st.attempts-1)), backoffCap))
}

// hedgeStraggler duplicates every request stuck on a newly degraded replica
// to the least-loaded other serving, non-degraded replica of the first pool
// (once per request): first completed copy wins, the loser's tokens become
// wasted work. Warm-template duplicates recover cheaply through the
// target's prefix cache.
func (s *sim) hedgeStraggler(rep *replica, t float64) {
	if s.c.Recovery.Naive || s.c.Recovery.NoHedge {
		return
	}
	for _, r := range rep.s.Requests() {
		st := s.states[r]
		if st.done || st.hedged || st.live > 1 {
			continue
		}
		// Hedging onto another straggler would duplicate the problem, not
		// race it.
		tgt := s.least(s.pools[0].reps, func(c *replica) bool {
			return c != rep && c.stage.routable() && c.stage != degraded
		})
		if tgt == nil {
			continue
		}
		clone := *st.orig
		clone.Slot = -1
		clone.Admitted, clone.Done = 0, 0
		cp := &clone
		s.states[cp] = st
		st.hedged = true
		st.live++
		s.res.Hedges++
		tgt.s.AdvanceTo(t)
		tgt.s.Enqueue(cp)
		tgt.stats.Routed++
	}
}

// brownout reports whether low-tier arrivals should be shed: the live
// ingress fraction is below the configured watermark.
func (s *sim) brownout() bool {
	w := s.c.Recovery.BrownoutBelow
	if s.c.Recovery.Naive || w <= 0 {
		return false
	}
	live, total := s.liveFraction()
	return float64(live) < w*float64(total)
}

// liveFraction counts routable ingress replicas out of the total. Retiring
// and retired replicas are leaving (a scaled-in fleet is smaller, not
// browner), and provisioning ones are not yet capacity — none may depress
// the brownout fraction.
func (s *sim) liveFraction() (live, total int) {
	for _, rep := range s.pools[0].reps {
		switch rep.stage {
		case healthy, degraded, recovering:
			live++
			total++
		case draining, down:
			total++
		}
	}
	return live, total
}

// checkFallback converts the prefill pool to unified serving once no decode
// replica is live — graceful degradation instead of a fleet that prefills
// forever and decodes nothing. One-way for the run: the decode pool's
// controller stops with it.
func (s *sim) checkFallback() {
	in := s.pools[0]
	if !in.prefill || s.c.Recovery.Naive {
		return
	}
	for _, rep := range s.pools[1].reps {
		if rep.stage.routable() {
			return
		}
	}
	in.prefill = false
	s.pools[1].ctl = nil
	for _, rep := range in.reps {
		rep.s.SetUnified()
		rep.stats.Role = in.role()
	}
}

// failHeld drops handoffs stranded on a link that never recovered: the
// transferred KV is wasted and each stranded request re-routes from
// scratch (prefill and all) or fails.
func (s *sim) failHeld() {
	held := s.held
	s.held = nil
	for _, h := range held {
		if s.lose(h.req, h.from, batching.ErrReplicaDown, h.req.Context, 1) {
			s.retryOrFail(s.states[h.req], s.lastT)
		}
	}
}
