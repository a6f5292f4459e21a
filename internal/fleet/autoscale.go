package fleet

// Autoscaling: the control loop that re-spends the chip budget mid-trace.
// Config.Autoscale arms a deterministic autoscale.Controller in each pool
// (the unified pool, or the prefill and decode pools independently);
// control ticks are first-class events in the same heap as arrivals and
// faults, so an autoscaled run replays byte-identically under the same
// seed. Each tick measures every pool once from the signals the serving
// stack already exports — per-replica backlog drain estimates from the perf
// model, queue depths, health states, and for the arrival pool the
// shed/miss deltas and the brownout watermark — then each pool's
// controller decides and its verdict is executed on that pool: scale-out
// provisions a cold replica from the pool's blueprint that joins
// recovering after ProvisionDelay, scale-in picks the pool's emptiest
// replica and retires it through the drain path (resident KV finishes
// before the release).

import (
	"esti/internal/autoscale"
	"esti/internal/batching"
	"esti/internal/faults"
)

// ScaleEvent records one autoscale action for the run's audit trail.
type ScaleEvent struct {
	// T is the control tick's simulation time.
	T float64
	// Pool is "unified", "prefill", or "decode".
	Pool string
	// Verdict is "scale-out" or "scale-in".
	Verdict string
	// Replica is the stable index of the replica added or released.
	Replica int
	// Reason is the controller's account of the decision.
	Reason string
}

// TickStat is one control tick's fleet snapshot — the per-tick stats the
// autoscaler decided on, kept so a run's scaling story can be replayed
// against its load.
type TickStat struct {
	T float64
	// Live / Provisioning / Draining count replicas by lifecycle stage
	// (retired replicas are gone and not counted).
	Live, Provisioning, Draining int
	// QueueDepth is the fleet's total pending request count.
	QueueDepth int
	// DrainP50 / DrainMax summarize the live replicas' backlog drain
	// estimates in seconds (perf-model time to empty, straggler-adjusted).
	DrainP50, DrainMax float64
}

// initAutoscale validates the policy and arms one controller per pool.
// Called from newSim.
func (s *sim) initAutoscale() error {
	if s.c.Autoscale == nil {
		return nil
	}
	if err := s.c.Autoscale.Validate(); err != nil {
		return err
	}
	for _, p := range s.pools {
		p.ctl = autoscale.New(*s.c.Autoscale)
	}
	pol := s.pools[0].ctl.Policy()
	s.auto = &pol
	// Recover events scheduled in the fault plan are capacity about to
	// return: the controller must not scale out over a crash the plan is
	// about to heal.
	s.recovers = map[int]float64{}
	for _, f := range s.c.Faults.Sorted() {
		if f.Kind == faults.Recover {
			s.recovers[f.Replica] = f.At
		}
	}
	return nil
}

// tick runs one control interval: measure every pool, then let each pool's
// controller decide and execute its verdict, and schedule the next tick
// while the run still has work in flight. Measuring all pools first is
// safe: a verdict on one pool moves only that pool's replicas (a scale-in's
// evicted requests re-route through events).
func (s *sim) tick(t float64) {
	sigs := s.measure(t)
	for i, p := range s.pools {
		if p.ctl == nil {
			continue
		}
		switch d := p.ctl.Decide(sigs[i]); d.Verdict {
		case autoscale.ScaleOut:
			s.scaleOut(t, p, d.Reason)
		case autoscale.ScaleIn:
			s.scaleIn(t, p, d.Reason)
		}
	}
	s.prevShed = s.res.Shed + s.res.ShedRetry
	s.prevMiss = s.res.DeadlineMisses + s.res.Failed
	// Handoffs buffered on a link that nothing is left to bring back are
	// stranded, as run() finds them in a fleet without ticks: fail them now
	// (their retries are queued events) rather than tick over them forever.
	if len(s.events) == 0 && len(s.held) > 0 && !s.anyBusy() {
		s.failHeld()
	}
	// The loop stays alive only while something can still happen: queued
	// events (arrivals, retries, provisions) or busy replicas. An idle fleet
	// schedules no next tick, so the simulation terminates exactly like a
	// static run.
	if len(s.events) > 0 || s.anyBusy() {
		s.events.push(event{t: t + s.auto.Interval, seq: s.nextSeq(), kind: evTick})
	}
}

func (s *sim) anyBusy() bool {
	for _, rep := range s.all {
		if rep.stage.up() && rep.s.Busy() {
			return true
		}
	}
	return false
}

// measure reads one control tick: each pool's controller signals (the
// router's shed and miss deltas and the brownout flag go to the first pool,
// where arrivals land) and the fleet's TickStat, appended to
// Result.TickStats. Each live replica's backlog is snapshotted once.
func (s *sim) measure(t float64) []autoscale.Signals {
	ts := TickStat{T: t}
	var drains []float64
	sigs := make([]autoscale.Signals, len(s.pools))
	for i, p := range s.pools {
		sig := &sigs[i]
		for _, rep := range p.reps {
			switch rep.stage {
			case provisioning:
				sig.Arriving++
				ts.Provisioning++
			case down:
				if s.recovers[rep.idx] > t {
					sig.Arriving++
				}
			case draining, retiring:
				// A release still draining its resident work counts as the
				// in-flight drain (one at a time); a retired one is gone.
				sig.Draining++
				ts.Draining++
			case healthy, degraded, recovering:
				sig.Live++
				ts.Live++
				b := rep.s.Snapshot()
				sig.DrainTime = max(sig.DrainTime, b.DrainTime)
				sig.TotalBacklog += b.DrainTime
				ts.QueueDepth += b.Pending
				drains = append(drains, b.DrainTime)
				// Recovering replicas are live capacity but not release
				// candidates: the fleet just paid their warm-up.
				if !rep.s.Busy() && b.Pending == 0 && rep.stage != recovering {
					sig.Idle++
				}
			}
		}
	}
	sigs[0].ShedDelta = s.res.Shed + s.res.ShedRetry - s.prevShed
	sigs[0].MissDelta = s.res.DeadlineMisses + s.res.Failed - s.prevMiss
	sigs[0].Brownout = s.brownout()
	ts.DrainP50 = batching.Percentile(drains, 0.50)
	ts.DrainMax = batching.Percentile(drains, 1)
	s.res.TickStats = append(s.res.TickStats, ts)
	return sigs
}

// scaleOut provisions one replica into pool p. The replica is appended —
// indices are stable for the run — and joins provisioning; after
// ProvisionDelay an evScaleReady event moves it to recovering, where it
// serves with a stone-cold prefix cache until its first completed work (the
// warm-up cost the controller's payback check already priced in).
func (s *sim) scaleOut(t float64, p *pool, reason string) {
	rep, err := s.addReplica(p, onScaleOut, t)
	if err != nil {
		// The blueprint built N replicas at newSim; it cannot fail now.
		return
	}
	s.res.ScaleEvents = append(s.res.ScaleEvents, ScaleEvent{
		T: t, Pool: p.name, Verdict: autoscale.ScaleOut.String(),
		Replica: rep.idx, Reason: reason,
	})
	s.events.push(event{t: t + s.auto.ProvisionDelay, seq: s.nextSeq(), kind: evScaleReady, from: rep})
}

// scaleIn retires one replica of pool p through the graceful-drain path:
// its queued requests re-route to peers, its resident slots finish locally,
// and only then does the replica leave the fleet — the same machinery a
// fault-injected Drain uses, so run()'s drained-dry check completes the
// release. The victim is the emptiest healthy or degraded replica (ties to
// the newest, so autoscaled capacity releases before the initial fleet and
// fault-plan indices stay meaningful). Retired replicas keep their index —
// stats stay addressable — but never serve or count again.
func (s *sim) scaleIn(t float64, p *pool, reason string) {
	live := 0
	var victim *replica
	for _, rep := range p.reps {
		if rep.stage.routable() {
			live++
		}
		if rep.stage != healthy && rep.stage != degraded {
			continue
		}
		if victim == nil || s.effLoad(rep) < s.effLoad(victim) ||
			(s.effLoad(rep) == s.effLoad(victim) && rep.idx > victim.idx) {
			victim = rep
		}
	}
	// Never release the last live replica of a decode pool: that would trip
	// the unified fallback.
	if victim == nil || p != s.pools[0] && live <= 1 {
		return
	}
	victim.move(onScaleIn, t)
	s.drain(victim, t)
	s.res.ScaleEvents = append(s.res.ScaleEvents, ScaleEvent{
		T: t, Pool: p.name, Verdict: autoscale.ScaleIn.String(),
		Replica: victim.idx, Reason: reason,
	})
}
