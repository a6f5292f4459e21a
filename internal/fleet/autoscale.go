package fleet

// Autoscaling: the control loop that re-spends the chip budget mid-trace.
// Config.Autoscale arms a deterministic autoscale.Controller per pool
// (prefill and decode independently when disaggregated); control ticks are
// first-class events in the same heap as arrivals and faults, so an
// autoscaled run replays byte-identically under the same seed. Each tick
// reads the signals the serving stack already exports — per-replica backlog
// drain estimates from the perf model, queue depths, shed/miss deltas,
// health states, the brownout watermark — and the controller's verdict is
// executed here: scale-out provisions a cold replica that joins recovering
// after ProvisionDelay, scale-in picks the emptiest replica and retires it
// through the drain path (resident KV finishes before the release).

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

// initAutoscale validates and arms the controllers. Called from newSim.
func (s *sim) initAutoscale() error {
	if s.c.Autoscale == nil {
		return nil
	}
	if err := s.c.Autoscale.Validate(); err != nil {
		return err
	}
	s.ctlIngress = autoscale.New(*s.c.Autoscale)
	p := s.ctlIngress.Policy()
	s.auto = &p
	if s.c.disaggregated() {
		s.ctlDecode = autoscale.New(*s.c.Autoscale)
	}
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

// tick runs one control interval: snapshot, decide per pool, execute, and
// schedule the next tick while the run still has work in flight.
func (s *sim) tick(t float64) {
	s.recordTick(t)
	d := s.ctlIngress.Decide(s.poolSignals(t, s.ingress, true))
	s.executeVerdict(t, d, true)
	if s.ctlDecode != nil && !s.fallback {
		d := s.ctlDecode.Decide(s.poolSignals(t, s.decode, false))
		s.executeVerdict(t, d, false)
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

// poolSignals measures one pool for the controller.
func (s *sim) poolSignals(t float64, pool []*replica, ingress bool) autoscale.Signals {
	var sig autoscale.Signals
	for _, rep := range pool {
		switch rep.stage {
		case provisioning:
			sig.Arriving++
		case down:
			if s.recovers[rep.idx] > t {
				sig.Arriving++
			}
		case draining, retiring:
			// A release still draining its resident work counts as the
			// in-flight drain (one at a time); a retired one is gone.
			sig.Draining++
		case healthy, degraded, recovering:
			sig.Live++
			b := rep.s.Snapshot()
			if b.DrainTime > sig.DrainTime {
				sig.DrainTime = b.DrainTime
			}
			sig.TotalBacklog += b.DrainTime
			// Recovering replicas are live capacity but not release
			// candidates: the fleet just paid their warm-up.
			if !rep.s.Busy() && b.Pending == 0 && rep.stage != recovering {
				sig.Idle++
			}
		}
	}
	if ingress {
		sig.ShedDelta = s.res.Shed + s.res.ShedRetry - s.prevShed
		sig.MissDelta = s.res.DeadlineMisses + s.res.Failed - s.prevMiss
		sig.Brownout = s.brownout()
	}
	return sig
}

func (s *sim) executeVerdict(t float64, d autoscale.Decision, ingress bool) {
	switch d.Verdict {
	case autoscale.ScaleOut:
		s.scaleOut(t, ingress, d.Reason)
	case autoscale.ScaleIn:
		s.scaleIn(t, ingress, d.Reason)
	}
}

func (s *sim) poolName(ingress bool) string {
	if !s.c.disaggregated() {
		return "unified"
	}
	if ingress {
		return "prefill"
	}
	return "decode"
}

// scaleOut provisions one replica into the pool. The replica is appended —
// indices are stable for the run — and joins provisioning; after
// ProvisionDelay an evScaleReady event moves it to recovering, where it
// serves with a stone-cold prefix cache until its first completed work (the
// warm-up cost the controller's payback check already priced in).
func (s *sim) scaleOut(t float64, ingress bool, reason string) {
	rep, err := s.addReplica(ingress, onScaleOut, t)
	if err != nil {
		// The blueprint built N replicas at newSim; it cannot fail now.
		return
	}
	s.res.ScaleEvents = append(s.res.ScaleEvents, ScaleEvent{
		T: t, Pool: s.poolName(ingress), Verdict: autoscale.ScaleOut.String(),
		Replica: rep.idx, Reason: reason,
	})
	s.events.push(event{t: t + s.auto.ProvisionDelay, seq: s.nextSeq(), kind: evScaleReady, from: rep})
}

// scaleIn retires one replica through the graceful-drain path: its queued
// requests re-route to peers, its resident slots finish locally, and only
// then does the replica leave the fleet — the same machinery a
// fault-injected Drain uses, so run()'s drained-dry check completes the
// release. The victim is the emptiest healthy or degraded replica (ties to
// the newest, so autoscaled capacity releases before the initial fleet and
// fault-plan indices stay meaningful). Retired replicas keep their index —
// stats stay addressable — but never serve or count again.
func (s *sim) scaleIn(t float64, ingress bool, reason string) {
	pool := s.ingress
	if !ingress {
		pool = s.decode
	}
	live := 0
	var victim *replica
	for _, rep := range pool {
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
	// Never release the last live decode replica: that would trip the
	// unified fallback.
	if victim == nil || !ingress && live <= 1 {
		return
	}
	victim.move(onScaleIn, t)
	s.drain(victim, t)
	s.res.ScaleEvents = append(s.res.ScaleEvents, ScaleEvent{
		T: t, Pool: s.poolName(ingress), Verdict: autoscale.ScaleIn.String(),
		Replica: victim.idx, Reason: reason,
	})
}

// recordTick appends the tick's fleet snapshot to Result.TickStats.
func (s *sim) recordTick(t float64) {
	ts := TickStat{T: t}
	var drains []float64
	for _, rep := range s.all {
		switch rep.stage {
		case provisioning:
			ts.Provisioning++
		case draining, retiring:
			ts.Draining++
		case healthy, degraded, recovering:
			ts.Live++
			b := rep.s.Snapshot()
			ts.QueueDepth += b.Pending
			drains = append(drains, b.DrainTime)
		}
	}
	ts.DrainP50 = batching.Percentile(drains, 0.50)
	ts.DrainMax = batching.Percentile(drains, 1)
	s.res.TickStats = append(s.res.TickStats, ts)
}
