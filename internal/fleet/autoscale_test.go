package fleet

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"esti/internal/autoscale"
	"esti/internal/batching"
	"esti/internal/faults"
)

// chaosPlan is the PR 8-style chaos the acceptance criteria name: a crash
// that recovers, a crash that never does (the autoscaler must replace it),
// and a straggler window — run with the brownout watermark armed.
func chaosPlan() faults.Plan {
	var p faults.Plan
	p.Crash(1, 1.0, 5.0)
	p.Crash(2, 1.5, -1)
	p.Straggle(0, 2.0, 4.5, 3.0)
	return p
}

// autoPolicy is the tuning the fleet tests run: quarter-second ticks, a
// slack band wide enough to hand back capacity under the light tail's
// steady sub-second mean backlog, and a warm-up cost high enough that only
// clearly-profitable scale-outs fire.
func autoPolicy() *autoscale.Policy {
	return &autoscale.Policy{
		Interval:     0.25,
		MinReplicas:  2,
		MaxReplicas:  8,
		ScaleInBelow: 1.0,
		WarmupCost:   1.5,
	}
}

// chaosTrace is the headline workload: a 6-second burst at 100 req/s (the
// window the chaos plan tears through) followed by a long light tail at
// 10 req/s — the diurnal shape autoscaling exists for. SLO slack 8 s with a
// 30% high-priority tier.
func chaosTrace(n int) batching.Trace {
	tr := zipfTrace(n, 0.01, 11)
	reqs := make([]batching.Request, len(tr.Requests))
	copy(reqs, tr.Requests)
	for i := range reqs {
		if i >= 600 {
			reqs[i].Arrival = 6.0 + float64(i-600)*0.1
		}
	}
	return batching.WithSLO(batching.Trace{Requests: reqs}, 8.0, 0.3, 5)
}

const chaosTraceN = 1200 // 600 burst + 600 tail

// The acceptance bar: on the chaos trace, the autoscaled fleet holds at
// least 1.1x the static fleet's goodput at no more replica-seconds — it
// buys capacity only while the backlog repays it and hands the chips back
// in the tail.
func TestAutoscaleBeatsStatic(t *testing.T) {
	trace := chaosTrace(chaosTraceN)
	static := Config{
		Replica: replicaConfig(), Replicas: 4, Policy: Affinity,
		Faults:   chaosPlan(),
		Recovery: RecoveryPolicy{BrownoutBelow: 0.6},
	}
	auto := static
	auto.Autoscale = autoPolicy()

	sres, err := Simulate(static, trace)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := Simulate(auto, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, sres, chaosTraceN)
	checkFaultInvariants(t, ares, chaosTraceN)

	goodX := float64(ares.GoodTokens) / float64(sres.GoodTokens)
	rsX := ares.ReplicaSeconds / sres.ReplicaSeconds
	t.Logf("static: good %d gen %d shed %d+%d failed %d miss %d makespan %.2f replica-s %.1f good/replica-s %.1f",
		sres.GoodTokens, sres.GenTokens, sres.Shed, sres.ShedRetry, sres.Failed,
		sres.DeadlineMisses, sres.Makespan, sres.ReplicaSeconds, sres.GoodputPerReplicaSec)
	t.Logf("auto:   good %d gen %d shed %d+%d failed %d miss %d makespan %.2f replica-s %.1f good/replica-s %.1f",
		ares.GoodTokens, ares.GenTokens, ares.Shed, ares.ShedRetry, ares.Failed,
		ares.DeadlineMisses, ares.Makespan, ares.ReplicaSeconds, ares.GoodputPerReplicaSec)
	t.Logf("auto scaling: %d ticks, %d out, %d in over %d replicas", ares.Ticks, ares.ScaleOuts, ares.ScaleIns, len(ares.PerReplica))
	for _, ev := range ares.ScaleEvents {
		t.Logf("  t=%.2f %s %s replica %d: %s", ev.T, ev.Pool, ev.Verdict, ev.Replica, ev.Reason)
	}
	t.Logf("goodput ratio %.3fx, replica-seconds ratio %.3fx", goodX, rsX)

	if goodX < 1.1 {
		t.Errorf("autoscaled goodput %.3fx of static, want >= 1.1x", goodX)
	}
	if rsX > 1.0 {
		t.Errorf("autoscaled replica-seconds %.3fx of static, want <= 1.0x", rsX)
	}
	if ares.ScaleOuts == 0 || ares.ScaleIns == 0 {
		t.Errorf("the controller never exercised both directions: %d out, %d in", ares.ScaleOuts, ares.ScaleIns)
	}
	if sres.ScaleOuts != 0 || sres.ScaleIns != 0 || sres.Ticks != 0 {
		t.Errorf("static run has autoscale activity: %d/%d/%d", sres.ScaleOuts, sres.ScaleIns, sres.Ticks)
	}
	if sres.ReplicaSeconds <= 0 || ares.GoodputPerReplicaSec <= sres.GoodputPerReplicaSec {
		t.Errorf("goodput per replica-second did not improve: auto %.2f vs static %.2f",
			ares.GoodputPerReplicaSec, sres.GoodputPerReplicaSec)
	}
}

// Acceptance: an autoscaled + faulted run replays byte-identically under
// the same seed — ticks are heap events like arrivals and faults, and the
// controller is pure state, so nothing about scaling perturbs replay.
func TestAutoscaleReplay(t *testing.T) {
	trace := batching.WithSLO(zipfTrace(400, 0.01, 11), 8.0, 0.3, 5)
	c := Config{
		Replica: replicaConfig(), Replicas: 4, Policy: Affinity, Seed: 42,
		Faults:    chaosPlan(),
		Recovery:  RecoveryPolicy{BrownoutBelow: 0.6},
		Autoscale: autoPolicy(),
	}
	a, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if a.ScaleOuts+a.ScaleIns == 0 {
		t.Fatal("replay test exercised no scaling — rebuild the scenario")
	}
	fa, fb := resultFingerprint(t, a), resultFingerprint(t, b)
	if fa != fb {
		t.Errorf("autoscaled run is not replay-identical:\n%.400s\nvs\n%.400s", fa, fb)
	}
}

// Property: over random fault plans, the per-replica lifetime windows sum
// exactly to Result.ReplicaSeconds — no window double-counts a scale event,
// none leaks. IDs stay stable (PerReplica[i].ID == i) no matter how many
// replicas were added or retired mid-trace. CI's autoscale-sim job sweeps
// CHAOS_SEED_BASE across the same matrix the chaos-sim job uses.
func TestAutoscaleReplicaSecondsSum(t *testing.T) {
	base := int64(0)
	if v := os.Getenv("CHAOS_SEED_BASE"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED_BASE %q: %v", v, err)
		}
		base = b
	}
	trace := batching.WithSLO(zipfTrace(300, 0.01, 11), 8.0, 0.3, 5)
	for seed := base; seed < base+6; seed++ {
		c := Config{
			Replica: replicaConfig(), Replicas: 4, Policy: Affinity, Seed: seed,
			Faults:    faults.RandomPlan(seed, 4, 8.0),
			Recovery:  RecoveryPolicy{BrownoutBelow: 0.5},
			Autoscale: autoPolicy(),
		}
		res, err := Simulate(c, trace)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkFaultInvariants(t, res, 300)
		end := 0.0
		for _, r := range res.PerReplica {
			if r.RetiredAt > end {
				end = r.RetiredAt
			}
		}
		sum := 0.0
		for i, r := range res.PerReplica {
			if r.ID != i {
				t.Errorf("seed %d: PerReplica[%d].ID = %d, want %d", seed, i, r.ID, i)
			}
			if r.AddedAt < 0 || r.RetiredAt < r.AddedAt || r.RetiredAt > end {
				t.Errorf("seed %d: replica %d window [%.3f, %.3f] out of range [0, %.3f]",
					seed, i, r.AddedAt, r.RetiredAt, end)
			}
			if i < 4 && r.AddedAt != 0 {
				t.Errorf("seed %d: initial replica %d AddedAt %.3f, want 0", seed, i, r.AddedAt)
			}
			if i >= 4 && r.AddedAt <= 0 {
				t.Errorf("seed %d: autoscaled replica %d AddedAt %.3f, want > 0", seed, i, r.AddedAt)
			}
			if r.Retired && r.FinalHealth != "retired" {
				t.Errorf("seed %d: replica %d retired but FinalHealth %q", seed, i, r.FinalHealth)
			}
			sum += r.RetiredAt - r.AddedAt
		}
		if sum != res.ReplicaSeconds {
			t.Errorf("seed %d: windows sum %.9f != ReplicaSeconds %.9f", seed, sum, res.ReplicaSeconds)
		}
		t.Logf("seed %d: %d replicas (%d out, %d in), %.1f replica-s", seed,
			len(res.PerReplica), res.ScaleOuts, res.ScaleIns, res.ReplicaSeconds)
	}
}

// squareWaveTrace rewrites a Zipf trace's arrivals into bursts: `burst`
// requests packed tightly at the start of each period, then silence — the
// load shape that makes a trigger-happy controller flap.
func squareWaveTrace(n, burst int, period float64, seed int64) batching.Trace {
	tr := zipfTrace(n, 0.01, seed)
	reqs := make([]batching.Request, len(tr.Requests))
	copy(reqs, tr.Requests)
	for i := range reqs {
		reqs[i].Arrival = float64(i/burst)*period + float64(i%burst)*0.002
	}
	return batching.Trace{Requests: reqs}
}

// Satellite: under a square-wave load whose bursts drain before the
// debounce window fills, the hysteretic controller holds the fleet steady,
// while a no-hysteresis tuning of the same law flaps. The fleet-level
// counterpart of the unit-level square-wave test.
func TestAutoscaleFlappingPrevention(t *testing.T) {
	trace := squareWaveTrace(300, 25, 3.5, 11)
	// Affinity's bounded load spills a burst past the warm replicas once
	// they carry 1.25x the fleet's average backlog, so the whole fleet
	// drains together and the gaps read as genuine slack on every replica.
	base := Config{Replica: replicaConfig(), Replicas: 3, Policy: Affinity}

	damped := base
	damped.Autoscale = &autoscale.Policy{
		Interval: 0.25, MinReplicas: 3, MaxReplicas: 6,
		ScaleOutAbove: 0.8,
		// Both debounce windows outlast the wave's phases: a burst's breach
		// lasts ~2 s (8 ticks) and a gap's slack ~2.5 s (10 ticks).
		OverTicks: 8, UnderTicks: 12, CooldownTicks: 6,
	}
	dres, err := Simulate(damped, trace)
	if err != nil {
		t.Fatal(err)
	}

	flappy := base
	flappy.Autoscale = &autoscale.Policy{
		Interval: 0.25, MinReplicas: 3, MaxReplicas: 6,
		ScaleOutAbove: 0.8,
		OverTicks:     1, UnderTicks: 1, CooldownTicks: -1, // negative = no cooldown
	}
	fres, err := Simulate(flappy, trace)
	if err != nil {
		t.Fatal(err)
	}

	// Flapping is churn, not action count: a controller that buys capacity
	// for sustained pressure and keeps it is fine; one that alternates
	// scale-out and scale-in with the wave is not. Count direction
	// reversals in the event sequence.
	reversals := func(evs []ScaleEvent) int {
		n := 0
		for i := 1; i < len(evs); i++ {
			if evs[i].Verdict != evs[i-1].Verdict {
				n++
			}
		}
		return n
	}
	dRev, fRev := reversals(dres.ScaleEvents), reversals(fres.ScaleEvents)
	t.Logf("damped: %d out %d in, %d reversals over %d ticks; trigger-happy: %d out %d in, %d reversals",
		dres.ScaleOuts, dres.ScaleIns, dRev, dres.Ticks, fres.ScaleOuts, fres.ScaleIns, fRev)
	if dRev > 0 {
		t.Errorf("hysteretic controller reversed direction %d times on a square wave, want 0", dRev)
	}
	if fRev < 2 {
		t.Errorf("trigger-happy controller reversed only %d times — the square wave did not bite", fRev)
	}
	if fres.ScaleOuts+fres.ScaleIns <= dres.ScaleOuts+dres.ScaleIns {
		t.Errorf("trigger-happy took %d actions, damped %d — hysteresis saved nothing",
			fres.ScaleOuts+fres.ScaleIns, dres.ScaleOuts+dres.ScaleIns)
	}
	if dres.Completed != 300 || fres.Completed != 300 {
		t.Errorf("square wave dropped work: damped %d, flappy %d of 300", dres.Completed, fres.Completed)
	}
}

// Satellite regression: PerReplica must describe mid-trace additions and
// removals faithfully — the added replica's window opens at its scale-out
// tick, it really served, and a retired replica's window closes at its
// release.
func TestPerReplicaMidTraceWindows(t *testing.T) {
	trace := chaosTrace(chaosTraceN)
	c := Config{
		Replica: replicaConfig(), Replicas: 4, Policy: Affinity,
		Faults:    chaosPlan(),
		Recovery:  RecoveryPolicy{BrownoutBelow: 0.6},
		Autoscale: autoPolicy(),
	}
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleOuts == 0 || res.ScaleIns == 0 {
		t.Fatal("scenario exercised no scaling — rebuild it")
	}
	if len(res.PerReplica) != 4+res.ScaleOuts {
		t.Fatalf("%d PerReplica entries for 4 initial + %d scale-outs", len(res.PerReplica), res.ScaleOuts)
	}
	outsSeen, insSeen := map[int]float64{}, map[int]float64{}
	for _, ev := range res.ScaleEvents {
		switch ev.Verdict {
		case "scale-out":
			outsSeen[ev.Replica] = ev.T
		case "scale-in":
			insSeen[ev.Replica] = ev.T
		}
	}
	servedByAdded := 0
	for i, r := range res.PerReplica {
		if at, ok := outsSeen[i]; ok {
			if r.AddedAt != at {
				t.Errorf("replica %d AddedAt %.3f != scale-out event at %.3f", i, r.AddedAt, at)
			}
			servedByAdded += r.Routed + r.Completed
		}
		if at, ok := insSeen[i]; ok {
			// The window closes when the drain finishes, at or after the
			// scale-in decision — never before it.
			if !r.Retired || r.RetiredAt < at {
				t.Errorf("replica %d: retired=%v RetiredAt %.3f before scale-in event at %.3f", i, r.Retired, r.RetiredAt, at)
			}
			if r.FinalHealth != "retired" {
				t.Errorf("replica %d FinalHealth %q, want retired", i, r.FinalHealth)
			}
		}
	}
	if servedByAdded == 0 {
		t.Error("no autoscaled replica ever routed or completed a request")
	}
}

// Disaggregated pools scale independently: killing a decode replica for
// good makes the decode controller (and only it, in this scenario's tail)
// add decode capacity, while prefill holds.
func TestAutoscaleDisaggregated(t *testing.T) {
	var plan faults.Plan
	plan.Crash(3, 1.0, -1) // decode replica, never recovers
	trace := batching.WithSLO(zipfTrace(400, 0.01, 11), 10.0, 0.3, 5)
	c := Config{
		Replica: replicaConfig(), Policy: Affinity,
		PrefillReplicas: 2, DecodeReplicas: 2,
		Faults:    plan,
		Autoscale: &autoscale.Policy{Interval: 0.25, MinReplicas: 1, MaxReplicas: 4},
	}
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, res, 400)
	decodeOuts := 0
	for _, ev := range res.ScaleEvents {
		t.Logf("t=%.2f %s %s replica %d: %s", ev.T, ev.Pool, ev.Verdict, ev.Replica, ev.Reason)
		if ev.Pool != "prefill" && ev.Pool != "decode" {
			t.Errorf("disaggregated scale event on pool %q", ev.Pool)
		}
		if ev.Pool == "decode" && ev.Verdict == "scale-out" {
			decodeOuts++
		}
	}
	if decodeOuts == 0 {
		t.Error("decode pool lost half its capacity for good but never scaled out")
	}
	for i, r := range res.PerReplica {
		if i >= 4 && r.Role != "decode" && r.Role != "prefill" {
			t.Errorf("autoscaled replica %d has role %q", i, r.Role)
		}
	}
}

// A routing shed names the replica the router picked by its stable index,
// never by its position in the pool: after the prefill pool scales out, a
// position past the initial prefill replicas is a decode replica's index.
// checkFaultInvariants holds every shed off the decode pool; the burst
// makes the prefill pool of these runs scale out.
func TestShedNamesRoutedReplica(t *testing.T) {
	prefillOuts := 0
	for seed := int64(1); seed <= 40; seed++ {
		c := Config{Replica: replicaConfig(), Policy: Affinity, PrefillReplicas: 1, DecodeReplicas: 2, Seed: seed,
			Autoscale: &autoscale.Policy{Interval: 0.25, MinReplicas: 1, MaxReplicas: 4}}
		res, err := Simulate(c, batching.WithSLO(zipfTrace(400, 0.004, seed), 4.0, 0.3, seed))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkFaultInvariants(t, res, 400) })
		for _, ev := range res.ScaleEvents {
			if ev.Pool == "prefill" && ev.Verdict == "scale-out" {
				prefillOuts++
			}
		}
	}
	if prefillOuts == 0 {
		t.Error("no prefill pool scaled out: no shed could land past the initial prefill replicas")
	}
}

// Config validation: autoscale rejects the naive baseline and malformed
// policies with ErrInvalidConfig.
func TestAutoscaleConfigErrors(t *testing.T) {
	trace := zipfTrace(10, 0.01, 1)
	naive := Config{
		Replica: replicaConfig(), Replicas: 2, Policy: Affinity,
		Recovery:  RecoveryPolicy{Naive: true},
		Autoscale: autoPolicy(),
	}
	if _, err := Simulate(naive, trace); !errors.Is(err, batching.ErrInvalidConfig) {
		t.Errorf("naive + autoscale: %v, want ErrInvalidConfig", err)
	}
	bad := Config{
		Replica: replicaConfig(), Replicas: 2, Policy: Affinity,
		Autoscale: &autoscale.Policy{ScaleOutAbove: 1, ScaleInBelow: 2},
	}
	if _, err := Simulate(bad, trace); !errors.Is(err, batching.ErrInvalidConfig) {
		t.Errorf("inverted bands: %v, want ErrInvalidConfig", err)
	}
}

// A prefill handoff is a replica's completed work, as a decode completion
// is: a prefill replica that joins by scale-out leaves recovering at its
// first handoff, so the autoscaler may release it instead of the initial
// fleet.
func TestAutoscalePrefillLeavesRecovering(t *testing.T) {
	c := Config{
		Replica: replicaConfig(), PrefillReplicas: 2, DecodeReplicas: 2, Policy: Affinity,
		Faults:    chaosPlan(),
		Recovery:  RecoveryPolicy{BrownoutBelow: 0.6},
		Autoscale: autoPolicy(),
	}
	res, err := Simulate(c, chaosTrace(chaosTraceN))
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, res, chaosTraceN)
	checked := 0
	for _, r := range res.PerReplica {
		// A prefill replica that never crashed handed off every request it
		// routed, unless a scale-in evicted it (and then it is retired).
		if r.Role != "prefill" || r.Crashes > 0 || r.Routed == 0 {
			continue
		}
		checked++
		if r.FinalHealth == "recovering" {
			t.Errorf("prefill replica %d produced %d first tokens but ended recovering", r.ID, r.LocalTokens)
		}
	}
	if checked == 0 || res.ScaleOuts == 0 {
		t.Fatalf("scenario exercised no prefill scale-out (%d checked, %d out) — rebuild it", checked, res.ScaleOuts)
	}
}

// A crash of a replica the autoscaler is releasing loses its resident work
// like any crash — to the wasted ledger, then retries — and retires the
// replica at the crash. A straggler window on it slows the release as it
// would slow any replica.
func TestFaultsReachRetiringReplica(t *testing.T) {
	trace := chaosTrace(chaosTraceN)
	c := Config{Replica: replicaConfig(), Replicas: 4, Policy: Affinity, Autoscale: autoPolicy()}
	base, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	// The release of an initial replica (a fault plan can name it) that
	// still had resident work when the autoscaler picked it.
	var in *ScaleEvent
	for i, ev := range base.ScaleEvents {
		if ev.Verdict == "scale-in" && ev.Replica < 4 && base.PerReplica[ev.Replica].RetiredAt > ev.T {
			in = &base.ScaleEvents[i]
			break
		}
	}
	if in == nil {
		t.Fatal("no slow release of an initial replica — rebuild the scenario")
	}
	id, released := in.Replica, base.PerReplica[in.Replica].RetiredAt
	at := (in.T + released) / 2

	c.Faults = *new(faults.Plan).Crash(id, at, at+1)
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, res, chaosTraceN)
	r := res.PerReplica[id]
	if r.Crashes != 1 || !r.Retired || r.RetiredAt != at || r.FinalHealth != "retired" || r.Downtime != 0 {
		t.Errorf("crash at %.3f while retiring: crashes %d, retired %v at %.3f, final %q, downtime %g; "+
			"want the crash absorbed and the replica retired at the crash", at, r.Crashes, r.Retired, r.RetiredAt,
			r.FinalHealth, r.Downtime)
	}
	if r.WastedTokens == 0 || res.Retries == 0 {
		t.Errorf("crash while retiring wasted %d tokens with %d retries; want its resident work lost and retried",
			r.WastedTokens, res.Retries)
	}

	c.Faults = *new(faults.Plan).Straggle(id, at, -1, 4)
	slow, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, slow, chaosTraceN)
	if got := slow.PerReplica[id].RetiredAt; got <= released {
		t.Errorf("straggling from %.3f, the release finished at %.3f, not after %.3f", at, got, released)
	}
}
