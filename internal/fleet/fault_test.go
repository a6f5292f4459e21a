package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"esti/internal/autoscale"
	"esti/internal/batching"
	"esti/internal/faults"
)

// checkFaultInvariants asserts the recovery invariants every faulted run
// must keep: Outcomes partitions the trace exactly (served + shed + failed
// = len(trace), one outcome per request), per-replica tokens sum to the
// fleet's GenTokens with wasted tokens ledgered separately and exactly
// once, every outcome error is a sentinel from the documented family, and
// no routing shed names a decode replica.
func checkFaultInvariants(t *testing.T, res Result, n int) {
	t.Helper()
	if got := res.Completed + res.Rejected + res.Shed + res.ShedRetry + res.Failed; got != n {
		t.Errorf("partition: completed %d + rejected %d + shed %d + shedRetry %d + failed %d = %d != %d requests",
			res.Completed, res.Rejected, res.Shed, res.ShedRetry, res.Failed, got, n)
	}
	if len(res.Outcomes) != n {
		t.Errorf("%d outcomes for %d requests", len(res.Outcomes), n)
	}
	seen := map[int]bool{}
	for _, o := range res.Outcomes {
		if seen[o.Req.ID] {
			t.Errorf("request %d has two outcomes", o.Req.ID)
		}
		seen[o.Req.ID] = true
		if o.Err == nil {
			continue
		}
		if !errors.Is(o.Err, batching.ErrPromptTooLong) && !errors.Is(o.Err, batching.ErrInvalidTrace) &&
			!errors.Is(o.Err, batching.ErrDeadline) && !errors.Is(o.Err, batching.ErrOverloaded) &&
			!errors.Is(o.Err, batching.ErrReplicaDown) {
			t.Errorf("outcome error outside the sentinel family: %v", o.Err)
		}
		// The router sheds at the replica it picked, and it picks only
		// replicas that take arrivals.
		if (errors.Is(o.Err, batching.ErrDeadline) || errors.Is(o.Err, batching.ErrOverloaded)) &&
			o.Replica >= 0 && res.PerReplica[o.Replica].Role == "decode" {
			t.Errorf("request %d shed on decode replica %d", o.Req.ID, o.Replica)
		}
	}
	local, wastedLedger := 0, 0
	for _, r := range res.PerReplica {
		local += r.LocalTokens
		wastedLedger += r.WastedTokens
	}
	if local != res.GenTokens {
		t.Errorf("per-replica tokens %d != fleet GenTokens %d", local, res.GenTokens)
	}
	pre, dec := 0, 0
	for _, w := range res.Wasted {
		pre += w.PrefillTokens
		dec += w.DecodedTokens
		if !errors.Is(w.Cause, batching.ErrReplicaDown) && !errors.Is(w.Cause, batching.ErrHedged) {
			t.Errorf("wasted-work cause outside the family: %v", w.Cause)
		}
	}
	if pre != res.WastedPrefillTokens || dec != res.WastedDecodeTokens {
		t.Errorf("wasted ledger sums %d/%d != totals %d/%d", pre, dec,
			res.WastedPrefillTokens, res.WastedDecodeTokens)
	}
	if wastedLedger != pre+dec {
		t.Errorf("per-replica wasted %d != ledger total %d", wastedLedger, pre+dec)
	}
	if res.GoodTokens > res.GenTokens {
		t.Errorf("GoodTokens %d > GenTokens %d", res.GoodTokens, res.GenTokens)
	}
	if res.HedgeWins > res.Hedges {
		t.Errorf("HedgeWins %d > Hedges %d", res.HedgeWins, res.Hedges)
	}
}

// The acceptance bar: on the 4-replica Zipf trace, goodput under a single
// replica crash (with recovery) stays at or above 0.7× the no-fault
// baseline — lost work re-routes with backoff, the recovered replica
// rejoins — while the naive health-blind baseline (dead replica keeps
// receiving traffic and silently eats its queue until it comes back)
// drops below the bar.
func TestCrashGoodputFloor(t *testing.T) {
	trace := zipfTrace(600, 0.01, 11)
	base := Config{Replica: replicaConfig(), Replicas: 4, Policy: Affinity}
	noFault, err := Simulate(base, trace)
	if err != nil {
		t.Fatal(err)
	}
	var plan faults.Plan
	plan.Crash(1, 0.5, 8.0)

	smartCfg := base
	smartCfg.Faults = plan
	smart, err := Simulate(smartCfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	naiveCfg := smartCfg
	naiveCfg.Recovery = RecoveryPolicy{Naive: true}
	naive, err := Simulate(naiveCfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, smart, 600)
	checkFaultInvariants(t, naive, 600)

	smartX := smart.GoodputPerChip / noFault.GoodputPerChip
	naiveX := naive.GoodputPerChip / noFault.GoodputPerChip
	t.Logf("goodput/chip: no-fault %.2f, crash+recovery %.2f (%.3fx, %d retries, recovery p99 %.2fs), naive %.2f (%.3fx, %d failed)",
		noFault.GoodputPerChip, smart.GoodputPerChip, smartX, smart.Retries, smart.RecoveryP99,
		naive.GoodputPerChip, naiveX, naive.Failed)
	if smartX < 0.7 {
		t.Errorf("recovered goodput %.3fx of baseline, want >= 0.7x", smartX)
	}
	if naiveX >= 0.7 {
		t.Errorf("naive no-retry goodput %.3fx of baseline, want < 0.7x (the fault layer must be worth something)", naiveX)
	}
	if smart.Retries == 0 || smart.Failed != 0 || smart.Completed != 600 {
		t.Errorf("recovery path unused: retries %d failed %d completed %d", smart.Retries, smart.Failed, smart.Completed)
	}
	if smart.WastedPrefillTokens == 0 && smart.WastedDecodeTokens == 0 {
		t.Error("a crash with in-flight work must waste tokens")
	}
	if smart.RecoveryP99 <= 0 {
		t.Error("requests survived a loss but RecoveryP99 is zero")
	}
	if naive.Failed == 0 {
		t.Error("naive baseline failed nothing — the crash did not bite")
	}
	if smart.PerReplica[1].Crashes != 1 || smart.PerReplica[1].Downtime <= 0 {
		t.Errorf("replica 1 stats: crashes %d downtime %.2f", smart.PerReplica[1].Crashes, smart.PerReplica[1].Downtime)
	}
	for _, o := range naive.Outcomes {
		if o.Err != nil && !errors.Is(o.Err, batching.ErrReplicaDown) {
			t.Errorf("naive run shed with %v, expected only replica-down failures", o.Err)
		}
	}
}

// resultFingerprint serializes everything in a Result, including the error
// strings json.Marshal cannot see, so two runs can be compared bytewise.
func resultFingerprint(t *testing.T, res Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.Write(b)
	for _, o := range res.Outcomes {
		fmt.Fprintf(&sb, "|%d:%v", o.Req.ID, o.Err)
	}
	for _, w := range res.Wasted {
		fmt.Fprintf(&sb, "|w%d:%v", w.ReqID, w.Cause)
	}
	return sb.String()
}

// Satellite: same Config + trace ⇒ byte-identical Result, fault schedule
// and all. Equal-time events replay in sequence order, so retries, hedges,
// and the wasted ledger land identically across runs.
func TestFleetDeterminism(t *testing.T) {
	var plan faults.Plan
	plan.Crash(1, 0.5, 3.0).Straggle(0, 1.0, 4.0, 3.0).Drain(2, 5.0, 7.0)
	c := Config{Replica: replicaConfig(), Replicas: 4, Policy: Affinity, Faults: plan,
		Recovery: RecoveryPolicy{BrownoutBelow: 0.5}}
	trace := batching.WithSLO(zipfTrace(300, 0.01, 11), 60, 0.3, 5)
	a, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := resultFingerprint(t, a), resultFingerprint(t, b)
	if fa != fb {
		t.Fatalf("faulted fleet simulation not byte-identical across runs:\n%.400s\nvs\n%.400s", fa, fb)
	}
	if a.Retries == 0 && a.Hedges == 0 {
		t.Error("determinism run exercised no fault machinery")
	}
}

// Hedging: a straggler's stuck requests are duplicated to a healthy
// replica; the first finisher wins, losers are wasted work, and the tail
// latency beats the no-hedge run of the same plan.
func TestStragglerHedging(t *testing.T) {
	var plan faults.Plan
	plan.Straggle(0, 1.0, -1, 8.0) // never recovers: without hedges its residents pay 8x to the end
	c := Config{Replica: replicaConfig(), Replicas: 4, Policy: Affinity, Faults: plan}
	trace := zipfTrace(300, 0.01, 11)
	hedged, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	cn := c
	cn.Recovery.NoHedge = true
	plain, err := Simulate(cn, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, hedged, 300)
	checkFaultInvariants(t, plain, 300)
	if hedged.Completed != 300 || plain.Completed != 300 {
		t.Fatalf("completions %d/%d, want 300/300", hedged.Completed, plain.Completed)
	}
	if hedged.Hedges == 0 {
		t.Fatal("straggler induced no hedges")
	}
	if plain.Hedges != 0 {
		t.Fatalf("NoHedge run hedged %d times", plain.Hedges)
	}
	if hedged.HedgeWins == 0 {
		t.Error("no hedge race was won by the duplicate — a 5x straggler should lose some")
	}
	sawHedgeWaste := false
	for _, w := range hedged.Wasted {
		if errors.Is(w.Cause, batching.ErrHedged) {
			sawHedgeWaste = true
			if w.DecodedTokens <= 0 && w.PrefillTokens <= 0 {
				t.Errorf("empty hedge-waste entry %+v", w)
			}
		}
	}
	if !sawHedgeWaste {
		t.Error("hedge races produced no wasted-work entries")
	}
	t.Logf("p99: hedged %.2fs vs no-hedge %.2fs (%d hedges, %d wins, %d wasted decode tokens)",
		hedged.P99, plain.P99, hedged.Hedges, hedged.HedgeWins, hedged.WastedDecodeTokens)
	if hedged.P99 >= plain.P99 {
		t.Errorf("hedging did not improve tail latency: p99 %.3f vs %.3f", hedged.P99, plain.P99)
	}
}

// Brownout: with most of the fleet down and the watermark armed, low-tier
// arrivals are shed with ErrOverloaded while high-tier traffic is never
// brownout-shed — capacity contracts around the top tier.
func TestBrownoutShedsLowTierFirst(t *testing.T) {
	var plan faults.Plan
	plan.Crash(1, 0.2, -1).Crash(2, 0.2, -1).Crash(3, 0.2, -1)
	c := Config{Replica: replicaConfig(), Replicas: 4, Policy: LeastLoaded, Faults: plan,
		Recovery: RecoveryPolicy{BrownoutBelow: 0.5}}
	trace := zipfTrace(200, 0.01, 11)
	for i := range trace.Requests {
		if i%4 == 0 {
			trace.Requests[i].Priority = 1
		}
	}
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, res, 200)
	brownouts := 0
	for _, o := range res.Outcomes {
		if o.Err == nil {
			continue
		}
		if errors.Is(o.Err, batching.ErrOverloaded) {
			if o.Req.Priority > 0 {
				t.Errorf("high-tier request %d brownout-shed: %v", o.Req.ID, o.Err)
			}
			brownouts++
		}
	}
	if brownouts == 0 {
		t.Fatal("3 of 4 replicas down below a 0.5 watermark, but nothing was brownout-shed")
	}
	highServed, highTotal := 0, 0
	for _, o := range res.Outcomes {
		if o.Req.Priority > 0 {
			highTotal++
			if o.Err == nil {
				highServed++
			}
		}
	}
	if highServed != highTotal {
		t.Errorf("high tier served %d/%d under brownout", highServed, highTotal)
	}
	t.Logf("brownout shed %d low-tier requests; high tier %d/%d served", brownouts, highServed, highTotal)
}

// Graceful degradation: when the whole decode pool crashes, the prefill
// replicas convert to unified serving and the fleet keeps completing
// requests instead of prefilling into the void.
func TestUnifiedFallback(t *testing.T) {
	var plan faults.Plan
	plan.Crash(2, 1.0, -1).Crash(3, 1.0, -1)
	c := Config{
		Replica: replicaConfig(), PrefillReplicas: 2, DecodeReplicas: 2, Policy: Affinity, Faults: plan,
	}
	trace := zipfTrace(120, 0.05, 3)
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, res, 120)
	if res.Completed != 120 || res.Failed != 0 {
		t.Fatalf("completed %d failed %d, want all 120 served through the fallback", res.Completed, res.Failed)
	}
	for i := 0; i < 2; i++ {
		if res.PerReplica[i].Role != "prefill→unified" {
			t.Errorf("prefill replica %d role %q after decode-pool loss", i, res.PerReplica[i].Role)
		}
	}
	for i := 2; i < 4; i++ {
		if res.PerReplica[i].FinalHealth != "down" {
			t.Errorf("decode replica %d health %q, want down", i, res.PerReplica[i].FinalHealth)
		}
	}
	// Without the fallback (naive mode is health-blind and never falls
	// back), the dead decode pool eats every handoff sent after the crash.
	cn := c
	cn.Recovery = RecoveryPolicy{Naive: true}
	naive, err := Simulate(cn, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, naive, 120)
	if naive.Failed == 0 || naive.Completed >= res.Completed {
		t.Errorf("naive disaggregated run completed %d (failed %d), fallback completed %d — degradation not graceful",
			naive.Completed, naive.Failed, res.Completed)
	}
	t.Logf("decode pool dead: fallback served %d/120, naive served %d (ate %d)",
		res.Completed, naive.Completed, naive.Failed)
}

// Handoff-link outage: transfers buffer at the sender during the outage
// and flush at link-up (nothing lost, latency pays); a link that never
// recovers strands them — wasted prefill, then retries, then failures once
// attempts run out.
func TestLinkFailure(t *testing.T) {
	c := Config{
		Replica: replicaConfig(), PrefillReplicas: 2, DecodeReplicas: 2, Policy: Affinity,
	}
	trace := zipfTrace(120, 0.05, 3)
	base, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	cw := c
	cw.Faults = *new(faults.Plan).LinkFail(1.0, 4.0)
	windowed, err := Simulate(cw, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, windowed, 120)
	if windowed.Completed != 120 {
		t.Fatalf("outage window lost requests: completed %d/120", windowed.Completed)
	}
	if windowed.P99 <= base.P99 {
		t.Errorf("a 3s link outage should cost tail latency: p99 %.3f vs %.3f", windowed.P99, base.P99)
	}
	cd := c
	cd.Faults = *new(faults.Plan).LinkFail(1.0, -1)
	dead, err := Simulate(cd, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, dead, 120)
	if dead.Failed == 0 {
		t.Error("link never recovered but nothing failed")
	}
	if dead.WastedPrefillTokens == 0 {
		t.Error("stranded handoffs wasted no prefill work")
	}
	if dead.Retries == 0 {
		t.Error("stranded requests were never retried")
	}
	t.Logf("link outage: windowed p99 %.2fs (vs %.2fs), dead link failed %d with %d wasted prefill tokens over %d retries",
		windowed.P99, base.P99, dead.Failed, dead.WastedPrefillTokens, dead.Retries)
}

// autoDisaggPolicy is the autoscale policy the disaggregated fault tests
// run: each pool may shrink to one replica or grow to four.
func autoDisaggPolicy() *autoscale.Policy {
	return &autoscale.Policy{MinReplicas: 1, MaxReplicas: 4}
}

// A handoff link that never recovers, with autoscaling on: the stranded
// handoffs fail and retry as they do without control ticks, and the run
// ends. Simulate runs under a deadline so a run that never ends fails the
// test instead of hanging the suite.
func TestLinkFailureAutoscaled(t *testing.T) {
	c := Config{
		Replica: replicaConfig(), PrefillReplicas: 2, DecodeReplicas: 2, Policy: Affinity,
		Faults:    *new(faults.Plan).LinkFail(1.0, -1),
		Autoscale: autoDisaggPolicy(),
	}
	trace := zipfTrace(120, 0.05, 3)
	done := make(chan Result, 1)
	go func() {
		res, err := Simulate(c, trace)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res Result
	select {
	case res = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("autoscaled fleet with a dead handoff link did not finish within 60 s")
	}
	checkFaultInvariants(t, res, 120)
	if res.Failed == 0 || res.Retries == 0 || res.WastedPrefillTokens == 0 {
		t.Errorf("dead link: failed %d, retries %d, wasted prefill %d; want stranded handoffs retried, then failed",
			res.Failed, res.Retries, res.WastedPrefillTokens)
	}
	t.Logf("dead link, autoscaled: completed %d, failed %d, shed on retry %d, %d ticks",
		res.Completed, res.Failed, res.ShedRetry, res.Ticks)
}

// Graceful drain: queued work re-routes, in-flight work finishes locally,
// nothing is wasted, and the replica ends the run down.
func TestDrainGraceful(t *testing.T) {
	var plan faults.Plan
	plan.Drain(2, 1.0, -1)
	c := Config{Replica: replicaConfig(), Replicas: 4, Policy: Affinity, Faults: plan}
	trace := zipfTrace(300, 0.01, 11)
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultInvariants(t, res, 300)
	if res.Completed != 300 || res.Failed != 0 {
		t.Fatalf("drain lost work: completed %d failed %d", res.Completed, res.Failed)
	}
	if len(res.Wasted) != 0 {
		t.Errorf("a graceful drain wasted %d pieces of work", len(res.Wasted))
	}
	if res.PerReplica[2].FinalHealth != "down" {
		t.Errorf("drained replica health %q, want down", res.PerReplica[2].FinalHealth)
	}
	if res.PerReplica[2].Downtime <= 0 {
		t.Error("drained replica has no downtime")
	}
}

// checkLifetimes asserts each replica's lifecycle bookkeeping: its window
// opens no later than it closes, and closes by the end of the run (exactly
// there unless the replica was released); its downtime fits in the window;
// and it is Retired exactly when its final stage is retired.
func checkLifetimes(t *testing.T, res Result) {
	t.Helper()
	end := res.Makespan
	for _, r := range res.PerReplica {
		end = math.Max(end, r.RetiredAt)
	}
	for _, r := range res.PerReplica {
		if r.AddedAt > r.RetiredAt || !r.Retired && r.RetiredAt != end {
			t.Errorf("replica %d window [%.3f, %.3f], retired %v, run ends %.3f", r.ID, r.AddedAt, r.RetiredAt, r.Retired, end)
		}
		if r.Downtime > r.RetiredAt-r.AddedAt+1e-9 {
			t.Errorf("replica %d down %.3f s of a %.3f s window", r.ID, r.Downtime, r.RetiredAt-r.AddedAt)
		}
		if r.Retired != (r.FinalHealth == "retired") {
			t.Errorf("replica %d retired %v but final stage %q", r.ID, r.Retired, r.FinalHealth)
		}
	}
}

// drawPolicy draws an autoscale tuning — tick, bounds, bands, debounce,
// cooldown and warm-up — so the property tests reach tunings the
// hand-picked policies do not.
func drawPolicy(rng *rand.Rand) *autoscale.Policy {
	out, lo := 0.5+2*rng.Float64(), 1+rng.Intn(2)
	return &autoscale.Policy{
		Interval:    0.1 + 0.4*rng.Float64(),
		MinReplicas: lo, MaxReplicas: lo + rng.Intn(6),
		ScaleOutAbove: out, ScaleInBelow: out * (0.1 + 0.6*rng.Float64()),
		OverTicks: 1 + rng.Intn(3), UnderTicks: 1 + rng.Intn(4),
		CooldownTicks:  rng.Intn(6) - 1, // -1: none, 0: the default
		ProvisionDelay: 0.1 + rng.Float64(), WarmupCost: 0.05 + rng.Float64(),
	}
}

// Satellite property test: under any seeded fault plan — and under the
// naive policy, disaggregated (equal and unequal pools, and the paper's
// static 1 + 1 pipeline), and autoscaled in both layouts, with the
// hand-picked policies and with ones drawn from the seed — the partition,
// token-accounting and lifetime invariants hold, a second run replays the
// first byte for byte, and the replicas' lifetime windows sum to
// ReplicaSeconds. CI sweeps CHAOS_SEED_BASE across a matrix.
func TestFaultPlanInvariants(t *testing.T) {
	base := int64(1)
	if v := os.Getenv("CHAOS_SEED_BASE"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED_BASE %q: %v", v, err)
		}
		base = b
	}
	for seed := base; seed < base+32; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plan := faults.RandomPlan(seed, 4, 8.0)
			trace := batching.WithSLO(zipfTrace(120, 0.01, seed), 30, 0.25, seed)
			unified := Config{Replica: replicaConfig(), Replicas: 4, Policy: Affinity,
				Seed: seed, Faults: plan, Recovery: RecoveryPolicy{BrownoutBelow: 0.5}}
			disagg := Config{Replica: replicaConfig(), PrefillReplicas: 2, DecodeReplicas: 2,
				Policy: Affinity, Seed: seed, Faults: plan}
			naive := unified
			naive.Recovery = RecoveryPolicy{Naive: true}
			autoUnified := unified
			autoUnified.Autoscale = autoPolicy()
			autoDisagg := disagg
			autoDisagg.Autoscale = autoDisaggPolicy()
			rng := rand.New(rand.NewSource(seed))
			drawnUnified, drawnDisagg := unified, disagg
			drawnUnified.Autoscale, drawnDisagg.Autoscale = drawPolicy(rng), drawPolicy(rng)
			unequal := unequalPools()
			unequal.Seed, unequal.Faults = seed, plan
			// The paper's pipeline has two replicas: the same generator
			// draws its plan at that size.
			pipeline := Pipeline(paperPipeline())
			pipeline.Seed, pipeline.Faults = seed, faults.RandomPlan(seed, 2, 8.0)
			for name, c := range map[string]Config{"unified": unified, "disagg": disagg, "naive": naive,
				"auto-unified": autoUnified, "auto-disagg": autoDisagg, "drawn-unified": drawnUnified,
				"drawn-disagg": drawnDisagg, "unequal": unequal, "pipeline": pipeline} {
				res, err := Simulate(c, trace)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkFaultInvariants(t, res, 120)
				checkLifetimes(t, res)
				again, err := Simulate(c, trace)
				if err != nil {
					t.Fatalf("%s replay: %v", name, err)
				}
				if resultFingerprint(t, res) != resultFingerprint(t, again) {
					t.Errorf("%s: a second run of the same config differs", name)
				}
				windows := 0.0
				for _, r := range res.PerReplica {
					windows += r.RetiredAt - r.AddedAt
				}
				if windows != res.ReplicaSeconds {
					t.Errorf("%s: lifetime windows sum %.9f != ReplicaSeconds %.9f", name, windows, res.ReplicaSeconds)
				}
			}
		})
	}
}

// An invalid plan is a configuration error, not a panic.
func TestFaultPlanRejected(t *testing.T) {
	c := Config{Replica: replicaConfig(), Replicas: 2}
	c.Faults.Crash(5, 1.0, -1) // replica 5 of 2
	if _, err := Simulate(c, batching.Trace{}); !errors.Is(err, batching.ErrInvalidConfig) {
		t.Fatalf("out-of-range fault plan: err %v, want ErrInvalidConfig", err)
	}
	c2 := Config{Replica: replicaConfig(), Replicas: 2}
	c2.Faults.Straggle(0, 1.0, 2.0, 0.5) // factor < 1
	if _, err := Simulate(c2, batching.Trace{}); !errors.Is(err, batching.ErrInvalidConfig) {
		t.Fatalf("sub-1 slowdown factor: err %v, want ErrInvalidConfig", err)
	}
}
