//go:build amd64 && !amd64.v3

package fleet_test

// The fleet's scenarios as testable examples: go test runs each and
// compares what it prints with its Output block, so a change that moves
// one fleet number fails here. They build only on amd64 below
// GOAMD64=v3, where Go never fuses a multiply and an add; elsewhere a fused
// rounding can move a printed digit.

import (
	"errors"
	"fmt"

	"esti/internal/autoscale"
	"esti/internal/batching"
	"esti/internal/faults"
	"esti/internal/fleet"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
)

// palmReplica is one replica of every example: the paper's decode
// configuration — PaLM 540B, int8 weights, 64 chips, 2D weight-stationary
// FFN with batch-sharded multiquery attention — with the prefix cache on.
func palmReplica() batching.Config {
	return batching.Config{
		Model:       model.PaLM540BPadded(),
		Weights:     model.Int8,
		System:      hardware.TPUv4Slice(4, 4, 4),
		FFN:         partition.FFN2DWeightStationary,
		Attn:        partition.AttnShardBatch,
		Slots:       64,
		MaxLen:      2048 + 256,
		PrefixCache: true,
		Knobs:       perf.DefaultKnobs(),
	}
}

// Fleet serving: the same Zipf-popular template trace through a 4-replica
// PaLM 540B fleet three ways — prefix-affinity routing, random routing, and
// a disaggregated prefill/decode split with per-request KV handoff — with
// p50/p99 latency and goodput per chip for each, then SLO admission under a
// burst.
func ExampleCompareRouting() {
	replica := palmReplica()

	// The workload: 400 requests whose templates follow a Zipf(1.3) law
	// over 48 distinct 1024-token shared prefixes — a handful of hot
	// system prompts and a long tail, the shape that makes routing matter.
	trace := batching.ZipfPrefixTrace(400, 0.02, 1024, 48, 1.3, 11)

	c := fleet.Config{Replica: replica, Replicas: 4}
	cmp, err := fleet.CompareRouting(c, trace)
	if err != nil {
		panic(err)
	}

	dc := fleet.Config{
		Replica:         replica,
		PrefillReplicas: 2,
		DecodeReplicas:  2,
		Policy:          fleet.Affinity,
	}
	disagg, err := fleet.Simulate(dc, trace)
	if err != nil {
		panic(err)
	}

	fmt.Printf("fleet: 4 x 64-chip PaLM 540B replicas, 400-request Zipf trace (48 templates, 1024-token prefixes)\n\n")
	fmt.Printf("  %-28s %9s %8s %8s %14s %12s\n",
		"configuration", "tok/s", "p50", "p99", "good tok/s/chip", "warm routes")
	row := func(name string, r fleet.Result) {
		fmt.Printf("  %-28s %9.1f %7.2fs %7.2fs %14.2f %9d/%d\n",
			name, r.GenTokensPerSec, r.P50, r.P99, r.GoodputPerChip,
			r.AffinityHits, r.AffinityHits+r.AffinityMisses)
	}
	row("unified, affinity routing", cmp.Affinity)
	row("unified, random routing", cmp.Random)
	row("2 prefill + 2 decode pools", disagg)
	fmt.Printf("\n  affinity vs random: %.2fx useful tok/s — hot templates pin to warm replicas,\n", cmp.Speedup)
	fmt.Printf("  so the fleet pays %d cold template prefills instead of %d\n",
		cmp.Affinity.AffinityMisses, cmp.Random.AffinityMisses)
	fmt.Printf("  disaggregated KV traffic: %d handoffs, %.1f GB over the interconnect (%.1f MB each)\n",
		disagg.Handoffs, disagg.HandoffBytes/1e9,
		disagg.HandoffBytes/float64(disagg.Handoffs)/1e6)

	// SLO admission: the same fleet under a deadline-stamped burst sheds
	// what it cannot serve in time and keeps goodput for the rest.
	slo := batching.WithSLO(batching.ZipfPrefixTrace(400, 0.005, 1024, 48, 1.3, 11), 30, 0.25, 5)
	guarded, err := fleet.Simulate(fleet.Config{Replica: replica, Replicas: 4, Policy: fleet.Affinity, MaxQueue: 48}, slo)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nSLO admission under a 4x burst (deadlines 15-30s, 25%% high tier):\n")
	fmt.Printf("  served %d, shed %d at the router, %d deadline misses; goodput %.2f tok/s/chip\n",
		guarded.Completed, guarded.Shed, guarded.DeadlineMisses, guarded.GoodputPerChip)
	// Output:
	// fleet: 4 x 64-chip PaLM 540B replicas, 400-request Zipf trace (48 templates, 1024-token prefixes)
	//
	//   configuration                    tok/s      p50      p99 good tok/s/chip  warm routes
	//   unified, affinity routing       1959.0    2.18s    7.38s           7.65       355/400
	//   unified, random routing         1890.8    3.66s    9.26s           7.39       303/400
	//   2 prefill + 2 decode pools      1645.9    3.97s    7.29s           6.43       342/400
	//
	//   affinity vs random: 1.04x useful tok/s — hot templates pin to warm replicas,
	//   so the fleet pays 45 cold template prefills instead of 97
	//   disaggregated KV traffic: 400 handoffs, 54.3 GB over the interconnect (135.7 MB each)
	//
	// SLO admission under a 4x burst (deadlines 15-30s, 25% high tier):
	//   served 377, shed 23 at the router, 0 deadline misses; goodput 8.55 tok/s/chip
}

// Fault-tolerant serving: one Zipf-template trace through a deterministic
// fault schedule — no faults, a replica crash with recovery, a persistent
// straggler, and a brownout that takes three of four replicas — with
// goodput, retries, hedges and wasted work for each, beside the naive
// health-blind baseline that never retries.
func ExampleRecoveryPolicy() {
	trace := batching.ZipfPrefixTrace(600, 0.01, 1024, 48, 1.3, 11)
	base := fleet.Config{Replica: palmReplica(), Replicas: 4, Policy: fleet.Affinity}

	run := func(c fleet.Config) fleet.Result {
		r, err := fleet.Simulate(c, trace)
		if err != nil {
			panic(err)
		}
		return r
	}
	noFault := run(base)

	// Scenario 1: replica 1 crashes at t=0.5s and rejoins at t=8s. Its
	// in-flight KV is lost; the router re-routes the losers with capped
	// exponential backoff, and warm-template retries re-prefill cheaply
	// through the target's prefix cache.
	crashCfg := base
	crashCfg.Faults.Crash(1, 0.5, 8.0)
	crash := run(crashCfg)
	naiveCfg := crashCfg
	naiveCfg.Recovery = fleet.RecoveryPolicy{Naive: true}
	naive := run(naiveCfg)

	// Scenario 2: replica 0 runs 8x slow from t=1 and never recovers. The
	// router hedges its stuck requests to the best other replica — first
	// completion wins, the loser's tokens are wasted work.
	slowCfg := base
	slowCfg.Faults.Straggle(0, 1.0, -1, 8.0)
	slow := run(slowCfg)
	slowPlainCfg := slowCfg
	slowPlainCfg.Recovery.NoHedge = true
	slowPlain := run(slowPlainCfg)

	// Scenario 3: brownout. Replicas 1-3 crash for good at t=0.2; with the
	// live fraction below the 0.5 watermark the router sheds low-tier
	// arrivals and contracts capacity around the high tier.
	brownCfg := base
	brownCfg.Faults.Crash(1, 0.2, -1).Crash(2, 0.2, -1).Crash(3, 0.2, -1)
	brownCfg.Recovery.BrownoutBelow = 0.5
	brownTrace := batching.ZipfPrefixTrace(600, 0.01, 1024, 48, 1.3, 11)
	for i := range brownTrace.Requests {
		if i%4 == 0 {
			brownTrace.Requests[i].Priority = 1
		}
	}
	brown, err := fleet.Simulate(brownCfg, brownTrace)
	if err != nil {
		panic(err)
	}

	fmt.Printf("fault-tolerant fleet: 4 x 64-chip PaLM 540B replicas, 600-request Zipf trace\n\n")
	fmt.Printf("  %-26s %15s %7s %8s %7s %7s %7s %9s\n",
		"scenario", "good tok/s/chip", "vs base", "served", "retries", "hedges", "failed", "wasted tok")
	row := func(name string, r fleet.Result) {
		fmt.Printf("  %-26s %15.2f %6.2fx %8d %7d %7d %7d %9d\n",
			name, r.GoodputPerChip, r.GoodputPerChip/noFault.GoodputPerChip,
			r.Completed, r.Retries, r.Hedges, r.Failed,
			r.WastedPrefillTokens+r.WastedDecodeTokens)
	}
	row("no faults", noFault)
	row("crash+recover (smart)", crash)
	row("crash+recover (naive)", naive)
	row("8x straggler, hedged", slow)
	row("8x straggler, no hedge", slowPlain)
	row("brownout (1 of 4 alive)", brown)

	fmt.Printf("\n  crash: recovery p99 %.2fs; replica 1 down %.2fs, %d tokens of its work redone elsewhere\n",
		crash.RecoveryP99, crash.PerReplica[1].Downtime, crash.PerReplica[1].WastedTokens)
	fmt.Printf("  naive baseline keeps routing to the dead replica: %d requests eaten, goodput %.2fx\n",
		naive.Failed, naive.GoodputPerChip/noFault.GoodputPerChip)
	fmt.Printf("  hedging the straggler: p99 %.2fs vs %.2fs unhedged (%d duplicates, %d races won)\n",
		slow.P99, slowPlain.P99, slow.Hedges, slow.HedgeWins)
	high, highServed, shed := 0, 0, 0
	for _, o := range brown.Outcomes {
		if o.Req.Priority > 0 {
			high++
			if o.Err == nil {
				highServed++
			}
		} else if o.Err != nil && errors.Is(o.Err, batching.ErrOverloaded) {
			shed++
		}
	}
	fmt.Printf("  brownout: %d low-tier requests shed, high tier %d/%d served on the surviving replica\n",
		shed, highServed, high)
	// Output:
	// fault-tolerant fleet: 4 x 64-chip PaLM 540B replicas, 600-request Zipf trace
	//
	//   scenario                   good tok/s/chip vs base   served retries  hedges  failed wasted tok
	//   no faults                             9.84   1.00x      600       0       0       0         0
	//   crash+recover (smart)                 7.93   0.81x      600      14       0       0      4325
	//   crash+recover (naive)                 6.48   0.66x      586       0       0      14      4325
	//   8x straggler, hedged                  7.74   0.79x      600       0      26       0     30048
	//   8x straggler, no hedge                4.86   0.49x      600       0       0       0         0
	//   brownout (1 of 4 alive)               2.31   0.23x      165      14       0       0     13135
	//
	//   crash: recovery p99 7.64s; replica 1 down 7.50s, 4325 tokens of its work redone elsewhere
	//   naive baseline keeps routing to the dead replica: 14 requests eaten, goodput 0.66x
	//   hedging the straggler: p99 12.17s vs 13.79s unhedged (26 duplicates, 21 races won)
	//   brownout: 435 low-tier requests shed, high tier 150/150 served on the surviving replica
}

// Self-healing serving: perf-model-driven autoscaling under chaos. A
// diurnal trace — a 6-second arrival burst, then a long light tail — meets
// a fault plan that crashes two replicas and straggles a third. The static
// fleet pays for four replicas the whole run and sheds through the burst;
// the autoscaled fleet buys capacity while the backlog drain estimate says
// the warm-up will be repaid, then drains back down through the tail. A
// replay shows the control loop is deterministic.
func ExampleSimulate_autoscale() {
	// Diurnal shape: 600 requests in a 6 s burst, then 600 more at a tenth
	// the rate. Deadlines give the burst something to lose.
	trace := batching.ZipfPrefixTrace(1200, 0.01, 1024, 48, 1.3, 11)
	reqs := make([]batching.Request, len(trace.Requests))
	copy(reqs, trace.Requests)
	for i := range reqs {
		if i >= 600 {
			reqs[i].Arrival = 6.0 + float64(i-600)*0.1
		}
	}
	trace = batching.WithSLO(batching.Trace{Requests: reqs}, 8.0, 0.3, 5)

	// Chaos: one crash that heals, one that doesn't, one straggler.
	var plan faults.Plan
	plan.Crash(1, 1.0, 5.0)
	plan.Crash(2, 1.5, -1)
	plan.Straggle(0, 2.0, 4.5, 3.0)

	static := fleet.Config{
		Replica:  palmReplica(),
		Replicas: 4,
		Policy:   fleet.Affinity,
		Faults:   plan,
		Recovery: fleet.RecoveryPolicy{BrownoutBelow: 0.6},
	}
	sres, err := fleet.Simulate(static, trace)
	if err != nil {
		panic(err)
	}

	auto := static
	auto.Autoscale = &autoscale.Policy{
		MinReplicas:  2,
		MaxReplicas:  8,
		ScaleInBelow: 1.0,
		WarmupCost:   1.5,
	}
	ares, err := fleet.Simulate(auto, trace)
	if err != nil {
		panic(err)
	}

	fmt.Println("burst+tail trace through chaos (2 crashes, 1 straggler):")
	fmt.Printf("  static (4 replicas): %d good tok, %d shed, %d missed, %.1f replica-s, %.1f good tok/replica-s\n",
		sres.GoodTokens, sres.Shed+sres.ShedRetry, sres.DeadlineMisses,
		sres.ReplicaSeconds, sres.GoodputPerReplicaSec)
	fmt.Printf("  autoscaled (%d..%d): %d good tok, %d shed, %d missed, %.1f replica-s, %.1f good tok/replica-s\n",
		auto.Autoscale.MinReplicas, auto.Autoscale.MaxReplicas,
		ares.GoodTokens, ares.Shed+ares.ShedRetry, ares.DeadlineMisses,
		ares.ReplicaSeconds, ares.GoodputPerReplicaSec)
	fmt.Printf("  goodput %.2fx at %.2fx the replica-seconds\n",
		float64(ares.GoodTokens)/float64(sres.GoodTokens),
		ares.ReplicaSeconds/sres.ReplicaSeconds)

	fmt.Printf("\nscaling timeline (%d ticks):\n", ares.Ticks)
	for _, ev := range ares.ScaleEvents {
		fmt.Printf("  t=%6.2f %s replica %d: %s\n", ev.T, ev.Verdict, ev.Replica, ev.Reason)
	}

	fmt.Println("\nreplica lifetime windows:")
	for _, r := range ares.PerReplica {
		until := "end of run"
		if r.Retired {
			until = fmt.Sprintf("released t=%.2f", r.RetiredAt)
		}
		fmt.Printf("  replica %d (%s): t=%.2f → %s, %d routed, ends %s\n",
			r.ID, r.Role, r.AddedAt, until, r.Routed, r.FinalHealth)
	}

	// The control loop is ordinary events in the simulation heap: the same
	// config and trace replay to the identical result.
	replay, err := fleet.Simulate(auto, trace)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nreplay: %d good tok, %d scale-outs, %d scale-ins — deterministic: %v\n",
		replay.GoodTokens, replay.ScaleOuts, replay.ScaleIns,
		replay.GoodTokens == ares.GoodTokens && replay.ScaleOuts == ares.ScaleOuts &&
			replay.ScaleIns == ares.ScaleIns)
	// Output:
	// burst+tail trace through chaos (2 crashes, 1 straggler):
	//   static (4 replicas): 34640 good tok, 409 shed, 64 missed, 271.8 replica-s, 127.4 good tok/replica-s
	//   autoscaled (2..8): 39984 good tok, 305 shed, 61 missed, 254.3 replica-s, 157.3 good tok/replica-s
	//   goodput 1.15x at 0.94x the replica-seconds
	//
	// scaling timeline (272 ticks):
	//   t=  0.50 scale-out replica 4: drain 2.87s > 1.50s (shed 0, miss 0, brownout false); excess backlog 4.24s repays 2.00s warm-up
	//   t=  5.00 scale-out replica 5: drain 7.65s > 1.50s (shed 12, miss 1, brownout false); excess backlog 13.50s repays 2.00s warm-up
	//   t=  6.25 scale-out replica 6: drain 4.96s > 1.50s (shed 0, miss 0, brownout false); excess backlog 12.49s repays 2.00s warm-up
	//   t= 11.25 scale-in replica 6: mean drain 0.60s < 1.00s for 4 ticks, 0 idle of 6 live
	//   t= 13.50 scale-in replica 5: mean drain 0.70s < 1.00s for 4 ticks, 0 idle of 5 live
	//   t= 15.50 scale-in replica 4: mean drain 0.96s < 1.00s for 4 ticks, 0 idle of 4 live
	//   t= 18.25 scale-in replica 1: mean drain 0.70s < 1.00s for 4 ticks, 0 idle of 3 live
	//
	// replica lifetime windows:
	//   replica 0 (unified): t=0.00 → end of run, 367 routed, ends healthy
	//   replica 1 (unified): t=0.00 → released t=19.33, 80 routed, ends retired
	//   replica 2 (unified): t=0.00 → end of run, 36 routed, ends down
	//   replica 3 (unified): t=0.00 → end of run, 364 routed, ends healthy
	//   replica 4 (unified): t=0.50 → released t=15.87, 110 routed, ends retired
	//   replica 5 (unified): t=5.00 → released t=13.76, 49 routed, ends retired
	//   replica 6 (unified): t=6.25 → released t=13.05, 8 routed, ends retired
	//
	// replay: 39984 good tok, 3 scale-outs, 4 scale-ins — deterministic: true
}
