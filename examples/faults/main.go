// Fault-tolerant fleet serving: the same 4-replica PaLM 540B fleet under
// injected failures. The example replays one Zipf-template trace through a
// deterministic fault schedule four ways — no faults, a replica crash with
// recovery, a persistent straggler, and a brownout that takes three of four
// replicas — and reports goodput, retries, hedges, and wasted work for
// each, alongside the naive health-blind baseline that never retries. It
// closes with an executable recovery on a tiny model: the decode engine
// dies mid-request, the retained prefill checkpoint re-imports into a
// fresh slot, and token replay rebuilds the stream exactly.
//
//	go run ./examples/faults
package main

import (
	"errors"
	"fmt"

	"esti/internal/batching"
	"esti/internal/engine"
	"esti/internal/fleet"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/reference"
)

func main() {
	replica := batching.Config{
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
	trace := batching.ZipfPrefixTrace(600, 0.01, 1024, 48, 1.3, 11)
	base := fleet.Config{Replica: replica, Replicas: 4, Policy: fleet.Affinity}

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

	// Executable recovery: prefill on one engine, handoff, the decode
	// engine dies after 5 tokens, and the retained checkpoint restores
	// into a fresh slot where replay rebuilds the lost positions.
	cfg := model.Config{
		Name: "tiny", Layers: 2, DModel: 64, DFF: 128,
		Heads: 8, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 64,
	}
	w := reference.NewWeights(cfg, 42)
	opts := engine.Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		KVDType: model.Int8,
	}
	mk := func() *engine.Engine {
		e, err := engine.New(w, hardware.Torus{X: 2, Y: 2, Z: 2}, opts, 8, 48)
		if err != nil {
			panic(err)
		}
		return e
	}
	prompt := []int{5, 18, 31, 44, 57, 6}
	const gen = 12
	pair := &fleet.EnginePair{Prefill: mk(), Decode: mk()}
	recovered, err := pair.GenerateWithFailure(1, 3, 6, prompt, gen, 5)
	if err != nil {
		panic(err)
	}
	clean := &fleet.EnginePair{Prefill: mk(), Decode: mk()}
	want, err := clean.Generate(1, 3, prompt, gen)
	if err != nil {
		panic(err)
	}
	match := len(recovered) == len(want)
	for i := range want {
		if recovered[i] != want[i] {
			match = false
		}
	}
	fmt.Printf("\nexecutable recovery (tiny model, int8 KV): decode replica died after 5 tokens\n")
	fmt.Printf("  failure-free: %v\n", want)
	fmt.Printf("  recovered:    %v (replayed %d tokens, checkpoint crossed the wire twice: %d bytes)\n",
		recovered, pair.RecoveredTokens, pair.HandoffBytes)
	fmt.Printf("  token-exact: %v\n", match)
}
