// Fleet serving: many engine replicas behind one router. The example runs
// the same Zipf-popular template trace through a 4-replica PaLM 540B fleet
// three ways — prefix-affinity routing, random routing, and a
// disaggregated prefill/decode split with per-request KV handoff — and
// reports p50/p99 latency and goodput per chip for each. It closes with an
// executable handoff on a tiny model: prefill on one engine, cache blocks
// moved to a second engine, decode there, token-exact against a single
// engine doing both phases.
//
//	go run ./examples/fleet
package main

import (
	"fmt"

	"esti/internal/batching"
	"esti/internal/engine"
	"esti/internal/fleet"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/reference"
	"esti/internal/sampling"
)

func main() {
	// One replica: the paper's decode configuration — PaLM 540B, int8
	// weights, 64 chips, 2D weight-stationary FFN with batch-sharded
	// multiquery attention — with the prefix cache on.
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
		Disaggregated:   true,
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

	// Executable handoff: a real prefill→decode transfer on a tiny model,
	// token-exact against one engine doing both phases.
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
	got, err := pair.Generate(1, 3, prompt, gen)
	if err != nil {
		panic(err)
	}
	// Unified baseline: one engine prefills and decodes the same request on
	// one slot, greedy argmax at every step.
	base := mk()
	logits := base.PrefillSlot(1, prompt)
	tok := sampling.Greedy(logits.Row(logits.Rows - 1))
	want := []int{tok}
	last := make([]int, base.Batch())
	active := make([]bool, base.Batch())
	active[1] = true
	for len(want) < gen {
		last[1] = tok
		logits = base.DecodeSlotsInto(logits, last, active)
		tok = sampling.Greedy(logits.Row(1))
		want = append(want, tok)
	}
	match := len(got) == len(want)
	for i := range want {
		if got[i] != want[i] {
			match = false
		}
	}
	fmt.Printf("\nexecutable handoff (tiny model, int8 KV, 8-chip mesh x2): %d tokens, %d KV bytes moved, token-exact: %v\n",
		gen, pair.HandoffBytes, match)
	fmt.Printf("  tokens: %v\n", got)
}
