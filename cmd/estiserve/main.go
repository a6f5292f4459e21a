// Command estiserve analyzes a disaggregated two-tier serving deployment
// (prefill tier → decode tier, the pattern the paper sketches under Table 2)
// and optionally replays a synthetic request stream through the
// discrete-event simulator.
//
// Example:
//
//	estiserve -model palm540b -weights int8 \
//	    -prefill-chips 64 -prefill-batch 1 \
//	    -decode-chips 64 -decode-batch 64 \
//	    -context 2048 -gen 64 -load 0.8 -requests 200
//
// With -continuous, the same total chip budget is additionally run as one
// continuous-batching pool (iteration-level scheduling, per-slot KV cache)
// over a mixed-length chatbot trace and compared head-to-head against the
// tuned static pipeline:
//
//	estiserve -model palm540b -continuous -requests 200 -slots 64
//
// With -prefix-cache, the pool serves a shared-system-prompt trace
// (-prefix-len tokens shared across -templates templates) twice — prefix
// cache on and off — to show the useful-tok/s win of skipping recomputed
// template prefills; -prefill-chunk bounds the prompt tokens prefilled per
// iteration so long cold prompts stop stalling running decodes, and
// -prefix-hit feeds the same knob into the static pipeline's analytic
// model:
//
//	estiserve -model palm540b -prefix-cache -prefill-chunk 256 -requests 200
//
// With -int8-kv, both tiers (and the continuous pool) store the KV cache
// quantized at one byte per element: the analysis halves KV memory
// traffic and cache bytes, the admission budgets accept roughly twice the
// context or slots, and a max-context comparison against the bf16 cache
// is printed:
//
//	estiserve -model palm540b -int8-kv -context 4096
//
// With -int8-wire, both tiers (and the continuous pool) move their
// activation collectives — the per-layer all-gathers/reduce-scatters and
// the attention all-to-alls — as per-chunk-scaled int8 instead of the
// bf16 baseline (engine.Options.WireDType functionally), halving exposed
// communication time; a per-phase comm-time comparison line against the
// fp32 and bf16 wire formats is printed:
//
//	estiserve -model palm540b -int8-wire -decode-batch 8
//
// With -overlap F, both tiers cost their collectives with fraction F of the
// *bandwidth* communication component hidden under compute (the looped
// CollectiveEinsum of Section 3.5; engine.Options.Streamed functionally).
// The serial hop-latency floor — one hop latency per ring step — is charged
// regardless of F, so latency-bound small-batch decode stays honest: at
// -overlap 1 the report shows comm pinned to the floor, and the int8-wire
// decode comm ratio collapses to ~1x because both wire formats wait on the
// same hops:
//
//	estiserve -model palm540b -int8-wire -decode-batch 8 -overlap 0.8
//
// With -replicas N, the decode-tier slice is stamped N times behind a
// prefix-affinity router over a Zipf-template trace (vs random routing);
// -disaggregated splits the replicas into prefill and decode pools with
// per-request KV handoff. Adding -fault-plan injects a deterministic fault
// schedule — replica crashes, graceful drains, straggler slowdowns,
// handoff-link outages — and prints goodput for the recovering fleet
// (retries, hedging, brownout, fallback) against both the no-fault run and
// a naive health-blind baseline that never retries:
//
//	estiserve -model palm540b -replicas 4 -fault-plan 'crash:1@2+4,slow:0@1-3x2.5'
//
// With -autoscale, the same fleet run is repeated with the perf-model-driven
// autoscaler armed: a deterministic control loop ticks inside the simulation,
// scales each pool out when the backlog drain estimate breaches the high
// watermark (and the excess repays the new replica's provision+warm-up cost)
// and gracefully drains replicas back in when the fleet runs slack. The
// report compares goodput and replica-seconds against the static fleet and
// prints the scaling timeline:
//
//	estiserve -model palm540b -replicas 4 -autoscale -fault-plan 'crash:1@2+4'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"esti/internal/autoscale"
	"esti/internal/batching"
	"esti/internal/faults"
	"esti/internal/fleet"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/planner"
	"esti/internal/serve"
)

func main() {
	modelName := flag.String("model", "palm540b", "model: palm8b, palm62b, palm540b, mtnlg530b")
	weights := flag.String("weights", "int8", "weight format: bf16 or int8")
	int8KV := flag.Bool("int8-kv", false, "store the KV cache int8 (half the cache bytes; ~2x the servable context per chip)")
	int8Wire := flag.Bool("int8-wire", false, "move activation collectives as per-chunk int8 (half the bf16 wire bytes; halves exposed comm time)")
	overlap := flag.Float64("overlap", 0, "fraction of the bandwidth comm component overlapped with compute (0-1); the hop-latency floor is always charged")
	preChips := flag.Int("prefill-chips", 64, "prefill tier chip count")
	preBatch := flag.Int("prefill-batch", 1, "prefill tier batch")
	decChips := flag.Int("decode-chips", 64, "decode tier chip count")
	decBatch := flag.Int("decode-batch", 64, "decode tier batch")
	context := flag.Int("context", 2048, "input tokens per request")
	gen := flag.Int("gen", 64, "output tokens per request")
	load := flag.Float64("load", 0.8, "offered load as a fraction of pipeline capacity")
	requests := flag.Int("requests", 200, "requests to simulate (0 = analysis only)")
	continuous := flag.Bool("continuous", false, "also run a continuous-batching pool on the total chips and compare")
	slots := flag.Int("slots", 64, "continuous batching: concurrent KV-cache slots")
	maxAdmit := flag.Int("max-admit", 4, "continuous batching: admissions per iteration (0 = unlimited)")
	seed := flag.Int64("seed", 1, "continuous batching: trace seed")
	prefixCache := flag.Bool("prefix-cache", false, "continuous batching: serve a shared-system-prompt trace and compare prefix cache on vs off")
	prefixLen := flag.Int("prefix-len", 1792, "shared prompt prefix length in tokens (with -prefix-cache / -prefix-hit)")
	templates := flag.Int("templates", 3, "distinct prompt templates in the shared-prefix trace")
	prefillChunk := flag.Int("prefill-chunk", 0, "continuous batching: prefill token budget per iteration (0 = whole prompt at admission)")
	prefixHit := flag.Float64("prefix-hit", 0, "static pipeline: fraction of requests whose prefix-len tokens hit a shared-prefix cache")
	replicas := flag.Int("replicas", 0, "fleet: run N replicas of the decode-tier slice behind a router over a Zipf-template trace (0 = off)")
	disaggregated := flag.Bool("disaggregated", false, "fleet: split the replicas into prefill and decode pools with per-request KV handoff")
	faultPlan := flag.String("fault-plan", "", "fleet: inject faults, e.g. 'crash:1@2+4,slow:0@1-3x2.5,link:2.5-3' (crash:R@T[+D] drain:R@T[+D] slow:R@T1[-T2]xF link:T1[-T2]); compares no-fault vs recovered vs naive no-retry")
	autoscaled := flag.Bool("autoscale", false, "fleet: rerun with the perf-model-driven autoscaler armed and compare goodput and replica-seconds against the static fleet")
	flag.Parse()

	cfg, ok := modelByName(*modelName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *modelName)
		os.Exit(2)
	}
	dt := model.BF16
	if strings.EqualFold(*weights, "int8") {
		dt = model.Int8
	}
	kvDT := model.BF16
	if *int8KV {
		kvDT = model.Int8
	}
	wireDT := model.BF16
	if *int8Wire {
		wireDT = model.Int8
	}

	sc := serve.Config{
		Model:     cfg,
		Weights:   dt,
		KVDType:   kvDT,
		WireDType: wireDT,
		Prefill: serve.Tier{
			System: hardware.NewSystem(hardware.TPUv4(), hardware.BestSlice(*preChips)),
			Batch:  *preBatch,
			FFN:    partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads,
		},
		Decode: serve.Tier{
			System: hardware.NewSystem(hardware.TPUv4(), hardware.BestSlice(*decChips)),
			Batch:  *decBatch,
			FFN:    partition.FFN2DWeightStationary, Attn: decodeAttn(cfg),
		},
		Context:       *context,
		Gen:           *gen,
		PrefixHitRate: *prefixHit,
		PrefixLen:     *prefixLen,
		Knobs:         perf.DefaultKnobs(),
	}
	if *prefixHit == 0 {
		sc.PrefixLen = 0
	}
	if *overlap > 0 {
		sc.Knobs.OverlapFrac = *overlap
	}
	// Large prefill batches prefer weight-gathered layouts.
	if *preBatch**context > 100000 {
		sc.Prefill.FFN = partition.FFNWeightGatheredXYZ
		sc.Prefill.Attn = decodeAttn(cfg)
	}

	m, err := serve.Analyze(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s, %s weights, %s KV cache, %s wire — %d-chip prefill (batch %d) → %d-chip decode (batch %d)\n",
		cfg.Name, dt, kvDT, wireDT, *preChips, *preBatch, *decChips, *decBatch)
	// commT costs one tier's exposed communication under the configured
	// knobs (per batch for prefill, per step for decode) with an arbitrary
	// wire format, for the -int8-wire and -overlap comparison lines.
	commT := func(tier serve.Tier, context, gen int, wd model.DType) float64 {
		req := perf.Request{
			Model: cfg, System: tier.System, Weights: dt, KVDType: kvDT,
			WireDType: wd, FFN: tier.FFN, Attn: tier.Attn,
			Batch: tier.Batch, Context: context, Gen: gen,
		}
		if gen > 0 {
			if res := perf.Decode(req, sc.Knobs); res.Feasible {
				return res.Breakdown.Comm / float64(gen)
			}
			return 0
		}
		if res := perf.Prefill(req, sc.Knobs); res.Feasible {
			return res.Breakdown.Comm
		}
		return 0
	}
	if *int8Wire {
		// The wire win in comm-time terms: each tier's exposed
		// communication with int8 payloads against the bf16 baseline
		// (the paper's activation format — the 2x claim) and the fp32
		// wire (the functional engine's exact format).
		pre8 := commT(sc.Prefill, *context, 0, model.Int8)
		preBF := commT(sc.Prefill, *context, 0, model.BF16)
		preFP := commT(sc.Prefill, *context, 0, model.FP32)
		fmt.Printf("  int8 wire: prefill comm %.1f ms/batch vs %.1f bf16 (%.2fx) / %.1f fp32 (%.2fx)\n",
			pre8*1000, preBF*1000, ratio(pre8, preBF), preFP*1000, ratio(pre8, preFP))
		if *gen > 0 {
			dec8 := commT(sc.Decode, *context, *gen, model.Int8)
			decBF := commT(sc.Decode, *context, *gen, model.BF16)
			decFP := commT(sc.Decode, *context, *gen, model.FP32)
			fmt.Printf("  int8 wire: decode comm %.3f ms/step vs %.3f bf16 (%.2fx) / %.3f fp32 (%.2fx)\n",
				dec8*1000, decBF*1000, ratio(dec8, decBF), decFP*1000, ratio(dec8, decFP))
		}
	}
	if *int8KV {
		// The storage win in context terms: Table 1's max-context numbers
		// for the decode tier, bf16 vs int8 cache under the same budget.
		decSys := sc.Decode.System
		bfCtx := planner.MaxContextKV(cfg, decSys, sc.Decode.Attn, *decBatch, 0.30, model.BF16)
		q8Ctx := planner.MaxContextKV(cfg, decSys, sc.Decode.Attn, *decBatch, 0.30, model.Int8)
		if bfCtx > 0 {
			fmt.Printf("  int8 KV: %.0f B/token vs %.0f bf16; max context at batch %d: %d vs %d tokens (%.1fx)\n",
				cfg.KVBytesPerTokenAs(model.Int8), cfg.KVBytesPerToken(),
				*decBatch, q8Ctx, bfCtx, float64(q8Ctx)/float64(bfCtx))
		} else {
			fmt.Printf("  int8 KV: %.0f B/token vs %.0f bf16; batch %d admits no context under the Table 1 budget in bf16 (%d tokens int8)\n",
				cfg.KVBytesPerTokenAs(model.Int8), cfg.KVBytesPerToken(), *decBatch, q8Ctx)
		}
	}
	if *overlap > 0 {
		// The overlap-aware split: Comm - CommFloor is the bandwidth
		// component (the part -overlap can hide); CommFloor is the serial
		// hop-latency term that no amount of overlap removes.
		fmt.Printf("  overlap %.2f: prefill comm %.1f ms/batch (hop floor %.1f ms, bandwidth %.1f ms)\n",
			*overlap, m.PrefillComm*1000, m.PrefillCommFloor*1000,
			(m.PrefillComm-m.PrefillCommFloor)*1000)
		if *gen > 0 {
			fmt.Printf("  overlap %.2f: decode comm %.3f ms/step (hop floor %.3f ms, bandwidth %.3f ms)\n",
				*overlap, m.DecodeStepComm*1000, m.DecodeStepCommFloor*1000,
				(m.DecodeStepComm-m.DecodeStepCommFloor)*1000)
			// The honest version of the int8-wire decode story: with the
			// bandwidth component overlapped away, both wire formats wait on
			// the same ring hops, so the ratio pins to ~1x instead of the
			// subtractive model's fictitious sub-floor numbers.
			dec8 := commT(sc.Decode, *context, *gen, model.Int8)
			decBF := commT(sc.Decode, *context, *gen, model.BF16)
			fmt.Printf("  overlap %.2f: int8-vs-bf16 decode comm ratio %.2fx (both pinned toward the hop-latency floor)\n",
				*overlap, ratio(dec8, decBF))
		}
	}
	fmt.Printf("  prefill: %.2fs per batch (%.2f req/s)\n", m.PrefillService, m.PrefillRate)
	fmt.Printf("  decode:  %.2fs per batch (%.2f req/s)\n", m.DecodeService, m.DecodeRate)
	fmt.Printf("  pipeline: %.2f req/s, %s-bound; min latency %.2fs; %.3f chip-s/generated token\n",
		m.Throughput, m.Bottleneck, m.MinLatency, m.CostPerToken)

	if *requests > 0 {
		inter := 1 / (m.Throughput * *load)
		res, err := serve.Simulate(sc, *requests, inter)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nsimulated %d requests at %.0f%% load (interarrival %.2fs):\n",
			res.Completed, *load*100, inter)
		fmt.Printf("  latency p50/p95/p99: %.2fs / %.2fs / %.2fs (mean %.2fs)\n",
			res.P50, res.P95, res.P99, res.MeanLatency)
		fmt.Printf("  achieved throughput: %.2f req/s; tier busy: prefill %.0f%%, decode %.0f%%\n",
			res.Throughput, res.PrefillBusyFrac*100, res.DecodeBusyFrac*100)
	}

	if *continuous || *prefixCache {
		n := *requests
		if n < 2 {
			n = 200
		}
		totalChips := *preChips + *decChips
		inter := 1 / (m.Throughput * *load)
		trace := batching.ChatbotTrace(n, inter, *seed)
		if *prefixCache {
			trace = batching.SharedPrefixTrace(n, inter, *prefixLen, *templates, *seed)
		}
		bc := batching.Config{
			Model:        cfg,
			Weights:      dt,
			KVDType:      kvDT,
			WireDType:    wireDT,
			System:       hardware.NewSystem(hardware.TPUv4(), hardware.BestSlice(totalChips)),
			FFN:          partition.FFN2DWeightStationary,
			Attn:         decodeAttn(cfg),
			Slots:        *slots,
			MaxLen:       trace.MaxContext() + trace.MaxGen(), // every request fits its slot
			MaxAdmit:     *maxAdmit,
			PrefillChunk: *prefillChunk,
			Knobs:        perf.DefaultKnobs(),
		}
		if *overlap > 0 {
			bc.Knobs.OverlapFrac = *overlap
		}
		if *continuous {
			cmp, err := batching.CompareStatic(bc, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			cres := cmp.Continuous
			fmt.Printf("\ncontinuous batching: %d chips as one pool, %d slots, mixed trace of %d requests:\n",
				totalChips, *slots, n)
			fmt.Printf("  useful throughput: %.1f tok/s continuous vs %.1f tok/s static two-tier (%.2fx)\n",
				cmp.ContinuousTokensPerSec, cmp.StaticTokensPerSec, cmp.Speedup)
			fmt.Printf("  static baseline tuned to prefill batch %d / decode batch %d (padded to %d ctx, %d gen)\n",
				cmp.StaticTuned.PrefillBatch, cmp.StaticTuned.DecodeBatch, trace.MaxContext(), trace.MaxGen())
			fmt.Printf("  occupancy %.0f%%, %d iterations; latency p50/p95/p99: %.2fs / %.2fs / %.2fs\n",
				cres.MeanOccupancy*100, cres.Iterations, cres.P50, cres.P95, cres.P99)
		}
		if *prefixCache {
			cmp, err := batching.CompareNoCache(bc, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("\nprefix cache: %d-token shared prompts, %d templates over %d requests:\n",
				*prefixLen, *templates, n)
			fmt.Printf("  useful throughput: %.1f tok/s cached vs %.1f tok/s uncached (%.2fx)\n",
				cmp.Cached.GenTokensPerSec, cmp.Uncached.GenTokensPerSec, cmp.Speedup)
			fmt.Printf("  %d hits / %d misses; %d prompt tokens served from cache\n",
				cmp.Cached.PrefixHits, cmp.Cached.PrefixMisses, cmp.Cached.CachedTokens)
			if *prefillChunk > 0 {
				fmt.Printf("  prefill chunk %d tokens/iteration: worst iteration %.3fs cached, %.3fs uncached\n",
					*prefillChunk, cmp.Cached.MaxIterTime, cmp.Uncached.MaxIterTime)
			}
		}
	}

	if *replicas > 0 || *disaggregated || *faultPlan != "" || *autoscaled {
		n := *requests
		if n < 2 {
			n = 200
		}
		nRep := *replicas
		if nRep < 2 {
			nRep = 4
		}
		// Each replica is one decode-tier slice; the fleet-wide arrival rate
		// scales the single-pipeline capacity by the replica count.
		inter := 1 / (m.Throughput * *load * float64(nRep))
		pl := *prefixLen
		if pl > *context/2 {
			pl = *context / 2
		}
		trace := batching.ZipfPrefixTrace(n, inter, pl, 4*nRep, 1.3, *seed)
		rc := batching.Config{
			Model:       cfg,
			Weights:     dt,
			KVDType:     kvDT,
			WireDType:   wireDT,
			System:      sc.Decode.System,
			FFN:         partition.FFN2DWeightStationary,
			Attn:        decodeAttn(cfg),
			Slots:       *slots,
			MaxLen:      trace.MaxContext() + trace.MaxGen(),
			MaxAdmit:    *maxAdmit,
			PrefixCache: true,
			Knobs:       sc.Knobs,
		}
		fc := fleet.Config{Replica: rc, Replicas: nRep, Policy: fleet.Affinity, Seed: *seed}
		if *disaggregated {
			fc.Disaggregated = true
			fc.PrefillReplicas = nRep / 2
			fc.DecodeReplicas = nRep - nRep/2
		}
		cmp, err := fleet.CompareRouting(fc, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		aff, rnd := cmp.Affinity, cmp.Random
		shape := fmt.Sprintf("%d unified replicas", nRep)
		if *disaggregated {
			shape = fmt.Sprintf("%d prefill + %d decode replicas", fc.PrefillReplicas, fc.DecodeReplicas)
		}
		fmt.Printf("\nfleet: %s x %d chips, Zipf trace of %d requests (%d templates, %d-token prefixes):\n",
			shape, sc.Decode.System.Chips(), n, 4*nRep, pl)
		fmt.Printf("  affinity routing: %.1f tok/s, p50/p99 %.2fs/%.2fs, %.2f good tok/s/chip, %d/%d prefix-warm routes\n",
			aff.GenTokensPerSec, aff.P50, aff.P99, aff.GoodputPerChip,
			aff.AffinityHits, aff.AffinityHits+aff.AffinityMisses)
		fmt.Printf("  random routing:   %.1f tok/s, p50/p99 %.2fs/%.2fs, %.2f good tok/s/chip (affinity %.2fx)\n",
			rnd.GenTokensPerSec, rnd.P50, rnd.P99, rnd.GoodputPerChip, cmp.Speedup)
		if *disaggregated {
			fmt.Printf("  KV handoff: %d transfers, %.1f GB total (%.1f MB/request)\n",
				aff.Handoffs, aff.HandoffBytes/1e9, aff.HandoffBytes/float64(aff.Handoffs)/1e6)
		}

		if *faultPlan != "" {
			plan, err := faults.Parse(*faultPlan)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fcf := fc
			fcf.Faults = plan
			faulted, err := fleet.Simulate(fcf, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fcn := fcf
			fcn.Recovery = fleet.RecoveryPolicy{MaxRetries: -1}
			naive, err := fleet.Simulate(fcn, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("\nfault injection (%s):\n", *faultPlan)
			fmt.Printf("  no faults:  %.2f good tok/s/chip, %d/%d served\n",
				aff.GoodputPerChip, aff.Completed, n)
			fmt.Printf("  recovered:  %.2f good tok/s/chip (%.2fx), %d/%d served, %d retries, %d hedges (%d won), %d failed, %.1fk tokens wasted, recovery p99 %.2fs\n",
				faulted.GoodputPerChip, ratio(faulted.GoodputPerChip, aff.GoodputPerChip),
				faulted.Completed, n, faulted.Retries, faulted.Hedges, faulted.HedgeWins, faulted.Failed,
				float64(faulted.WastedPrefillTokens+faulted.WastedDecodeTokens)/1e3, faulted.RecoveryP99)
			fmt.Printf("  naive:      %.2f good tok/s/chip (%.2fx), %d/%d served, %d failed (no retries, health-blind routing)\n",
				naive.GoodputPerChip, ratio(naive.GoodputPerChip, aff.GoodputPerChip),
				naive.Completed, n, naive.Failed)
			for i, r := range faulted.PerReplica {
				if r.Crashes > 0 || r.Downtime > 0 || r.FinalHealth != "healthy" {
					fmt.Printf("  replica %d (%s): %d crashes, %.2fs down, %d tokens wasted, ends %s\n",
						i, r.Role, r.Crashes, r.Downtime, r.WastedTokens, r.FinalHealth)
				}
			}
		}

		if *autoscaled {
			fcs := fc
			if *faultPlan != "" {
				plan, err := faults.Parse(*faultPlan)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fcs.Faults = plan
			}
			static, err := fleet.Simulate(fcs, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fca := fcs
			fca.Autoscale = &autoscale.Policy{
				MinReplicas: max(1, nRep/2),
				MaxReplicas: 2 * nRep,
			}
			auto, err := fleet.Simulate(fca, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("\nautoscale (%d..%d replicas, start %d):\n",
				fca.Autoscale.MinReplicas, fca.Autoscale.MaxReplicas, nRep)
			fmt.Printf("  static:     %d good tok, %.1f replica-s, %.1f good tok/replica-s, %d/%d served\n",
				static.GoodTokens, static.ReplicaSeconds, static.GoodputPerReplicaSec, static.Completed, n)
			fmt.Printf("  autoscaled: %d good tok (%.2fx), %.1f replica-s (%.2fx), %.1f good tok/replica-s, %d/%d served\n",
				auto.GoodTokens, ratio(float64(auto.GoodTokens), float64(static.GoodTokens)),
				auto.ReplicaSeconds, ratio(auto.ReplicaSeconds, static.ReplicaSeconds),
				auto.GoodputPerReplicaSec, auto.Completed, n)
			fmt.Printf("  %d control ticks, %d scale-outs, %d scale-ins, %d replicas at peak\n",
				auto.Ticks, auto.ScaleOuts, auto.ScaleIns, len(auto.PerReplica))
			for _, ev := range auto.ScaleEvents {
				fmt.Printf("  t=%.2f %-7s %s replica %d: %s\n", ev.T, ev.Pool, ev.Verdict, ev.Replica, ev.Reason)
			}
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func decodeAttn(cfg model.Config) partition.AttnLayout {
	if cfg.Attn == model.Multiquery {
		return partition.AttnShardBatch
	}
	return partition.AttnShardHeads
}

func modelByName(name string) (model.Config, bool) {
	switch strings.ToLower(name) {
	case "palm8b":
		return model.PaLM8B(), true
	case "palm62b":
		return model.PaLM62B(), true
	case "palm540b":
		return model.PaLM540BPadded(), true
	case "mtnlg530b":
		return model.MTNLG530B(), true
	}
	return model.Config{}, false
}
