// Package esti is a Go reproduction of "Efficiently Scaling Transformer
// Inference" (Pope et al., MLSYS 2023): the paper's analytical partitioning
// framework for serving very large decoder-only Transformers, a planner that
// selects partitioning layouts per phase, and a functional sharded-inference
// engine that validates the layouts on a simulated chip mesh.
//
// This root package is a facade over the implementation packages:
//
//   - internal/hardware: chip and 3D-torus system model (TPU v4 preset)
//   - internal/model:    Transformer architectures (PaLM family, MT-NLG)
//   - internal/partition: the sharding layouts of Section 3
//   - internal/commcost: closed-form collective costs (Appendix A)
//   - internal/perf:     the calibrated latency/MFU/cost model
//   - internal/planner:  layout selection (Section 4.1)
//   - internal/engine:   functional sharded execution on a simulated mesh
//   - internal/serve:    static two-tier (prefill → decode) pipeline
//   - internal/batching: iteration-level continuous batching
//   - internal/fleet:    multi-replica router + disaggregated pools
//   - internal/autoscale: the fleet's deterministic autoscaling control law
//   - internal/experiments: regeneration of every table and figure
//
// Quick start:
//
//	cfg := esti.PaLM540B()
//	sys := esti.TPUv4Slice(4, 4, 4)
//	res := esti.Decode(esti.Request{
//		Model: cfg, System: sys, Weights: esti.Int8,
//		FFN: esti.FFN2DWeightStationary, Attn: esti.AttnShardBatch,
//		Batch: 64, Context: 2048, Gen: 64,
//	}, esti.DefaultKnobs())
//	fmt.Printf("%.1f ms/token at %.0f%% MFU\n", res.StepTime*1000, res.MFU*100)
//
// Beyond static batches, the continuous-batching subsystem serves dynamic
// mixed-length traffic: requests are admitted into per-sequence KV-cache
// slots at iteration granularity, freed slots are refilled mid-stream, and
// the whole discipline is costed with the same perf model
// (SimulateContinuous) and executed functionally by the engine
// (engine.DecodeSlots / engine.PrefillSlot):
//
//	c := esti.ContinuousConfig{
//		Model: cfg, Weights: esti.Int8, System: sys,
//		FFN: esti.FFN2DWeightStationary, Attn: esti.AttnShardBatch,
//		Slots: 64, MaxLen: 2048 + 256, Knobs: esti.DefaultKnobs(),
//	}
//	res, _ := esti.SimulateContinuous(c, esti.ChatbotTrace(200, 0.05, 1))
//	fmt.Printf("%.0f useful tok/s\n", res.GenTokensPerSec)
//
// Template-heavy traffic additionally reuses shared prompt prefixes
// (ContinuousConfig.PrefixCache + SharedPrefixTrace + CompareNoCache) and
// admits long cold prompts in bounded chunks (PrefillChunk); the
// engine-level counterparts are engine.PrefillSlotFrom and
// engine.PrefillSlotChunked, both token-exact against the cold path.
//
// Above a single replica, the fleet layer routes a request stream across N
// replicas (prefix-affinity vs random vs least-loaded policies), optionally
// splits them into disaggregated prefill and decode pools with per-request
// KV handoff, and sheds work against per-request deadlines and priority
// tiers (SimulateFleet / CompareRouting / ZipfPrefixTrace / WithSLO). The
// executable counterpart is EnginePair: prefill on one engine, cache blocks
// handed to a second engine, decode there, token-exact versus one engine
// doing both phases.
//
// The fleet is fault-tolerant: a FaultPlan injects replica crashes,
// graceful drains, straggler slowdowns, and handoff-link outages into the
// simulation as scheduled events. Lost requests re-route with capped
// exponential backoff, requests stuck on stragglers are hedged to a second
// replica (first completion wins), low-tier traffic is shed first when the
// fleet browns out, and a disaggregated fleet falls back to unified serving
// when its decode pool dies — all tunable through FleetRecoveryPolicy and
// measurable against the naive health-blind baseline (MaxRetries: -1). The
// executable counterpart is EnginePair.GenerateWithFailure: a decode
// replica dies mid-request, the retained prefill checkpoint re-imports
// elsewhere, and token replay rebuilds the stream exactly.
//
// The fleet is also self-sizing: FleetConfig.Autoscale arms a deterministic
// control loop (AutoscalePolicy) that ticks inside the simulation heap,
// reads the perf model's backlog drain estimates plus the fleet's health
// and SLO signals, and scales each pool out when the excess backlog repays
// a new replica's provision-plus-warm-up cost — and gracefully drains
// replicas back in when the fleet runs slack. Hysteresis bands and
// consecutive-tick debounce prevent flapping; scale-ins never drop
// resident KV. The run's scaling timeline (FleetScaleEvent), per-tick
// snapshots (FleetTickStat), and per-replica lifetime windows
// (FleetResult.PerReplica, whose windows sum exactly to
// FleetResult.ReplicaSeconds) make the controller auditable, and the whole
// autoscaled run replays byte-identically under the same seed.
//
// See examples/ for runnable scenarios (examples/continuousbatch for the
// serving comparison, examples/fleet for multi-replica routing,
// examples/faults for failure injection and recovery, examples/autoscale
// for the self-sizing fleet) and cmd/estibench for the paper's tables and
// figures.
package esti

import (
	"esti/internal/autoscale"
	"esti/internal/batching"
	"esti/internal/engine"
	"esti/internal/faults"
	"esti/internal/fleet"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/planner"
)

// Core types, re-exported.
type (
	// Model describes a decoder-only Transformer architecture.
	Model = model.Config
	// System is a torus of identical chips.
	System = hardware.System
	// Torus is a 3D slice shape.
	Torus = hardware.Torus
	// Request is one inference configuration to cost.
	Request = perf.Request
	// Result is a costed phase outcome.
	Result = perf.Result
	// Knobs are the perf-model constants.
	Knobs = perf.Knobs
	// Workload is a planner input.
	Workload = planner.Workload
	// Plan is a planner output.
	Plan = planner.Plan
	// FFNLayout selects a feedforward partitioning.
	FFNLayout = partition.FFNLayout
	// AttnLayout selects an attention partitioning.
	AttnLayout = partition.AttnLayout
	// DType is a storage/wire element format (weights, KV cache, or
	// collective payloads).
	DType = model.DType
)

// Layout and dtype constants.
const (
	FFN1DWeightStationary = partition.FFN1DWeightStationary
	FFN2DWeightStationary = partition.FFN2DWeightStationary
	FFNWeightGatheredX    = partition.FFNWeightGatheredX
	FFNWeightGatheredXY   = partition.FFNWeightGatheredXY
	FFNWeightGatheredXYZ  = partition.FFNWeightGatheredXYZ
	AttnShardHeads        = partition.AttnShardHeads
	AttnShardBatch        = partition.AttnShardBatch
	BF16                  = model.BF16
	Int8                  = model.Int8
	FP32                  = model.FP32
)

// PaLM8B returns the PaLM 8B architecture preset.
func PaLM8B() Model { return model.PaLM8B() }

// PaLM62B returns the PaLM 62B architecture preset.
func PaLM62B() Model { return model.PaLM62B() }

// PaLM540B returns the padded 64-head variant the paper benchmarks.
func PaLM540B() Model { return model.PaLM540BPadded() }

// MTNLG530B returns the Megatron-Turing NLG 530B preset (Table D.1).
func MTNLG530B() Model { return model.MTNLG530B() }

// TPUv4Slice builds a TPU v4 system with the given torus shape.
func TPUv4Slice(x, y, z int) System { return hardware.TPUv4Slice(x, y, z) }

// DefaultKnobs returns the calibrated perf-model constants.
func DefaultKnobs() Knobs { return perf.DefaultKnobs() }

// Prefill costs the prefill phase of a request.
func Prefill(r Request, k Knobs) Result { return perf.Prefill(r, k) }

// Decode costs the decode phase of a request.
func Decode(r Request, k Knobs) Result { return perf.Decode(r, k) }

// MakePlan selects layouts for a workload, minimizing latency.
func MakePlan(cfg Model, sys System, dt DType, w Workload, k Knobs) Plan {
	return planner.Make(cfg, sys, dt, w, planner.MinLatency, k)
}

// MaxContextKV returns the longest servable context under a per-chip KV
// byte budget (a fraction of HBM) with the cache stored in the given
// dtype — Table 1's calculation, where Int8 doubles every entry. Set
// Request.KVDType (analytic) or engine Options.KVDType (functional) to run
// with the quantized cache.
func MaxContextKV(cfg Model, sys System, attn AttnLayout, batch int, kvBudget float64, kv DType) int {
	return planner.MaxContextKV(cfg, sys, attn, batch, kvBudget, kv)
}

// Continuous batching, re-exported.
type (
	// ContinuousConfig describes a continuous-batching pool: one chip
	// slice serving both phases with slot-level admission.
	ContinuousConfig = batching.Config
	// ContinuousResult summarizes a continuous-batching simulation.
	ContinuousResult = batching.Result
	// RequestTrace is an ordered stream of mixed-length requests.
	RequestTrace = batching.Trace
	// ServingComparison is the continuous-vs-static head-to-head.
	ServingComparison = batching.Comparison
	// CacheComparison is the prefix-cache-on-vs-off head-to-head.
	CacheComparison = batching.CacheComparison
)

// ChatbotTrace builds a deterministic mixed-length chatbot workload.
func ChatbotTrace(n int, interarrival float64, seed int64) RequestTrace {
	return batching.ChatbotTrace(n, interarrival, seed)
}

// SharedPrefixTrace builds a template-heavy workload: every request opens
// with one of `templates` shared prefixLen-token system prompts.
func SharedPrefixTrace(n int, interarrival float64, prefixLen, templates int, seed int64) RequestTrace {
	return batching.SharedPrefixTrace(n, interarrival, prefixLen, templates, seed)
}

// CompareNoCache replays the trace with the prefix cache on and off,
// isolating the useful-token win of shared-prefix reuse.
func CompareNoCache(c ContinuousConfig, t RequestTrace) (CacheComparison, error) {
	return batching.CompareNoCache(c, t)
}

// PrefillWithPrefix costs a prefill whose leading prefixLen tokens hit a
// shared-prefix cache with probability hitRate.
func PrefillWithPrefix(r Request, k Knobs, hitRate float64, prefixLen int) Result {
	return perf.PrefillExpected(r, k, hitRate, prefixLen)
}

// SimulateContinuous runs the iteration-level scheduler over a trace.
func SimulateContinuous(c ContinuousConfig, t RequestTrace) (ContinuousResult, error) {
	return batching.Simulate(c, t)
}

// CompareServing replays the same trace through continuous batching and the
// static two-tier pipeline at equal total chip count.
func CompareServing(c ContinuousConfig, t RequestTrace) (ServingComparison, error) {
	return batching.CompareStatic(c, t)
}

// Fleet serving, re-exported.
type (
	// FleetConfig describes a fleet: one replica blueprint stamped N
	// times, a routing policy, and optionally a disaggregated
	// prefill/decode split.
	FleetConfig = fleet.Config
	// FleetResult summarizes a fleet simulation (p50/p99 latency,
	// goodput per chip, affinity and handoff accounting).
	FleetResult = fleet.Result
	// FleetPolicy selects how the router picks a replica.
	FleetPolicy = fleet.Policy
	// FleetRoutingComparison is the affinity-vs-random head-to-head.
	FleetRoutingComparison = fleet.RoutingComparison
	// EnginePair is the executable prefill→decode handoff: two real
	// engines with KV cache blocks moved between them per request.
	EnginePair = fleet.EnginePair
	// EngineOptions are the functional engine's feature knobs; KVDType
	// and WireDType carry the same typed dtype vocabulary as the
	// analytic configs.
	EngineOptions = engine.Options
	// FaultPlan is a deterministic schedule of replica and link failures
	// for FleetConfig.Faults: build with its Crash/Drain/Straggle/LinkFail
	// methods, parse one from the DSL with ParseFaultPlan, or generate one
	// with RandomFaultPlan.
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled fault transition inside a FaultPlan.
	FaultEvent = faults.Event
	// FleetRecoveryPolicy tunes the fleet's fault handling: retry budget
	// and backoff, hedging, brownout watermark, and the decode-pool
	// fallback threshold. MaxRetries -1 selects the naive health-blind
	// baseline.
	FleetRecoveryPolicy = fleet.RecoveryPolicy
	// AutoscalePolicy tunes the fleet's control loop for
	// FleetConfig.Autoscale: replica bounds, the drain-time hysteresis
	// bands, consecutive-tick debounce, cooldown, and the provision and
	// warm-up costs the payback check prices a scale-out against. The zero
	// value selects sensible defaults.
	AutoscalePolicy = autoscale.Policy
	// FleetScaleEvent is one autoscale action in the run's audit trail.
	FleetScaleEvent = fleet.ScaleEvent
	// FleetTickStat is one control tick's fleet snapshot.
	FleetTickStat = fleet.TickStat
)

// Routing policies.
const (
	Affinity    = fleet.Affinity
	LeastLoaded = fleet.LeastLoaded
	RandomRoute = fleet.Random
)

// Admission and validation sentinels, checkable with errors.Is at every
// layer (serve, batching, fleet).
var (
	ErrInvalidConfig = batching.ErrInvalidConfig
	ErrInfeasible    = batching.ErrInfeasible
	ErrInvalidTrace  = batching.ErrInvalidTrace
	ErrPromptTooLong = batching.ErrPromptTooLong
	ErrNoSlots       = batching.ErrNoSlots
	ErrDeadline      = batching.ErrDeadline
	ErrOverloaded    = batching.ErrOverloaded
	ErrReplicaDown   = batching.ErrReplicaDown
	ErrHedged        = batching.ErrHedged
)

// ParseFaultPlan parses the compact fault DSL — comma-separated terms like
// "crash:1@2+4" (replica 1 crashes at t=2, recovers 4s later),
// "slow:0@1-3x2.5" (replica 0 runs 2.5x slow over [1,3)), "drain:2@5", and
// "link:2.5-3" (handoff link down over [2.5,3)) — into a FaultPlan. This is
// the same syntax estiserve's -fault-plan flag takes.
func ParseFaultPlan(s string) (FaultPlan, error) {
	return faults.Parse(s)
}

// RandomFaultPlan generates a seeded, always-valid fault plan over the
// first `horizon` seconds of a `replicas`-replica fleet — the chaos-testing
// input: same seed, same faults.
func RandomFaultPlan(seed int64, replicas int, horizon float64) FaultPlan {
	return faults.RandomPlan(seed, replicas, horizon)
}

// ZipfPrefixTrace builds a template-heavy workload whose template ranks
// follow a Zipf(s) law: a handful of hot system prompts and a long tail,
// the shape that makes fleet routing matter.
func ZipfPrefixTrace(n int, interarrival float64, prefixLen, templates int, s float64, seed int64) RequestTrace {
	return batching.ZipfPrefixTrace(n, interarrival, prefixLen, templates, s, seed)
}

// WithSLO stamps deadlines and priority tiers onto a copy of the trace:
// highFrac of requests become high tier with half the slack.
func WithSLO(t RequestTrace, slack, highFrac float64, seed int64) RequestTrace {
	return batching.WithSLO(t, slack, highFrac, seed)
}

// SimulateFleet replays a trace through N replicas behind the router.
func SimulateFleet(c FleetConfig, t RequestTrace) (FleetResult, error) {
	return fleet.Simulate(c, t)
}

// CompareRouting replays the same trace under prefix-affinity and random
// routing, isolating what the routing signal is worth.
func CompareRouting(c FleetConfig, t RequestTrace) (FleetRoutingComparison, error) {
	return fleet.CompareRouting(c, t)
}
