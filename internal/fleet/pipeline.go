package fleet

// The paper's static two-tier pipeline as a fleet, and the head-to-head of
// continuous batching against it.

import (
	"fmt"
	"math"

	"esti/internal/batching"
	"esti/internal/hardware"
	"esti/internal/serve"
)

// Pipeline is the two-tier deployment serve.Analyze models, as a fleet: one
// static-batching prefill replica on the prefill tier's slice hands each
// request's KV to one static-batching decode replica on the decode tier's,
// each tier's Batch its replica's Slots ("pipelining a batch-1 prefill
// server into a batch-64 decoding server"). A slot holds c.Context+c.Gen
// tokens; with a PrefixHitRate the prefill replica caches shared prefixes.
func Pipeline(c serve.Config) Config {
	pool := func(t serve.Tier) batching.Config {
		return batching.Config{
			Model: c.Model, Weights: c.Weights, KVDType: c.KVDType, WireDType: c.WireDType,
			System: t.System, FFN: t.FFN, Attn: t.Attn,
			Slots: t.Batch, MaxLen: c.Context + c.Gen, Static: true, Knobs: c.Knobs,
		}
	}
	pre := pool(c.Prefill)
	pre.PrefixCache = c.PrefixHitRate > 0
	return Config{
		Replica: pool(c.Decode), PrefillReplica: &pre,
		PrefillReplicas: 1, DecodeReplicas: 1,
	}
}

// Comparison holds the head-to-head of continuous batching against the
// static two-tier pipeline on the same trace and total chip count.
type Comparison struct {
	Continuous batching.Result
	Static     Result
	// StaticTuned records the tier batches serve.Tune picked for the
	// baseline (it gets its best configuration, not a strawman).
	StaticTuned serve.TuneResult
	// Useful generated-token throughput: each request contributes its
	// actual Gen, so the static pipeline's padded decode steps earn
	// nothing for the padding.
	ContinuousTokensPerSec float64
	StaticTokensPerSec     float64
	// Speedup = continuous / static useful-token throughput.
	Speedup float64
}

// CompareStatic replays the same request trace through both serving
// disciplines at equal total chip count:
//
//   - Continuous: every chip in c.System forms one pool; slot-level
//     admission, per-iteration costs at actual lengths (batching.Simulate).
//   - Static: the chips split into a prefill tier and a decode tier, half
//     each, with tier batches chosen by serve.Tune for maximum throughput,
//     run as a Pipeline on the trace's own arrivals. A static batch has a
//     single shape, so every request is padded to the trace's maximum
//     context and generation length — the padding and batch-drain waste
//     this comparison quantifies.
//
// Useful-token throughput counts only each request's actual Gen tokens.
// The trace must fit c.MaxLen (no rejections).
func CompareStatic(c batching.Config, trace batching.Trace) (Comparison, error) {
	n := c.System.Chips()
	if n < 2 {
		return Comparison{}, fmt.Errorf("fleet: need >= 2 chips to form two static tiers, have %d", n)
	}
	if len(trace.Requests) < 2 {
		return Comparison{}, fmt.Errorf("fleet: trace too short to compare")
	}

	cont, err := batching.Simulate(c, trace)
	if err != nil {
		return Comparison{}, err
	}
	if cont.Rejected > 0 {
		// The static side serves the whole trace, so rejections would skew
		// the comparison in continuous batching's favor.
		return Comparison{}, fmt.Errorf("fleet: %d requests exceed the %d-token slot capacity; comparison requires a fully eligible trace", cont.Rejected, c.MaxLen)
	}

	half := hardware.NewSystem(c.System.Chip, hardware.BestSlice(n/2))
	sc := serve.Config{
		Model:     c.Model,
		Weights:   c.Weights,
		KVDType:   c.KVDType,
		WireDType: c.WireDType,
		Prefill:   serve.Tier{System: half, Batch: 1, FFN: c.FFN, Attn: c.Attn},
		Decode:    serve.Tier{System: half, Batch: 64, FFN: c.FFN, Attn: c.Attn},
		Context:   trace.MaxContext(),
		Gen:       trace.MaxGen(),
		Knobs:     c.Knobs,
	}
	tuned, ok := serve.Tune(sc, math.Inf(1))
	if ok {
		sc.Prefill.Batch = tuned.PrefillBatch
		sc.Decode.Batch = tuned.DecodeBatch
	}
	padded := make([]batching.Request, len(trace.Requests))
	for i, r := range trace.Requests {
		padded[i] = batching.Request{ID: r.ID, Arrival: r.Arrival, Context: sc.Context, Gen: sc.Gen}
	}
	stat, err := Simulate(Pipeline(sc), batching.Trace{Requests: padded})
	if err != nil {
		return Comparison{}, fmt.Errorf("fleet: static baseline: %w", err)
	}

	cmp := Comparison{
		Continuous:             cont,
		Static:                 stat,
		StaticTuned:            tuned,
		ContinuousTokensPerSec: cont.GenTokensPerSec,
		StaticTokensPerSec:     float64(trace.TotalGen()) / stat.Makespan,
	}
	cmp.Speedup = cmp.ContinuousTokensPerSec / cmp.StaticTokensPerSec
	return cmp, nil
}
