package fleet

import (
	"errors"
	"testing"

	"esti/internal/batching"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/serve"
)

// continuousConfig is the paper's chatbot serving target run as one
// continuous-batching pool: the fleet replica blueprint without the prefix
// cache.
func continuousConfig() batching.Config {
	c := replicaConfig()
	c.PrefixCache = false
	return c
}

// unequalPools is a disaggregated fleet whose pools differ: two 32-chip
// prefill replicas with 32 slots beside two 64-chip decode replicas.
func unequalPools() Config {
	pre := replicaConfig()
	pre.System = hardware.TPUv4Slice(2, 4, 4)
	pre.Slots = 32
	return Config{Replica: replicaConfig(), PrefillReplica: &pre,
		PrefillReplicas: 2, DecodeReplicas: 2, Policy: Affinity}
}

// A trace with rejections would skew the static comparison (the static side
// serves the whole trace), so CompareStatic must refuse it.
func TestCompareStaticRejectsIneligibleTrace(t *testing.T) {
	c := continuousConfig()
	c.MaxLen = 512 // 1024- and 2048-context requests no longer fit
	if _, err := CompareStatic(c, batching.ChatbotTrace(40, 0.1, 1)); err == nil {
		t.Error("comparison over a partially rejected trace accepted")
	}
}

// The acceptance criterion of continuous batching: on a mixed-length
// chatbot trace against PaLM 540B, iteration-level batching sustains
// strictly higher useful generated-token throughput than the tuned static
// two-tier pipeline at equal total chip count.
func TestContinuousBeatsStaticOnMixedTrace(t *testing.T) {
	c := continuousConfig()
	// Heavy traffic: arrivals well above either system's capacity, so the
	// comparison measures sustained service rate, not the arrival process.
	trace := batching.ChatbotTrace(120, 0.05, 1)
	cmp, err := CompareStatic(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Continuous.Completed != 120 {
		t.Fatalf("continuous completed %d/120", cmp.Continuous.Completed)
	}
	if cmp.StaticTokensPerSec <= 0 {
		t.Fatalf("static baseline produced no tokens: %+v", cmp.Static)
	}
	if cmp.ContinuousTokensPerSec <= cmp.StaticTokensPerSec {
		t.Errorf("continuous %.1f tok/s not above static %.1f tok/s",
			cmp.ContinuousTokensPerSec, cmp.StaticTokensPerSec)
	}
	t.Logf("continuous %.1f tok/s vs static %.1f tok/s (speedup %.2fx, occupancy %.0f%%)",
		cmp.ContinuousTokensPerSec, cmp.StaticTokensPerSec, cmp.Speedup,
		cmp.Continuous.MeanOccupancy*100)
}

// GoodputPerChip divides by every replica's own slice: 2×32 + 2×64 chips
// here, not the fleet size times the decode replica's 64.
func TestUnequalPoolsGoodputPerChip(t *testing.T) {
	res, err := Simulate(unequalPools(), zipfTrace(120, 0.02, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 120 || res.GoodTokens == 0 {
		t.Fatalf("completed %d/120, good tokens %d", res.Completed, res.GoodTokens)
	}
	want := float64(res.GoodTokens) / (res.Makespan * (2*32 + 2*64))
	if res.GoodputPerChip != want {
		t.Errorf("GoodputPerChip %.6f, want %.6f over 192 chips", res.GoodputPerChip, want)
	}
	for i, r := range res.PerReplica {
		if r.Busy <= 0 || r.Busy > res.Makespan {
			t.Errorf("replica %d (%s) busy %.3fs outside (0, makespan %.3fs]", i, r.Role, r.Busy, res.Makespan)
		}
	}
}

// The decode pool imports the prefill pool's KV, so the two must agree on
// its model and format, and a decode slot must hold whatever the prefill
// pool admits.
func TestUnequalPoolsMustShareKV(t *testing.T) {
	for name, mutate := range map[string]func(*batching.Config){
		"KV format": func(p *batching.Config) { p.KVDType = model.Int8 },
		"capacity":  func(p *batching.Config) { p.MaxLen++ },
	} {
		c := unequalPools()
		pre := *c.PrefillReplica
		mutate(&pre)
		c.PrefillReplica = &pre
		if _, err := Simulate(c, zipfTrace(10, 0.02, 5)); !errors.Is(err, batching.ErrInvalidConfig) {
			t.Errorf("%s mismatch: err %v, want ErrInvalidConfig", name, err)
		}
	}
}

// paperPipeline is the Table 2 pairing, batch-1 prefill into batch-64
// decode on 64-chip slices, sized for zipfTrace's requests.
func paperPipeline() serve.Config {
	sys := hardware.TPUv4Slice(4, 4, 4)
	return serve.Config{
		Model:   model.PaLM540BPadded(),
		Weights: model.Int8,
		Prefill: serve.Tier{System: sys, Batch: 1,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads},
		Decode: serve.Tier{System: sys, Batch: 64,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch},
		Context: 2048,
		Gen:     256,
		Knobs:   perf.DefaultKnobs(),
	}
}
