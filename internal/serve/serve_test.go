package serve

import (
	"math"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
)

// paperConfig is the Table 2 pairing: batch-1 prefill into batch-64 decode,
// both on 64-chip slices, int8 weights.
func paperConfig() Config {
	sys := hardware.TPUv4Slice(4, 4, 4)
	return Config{
		Model:   model.PaLM540BPadded(),
		Weights: model.Int8,
		Prefill: Tier{System: sys, Batch: 1,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads},
		Decode: Tier{System: sys, Batch: 64,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch},
		Context: 2048,
		Gen:     64,
		Knobs:   perf.DefaultKnobs(),
	}
}

func TestAnalyzePaperPairing(t *testing.T) {
	m, err := Analyze(paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Table 2: prefill 0.29s, decode 1.82s.
	if m.PrefillService < 0.2 || m.PrefillService > 0.4 {
		t.Errorf("prefill service %.3fs, want ~0.29s", m.PrefillService)
	}
	if m.DecodeService < 1.4 || m.DecodeService > 2.4 {
		t.Errorf("decode service %.3fs, want ~1.9s", m.DecodeService)
	}
	// The batch-64 decode tier digests 64 requests per ~1.9s while the
	// batch-1 prefill tier serves ~3.4/s: prefill is the bottleneck,
	// which is exactly why the paper pipelines a dedicated prefill fleet.
	if m.Bottleneck != "prefill" {
		t.Errorf("bottleneck = %s, want prefill", m.Bottleneck)
	}
	if m.Throughput != m.PrefillRate {
		t.Errorf("throughput %.3f != bottleneck rate %.3f", m.Throughput, m.PrefillRate)
	}
	if m.MinLatency < 1.6 || m.MinLatency > 2.8 {
		t.Errorf("min latency %.2fs, want ~2.2s (0.29 + 1.9)", m.MinLatency)
	}
	if m.CostPerToken <= 0 {
		t.Error("non-positive cost")
	}
}

// With 2048 input tokens per 64 output tokens, prefill does 32x the token
// work: at equal tier sizes it is always the bottleneck — which is exactly
// why the paper dedicates a prefill fleet. Raising the prefill batch
// improves its rate (better MFU); shrinking the decode batch can flip the
// bottleneck.
func TestRebalancingShiftsBottleneck(t *testing.T) {
	c := paperConfig()
	base, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Prefill.Batch = 16
	big, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if big.Throughput <= base.Throughput {
		t.Errorf("batch-16 prefill throughput %.3f not above batch-1 %.3f",
			big.Throughput, base.Throughput)
	}
	if big.Bottleneck != "prefill" {
		t.Errorf("bottleneck = %s; prefill should still bind at 32:1 token ratio", big.Bottleneck)
	}
	c.Decode.Batch = 4
	small, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if small.Bottleneck != "decode" {
		t.Errorf("bottleneck = %s, want decode once its batch shrinks to 4", small.Bottleneck)
	}
}

func TestAnalyzeInfeasibleTier(t *testing.T) {
	c := paperConfig()
	c.Prefill.System = hardware.TPUv4Slice(1, 1, 1)
	if _, err := Analyze(c); err == nil {
		t.Error("540B prefill on one chip should be infeasible")
	}
	c = paperConfig()
	c.Decode.Attn = partition.AttnShardHeads
	c.Context = 8192
	c.Decode.Batch = 512
	if _, err := Analyze(c); err == nil {
		t.Error("replicated-KV decode at batch 512 ctx 8192 should be infeasible")
	}
}

// Tune must find the hand-picked pairing's neighborhood: under a 2.5s SLO
// it keeps a small prefill batch; relaxing the SLO lets throughput rise by
// batching prefill.
func TestTune(t *testing.T) {
	c := paperConfig()
	tight, ok := Tune(c, 2.5)
	if !ok {
		t.Fatal("no feasible config under 2.5s SLO")
	}
	if tight.Metrics.MinLatency > 2.5 {
		t.Errorf("tuned latency %.2fs violates SLO", tight.Metrics.MinLatency)
	}
	if tight.PrefillBatch > 2 {
		t.Errorf("tight SLO chose prefill batch %d, want 1-2", tight.PrefillBatch)
	}
	loose, ok := Tune(c, 30)
	if !ok {
		t.Fatal("no feasible config under 30s SLO")
	}
	if loose.Metrics.Throughput <= tight.Metrics.Throughput {
		t.Errorf("loose SLO throughput %.2f not above tight %.2f",
			loose.Metrics.Throughput, tight.Metrics.Throughput)
	}
	if loose.PrefillBatch <= tight.PrefillBatch {
		t.Errorf("loose SLO should batch prefill more (%d vs %d)",
			loose.PrefillBatch, tight.PrefillBatch)
	}
	if _, ok := Tune(c, 0.01); ok {
		t.Error("impossible SLO should find nothing")
	}
}

// Analyze must reject every degenerate workload or tier shape with an
// error rather than returning nonsense metrics.
func TestAnalyzeErrorPaths(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero gen", func(c *Config) { c.Gen = 0 }},
		{"negative gen", func(c *Config) { c.Gen = -5 }},
		{"negative context", func(c *Config) { c.Context = -1 }},
		{"zero prefill batch", func(c *Config) { c.Prefill.Batch = 0 }},
		{"zero decode batch", func(c *Config) { c.Decode.Batch = 0 }},
		{"prefill tier OOM", func(c *Config) { c.Prefill.System = hardware.TPUv4Slice(1, 1, 1) }},
		{"decode tier OOM", func(c *Config) {
			c.Decode.Attn = partition.AttnShardHeads
			c.Context = 8192
			c.Decode.Batch = 512
		}},
		{"unknown prefill FFN layout", func(c *Config) { c.Prefill.FFN = partition.FFNLayout(42) }},
		{"unknown decode attention layout", func(c *Config) { c.Decode.Attn = partition.AttnLayout(42) }},
		{"zero decode torus", func(c *Config) { c.Decode.System.Torus = hardware.Torus{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := paperConfig()
			tc.mutate(&c)
			if _, err := Analyze(c); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// Bottleneck identification over tier-batch pairings: at the paper's 32:1
// input:output token ratio the prefill tier binds unless the decode batch
// is starved.
func TestBottleneckTable(t *testing.T) {
	cases := []struct {
		name   string
		pb, db int
		want   string
	}{
		{"paper pairing", 1, 64, "prefill"},
		{"batched prefill", 16, 64, "prefill"},
		{"huge decode batch", 1, 256, "prefill"},
		{"starved decode", 16, 4, "decode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := paperConfig()
			c.Prefill.Batch = tc.pb
			c.Decode.Batch = tc.db
			m, err := Analyze(c)
			if err != nil {
				t.Fatal(err)
			}
			if m.Bottleneck != tc.want {
				t.Errorf("bottleneck = %s, want %s", m.Bottleneck, tc.want)
			}
			wantRate := m.PrefillRate
			if tc.want == "decode" {
				wantRate = m.DecodeRate
			}
			if m.Throughput != wantRate {
				t.Errorf("throughput %.3f != %s rate %.3f", m.Throughput, tc.want, wantRate)
			}
		})
	}
}

// Tune edge cases: impossible SLOs find nothing, infeasible configs find
// nothing, and the search respects its bounds.
func TestTuneDegenerate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		slo    float64
		wantOK bool
	}{
		{"paper SLO", nil, 2.5, true},
		{"unbounded SLO", nil, math.Inf(1), true},
		{"impossible SLO", nil, 0.01, false},
		{"zero SLO", nil, 0, false},
		{"zero gen never analyzes", func(c *Config) { c.Gen = 0 }, 30, false},
		{"tiers always OOM", func(c *Config) {
			c.Prefill.System = hardware.TPUv4Slice(1, 1, 1)
			c.Decode.System = hardware.TPUv4Slice(1, 1, 1)
		}, 30, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := paperConfig()
			if tc.mutate != nil {
				tc.mutate(&c)
			}
			res, ok := Tune(c, tc.slo)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if ok {
				if res.PrefillBatch < 1 || res.PrefillBatch > 64 ||
					res.DecodeBatch < 4 || res.DecodeBatch > 512 {
					t.Errorf("tuned batches %d/%d out of search bounds",
						res.PrefillBatch, res.DecodeBatch)
				}
				if res.Metrics.MinLatency > tc.slo {
					t.Errorf("latency %.2f violates SLO %.2f", res.Metrics.MinLatency, tc.slo)
				}
			}
		})
	}
}

func TestMetricsArithmetic(t *testing.T) {
	m, err := Analyze(paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TokensPerSecond-m.Throughput*64) > 1e-9 {
		t.Error("tokens/s != throughput × gen")
	}
	wantCost := 128 / m.TokensPerSecond
	if math.Abs(m.CostPerToken-wantCost) > 1e-12 {
		t.Errorf("cost %.4f, want %.4f", m.CostPerToken, wantCost)
	}
}

// The prefix-hit-rate knob flows through Analyze: a template-heavy
// workload has a faster prefill tier, which can flip the bottleneck and
// raise sustainable throughput; an invalid knob is an error.
func TestAnalyzePrefixHitRate(t *testing.T) {
	cold := paperConfig()
	warm := paperConfig()
	warm.PrefixHitRate = 0.9
	warm.PrefixLen = 1792

	mc, err := Analyze(cold)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := Analyze(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !(mw.PrefillService < mc.PrefillService) {
		t.Errorf("prefix hits did not shrink prefill service: %g vs %g",
			mw.PrefillService, mc.PrefillService)
	}
	if mw.PrefillRate <= mc.PrefillRate {
		t.Errorf("prefix hits did not raise prefill rate: %g vs %g",
			mw.PrefillRate, mc.PrefillRate)
	}
	if mw.Throughput < mc.Throughput {
		t.Errorf("prefix hits lowered pipeline throughput: %g vs %g",
			mw.Throughput, mc.Throughput)
	}

	bad := paperConfig()
	bad.PrefixHitRate = 2
	bad.PrefixLen = 128
	if _, err := Analyze(bad); err == nil {
		t.Error("hit rate 2 accepted")
	}
	bad = paperConfig()
	bad.PrefixHitRate = 0.5
	bad.PrefixLen = bad.Context
	if _, err := Analyze(bad); err == nil {
		t.Error("prefix length == context accepted")
	}
}

// Tune sees the knob through Analyze: a high hit rate can only improve (or
// keep) the best achievable throughput under the same SLO.
func TestTuneWithPrefixHitRate(t *testing.T) {
	cold := paperConfig()
	warm := paperConfig()
	warm.PrefixHitRate = 0.9
	warm.PrefixLen = 1792

	tc, okc := Tune(cold, math.Inf(1))
	tw, okw := Tune(warm, math.Inf(1))
	if !okc || !okw {
		t.Fatal("tune failed")
	}
	if tw.Metrics.Throughput < tc.Metrics.Throughput {
		t.Errorf("tuned throughput dropped with prefix hits: %g vs %g",
			tw.Metrics.Throughput, tc.Metrics.Throughput)
	}
}
