package fleet

import (
	"errors"
	"math"
	"testing"

	"esti/internal/batching"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
)

// replicaConfig is one fleet replica: PaLM 540B int8 weights on a 64-chip
// slice, the paper's decode configuration, with the prefix cache on — the
// same blueprint the batching tests use, stamped N times by the fleet.
func replicaConfig() batching.Config {
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

// zipfTrace: long shared templates (1024 of up to ~1400 prompt tokens) with
// Zipf-popular template ranks — the workload where routing decides how many
// cold template prefills the fleet pays.
func zipfTrace(n int, interarrival float64, seed int64) batching.Trace {
	return batching.ZipfPrefixTrace(n, interarrival, 1024, 48, 1.3, seed)
}

func TestFleetAccounting(t *testing.T) {
	c := Config{Replica: replicaConfig(), Replicas: 4, Policy: Affinity}
	trace := zipfTrace(200, 0.02, 7)
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 200 || res.Rejected != 0 || res.Shed != 0 {
		t.Fatalf("completed %d rejected %d shed %d, want 200/0/0", res.Completed, res.Rejected, res.Shed)
	}
	if res.GenTokens != trace.TotalGen() {
		t.Errorf("GenTokens %d != trace total %d", res.GenTokens, trace.TotalGen())
	}
	if res.GoodTokens != res.GenTokens {
		t.Errorf("no deadlines set, but GoodTokens %d != GenTokens %d", res.GoodTokens, res.GenTokens)
	}
	if res.Makespan <= 0 || res.GenTokensPerSec <= 0 || res.GoodputPerChip <= 0 {
		t.Errorf("degenerate aggregates: %+v", res)
	}
	if res.P99 < res.P50 || res.P50 <= 0 {
		t.Errorf("percentiles out of order: p50 %.3f p99 %.3f", res.P50, res.P99)
	}
	routed, completed, local := 0, 0, 0
	for _, r := range res.PerReplica {
		if r.Role != "unified" {
			t.Fatalf("unexpected role %q", r.Role)
		}
		routed += r.Routed
		completed += r.Completed
		local += r.LocalTokens
	}
	if routed != 200 || completed != 200 {
		t.Errorf("per-replica routed %d completed %d, want 200/200", routed, completed)
	}
	if local != res.GenTokens {
		t.Errorf("per-replica tokens %d != fleet GenTokens %d", local, res.GenTokens)
	}
	if res.AffinityHits+res.AffinityMisses != 200 {
		t.Errorf("affinity accounting %d+%d != 200 templated requests", res.AffinityHits, res.AffinityMisses)
	}
	// Affinity routing pins each template to one replica: at most one cold
	// miss per template (48) plus bounded-load spills.
	if res.AffinityHits < 120 {
		t.Errorf("affinity routing hit only %d/200", res.AffinityHits)
	}
	if len(res.Outcomes) != 200 {
		t.Fatalf("%d outcomes for 200 requests", len(res.Outcomes))
	}
	for _, o := range res.Outcomes {
		if o.Err != nil || o.Replica < 0 || o.Replica >= 4 {
			t.Fatalf("outcome %+v on a no-shed run", o)
		}
	}
	// Determinism: same config and trace, same result.
	again, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if again.Makespan != res.Makespan || again.AffinityHits != res.AffinityHits {
		t.Error("fleet simulation not deterministic")
	}
}

// The tentpole's routing claim: on a Zipf-popular template stream,
// prefix-affinity routing beats random routing on generated-token
// throughput, because it converts each hot template's stream into prefix
// hits on one replica instead of cold misses on many.
func TestAffinityBeatsRandom(t *testing.T) {
	c := Config{Replica: replicaConfig(), Replicas: 4}
	cmp, err := CompareRouting(c, zipfTrace(400, 0.02, 11))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Affinity.Completed != 400 || cmp.Random.Completed != 400 {
		t.Fatalf("completions: affinity %d random %d", cmp.Affinity.Completed, cmp.Random.Completed)
	}
	if cmp.Affinity.AffinityHits <= cmp.Random.AffinityHits {
		t.Errorf("affinity hit %d, random hit %d — routing signal not working",
			cmp.Affinity.AffinityHits, cmp.Random.AffinityHits)
	}
	if cmp.Speedup <= 1 {
		t.Errorf("affinity %.1f tok/s not above random %.1f tok/s (speedup %.3f)",
			cmp.Affinity.GenTokensPerSec, cmp.Random.GenTokensPerSec, cmp.Speedup)
	}
	t.Logf("affinity %.0f tok/s (%d/%d hits) vs random %.0f tok/s (%d hits): %.2fx",
		cmp.Affinity.GenTokensPerSec, cmp.Affinity.AffinityHits,
		cmp.Affinity.AffinityHits+cmp.Affinity.AffinityMisses,
		cmp.Random.GenTokensPerSec, cmp.Random.AffinityHits, cmp.Speedup)
}

func TestDisaggregatedPools(t *testing.T) {
	c := Config{
		Replica:         replicaConfig(),
		PrefillReplicas: 2,
		DecodeReplicas:  2,
		Policy:          Affinity,
	}
	trace := zipfTrace(120, 0.05, 3)
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 120 {
		t.Fatalf("completed %d/120", res.Completed)
	}
	if res.Handoffs != 120 || res.HandoffBytes <= 0 {
		t.Errorf("handoffs %d bytes %.0f, want 120 with positive bytes", res.Handoffs, res.HandoffBytes)
	}
	if res.GenTokens != trace.TotalGen() {
		t.Errorf("GenTokens %d != trace total %d", res.GenTokens, trace.TotalGen())
	}
	prefillTok, decodeTok := 0, 0
	for _, r := range res.PerReplica {
		switch r.Role {
		case "prefill":
			prefillTok += r.LocalTokens
			if r.Completed != 0 {
				t.Errorf("prefill replica credited %d completions", r.Completed)
			}
		case "decode":
			decodeTok += r.LocalTokens
		default:
			t.Fatalf("unexpected role %q", r.Role)
		}
	}
	// Each request's first token came from the prefill pool, the rest from
	// decode: the pools' local tokens must sum to the fleet total exactly
	// once (no double counting).
	if prefillTok != 120 {
		t.Errorf("prefill pool tokens %d, want one per request", prefillTok)
	}
	if prefillTok+decodeTok != res.GenTokens {
		t.Errorf("pool tokens %d+%d != fleet GenTokens %d", prefillTok, decodeTok, res.GenTokens)
	}
}

func TestSLOShedding(t *testing.T) {
	c := Config{Replica: replicaConfig(), Replicas: 2, Policy: Affinity}
	// A burst of simultaneous arrivals with deadlines only the first few can
	// meet: the router must shed the rest with ErrDeadline, and goodput must
	// count only in-deadline tokens.
	trace := batching.Trace{}
	for i := 0; i < 80; i++ {
		trace.Requests = append(trace.Requests, batching.Request{
			ID: i, Arrival: 0, Context: 512, Gen: 64, Deadline: 2.0, Slot: -1,
		})
	}
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("no requests shed under an unmeetable burst")
	}
	if res.Completed+res.Shed != 80 {
		t.Errorf("completed %d + shed %d != 80", res.Completed, res.Shed)
	}
	sawDeadline := false
	for _, o := range res.Outcomes {
		if o.Err == nil {
			continue
		}
		if errors.Is(o.Err, batching.ErrDeadline) {
			sawDeadline = true
		} else if !errors.Is(o.Err, batching.ErrOverloaded) {
			t.Errorf("unexpected shed error: %v", o.Err)
		}
	}
	if !sawDeadline {
		t.Error("no outcome carries ErrDeadline")
	}
	if res.GoodTokens > res.GenTokens {
		t.Errorf("goodput %d above total %d", res.GoodTokens, res.GenTokens)
	}
}

func TestQueueCapShedsLowTierOnly(t *testing.T) {
	c := Config{Replica: replicaConfig(), Replicas: 1, Policy: Affinity, MaxQueue: 4}
	trace := batching.Trace{}
	for i := 0; i < 120; i++ {
		r := batching.Request{ID: i, Arrival: 0, Context: 512, Gen: 32, Slot: -1}
		if i%4 == 0 {
			r.Priority = 1
		}
		trace.Requests = append(trace.Requests, r)
	}
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("queue cap shed nothing under a 120-request burst")
	}
	for _, o := range res.Outcomes {
		if errors.Is(o.Err, batching.ErrOverloaded) && o.Req.Priority > 0 {
			t.Errorf("high-priority request %d shed for overload", o.Req.ID)
		}
	}
	// Every high-tier request survives: admitted past the cap by design.
	high, highDone := 0, 0
	for _, o := range res.Outcomes {
		if o.Req.Priority > 0 {
			high++
			if o.Err == nil {
				highDone++
			}
		}
	}
	if highDone != high {
		t.Errorf("only %d/%d high-tier requests served under overload", highDone, high)
	}
}

func TestFleetRejectsOversizedAndInvalid(t *testing.T) {
	c := Config{Replica: replicaConfig(), Replicas: 2}
	trace := batching.Trace{Requests: []batching.Request{
		{ID: 0, Arrival: 0, Context: 512, Gen: 32, Slot: -1},
		{ID: 1, Arrival: 0.1, Context: c.Replica.MaxLen, Gen: 64, Slot: -1},
	}}
	res, err := Simulate(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Rejected != 1 {
		t.Fatalf("completed %d rejected %d, want 1/1", res.Completed, res.Rejected)
	}
	for _, o := range res.Outcomes {
		if o.Req.ID == 1 && !errors.Is(o.Err, batching.ErrPromptTooLong) {
			t.Errorf("oversized request outcome %v, want ErrPromptTooLong", o.Err)
		}
	}

	bad := batching.Trace{Requests: []batching.Request{{ID: 0, Arrival: -1, Context: 64, Gen: 8}}}
	if _, err := Simulate(c, bad); !errors.Is(err, batching.ErrInvalidTrace) {
		t.Errorf("malformed trace: got %v, want ErrInvalidTrace", err)
	}

	if _, err := Simulate(Config{Replica: replicaConfig()}, trace); !errors.Is(err, batching.ErrInvalidConfig) {
		t.Error("zero replicas accepted")
	}
	if _, err := Simulate(Config{Replica: replicaConfig(), PrefillReplicas: 1}, trace); !errors.Is(err, batching.ErrInvalidConfig) {
		t.Error("disaggregated fleet without decode replicas accepted")
	}
	for name, bad := range map[string]Config{
		"negative MaxQueue":     {Replica: replicaConfig(), Replicas: 2, MaxQueue: -1},
		"NaN BrownoutBelow":     {Replica: replicaConfig(), Replicas: 2, Recovery: RecoveryPolicy{BrownoutBelow: math.NaN()}},
		"BrownoutBelow above 1": {Replica: replicaConfig(), Replicas: 2, Recovery: RecoveryPolicy{BrownoutBelow: 1.5}},
		"unknown Policy":        {Replica: replicaConfig(), Replicas: 2, Policy: Random + 1},
	} {
		if _, err := Simulate(bad, trace); !errors.Is(err, batching.ErrInvalidConfig) {
			t.Errorf("%s accepted: err %v, want ErrInvalidConfig", name, err)
		}
	}
}

// A one-replica fleet with no faults, no autoscale and no SLO is the
// single-replica scheduler behind a router with one choice: it must
// reproduce batching.Simulate request by request and in every aggregate.
// This is the equivalence that lets one serving loop wrap the other.
func TestOneReplicaFleetIsBatchingSimulate(t *testing.T) {
	noCache := replicaConfig()
	noCache.PrefixCache, noCache.MaxAdmit = false, 4
	chunked := replicaConfig()
	chunked.PrefillChunk = 256
	static := replicaConfig()
	static.Static = true
	for _, tc := range []struct {
		name  string
		c     batching.Config
		trace batching.Trace
	}{
		{"prefix-cache", replicaConfig(), zipfTrace(200, 0.02, 7)},
		{"no-cache-maxadmit4", noCache, batching.ChatbotTrace(200, 0.05, 1)},
		{"chunk256", chunked, zipfTrace(150, 0.01, 3)},
		{"static", static, zipfTrace(200, 0.02, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := batching.Simulate(tc.c, tc.trace)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(Config{Replica: tc.c, Replicas: 1, Policy: Affinity}, tc.trace)
			if err != nil {
				t.Fatal(err)
			}
			byID := map[int]*batching.Request{}
			var lat []float64
			for _, o := range got.Outcomes {
				if o.Err != nil {
					t.Fatalf("request %d: %v", o.Req.ID, o.Err)
				}
				byID[o.Req.ID] = o.Req
				lat = append(lat, o.Req.Latency())
			}
			if len(byID) != len(want.PerRequest) {
				t.Fatalf("fleet finished %d requests, batching %d", len(byID), len(want.PerRequest))
			}
			for _, w := range want.PerRequest {
				g := byID[w.ID]
				if g == nil || g.Admitted != w.Admitted || g.Done != w.Done || g.Slot != w.Slot {
					t.Fatalf("first differing request %d: fleet %+v, batching %+v", w.ID, g, w)
				}
			}
			// The fleet reports no admission-time prefix hits: its
			// AffinityHits count arrivals routed to an already-warm
			// replica, a different quantity (a request queued behind its
			// template's first prefill misses at arrival and hits at
			// admission). An admission that skipped a different prefix
			// would show in the Admitted and Done times compared above.
			type agg struct {
				Completed, GenTokens    int
				Makespan, P50, P95, P99 float64
			}
			g := agg{got.Completed, got.GenTokens, got.Makespan, got.P50, batching.Percentile(lat, 0.95), got.P99}
			w := agg{want.Completed, want.GenTokens, want.Makespan, want.P50, want.P95, want.P99}
			if g != w {
				t.Errorf("aggregates differ:\nfleet    %+v\nbatching %+v", g, w)
			}
		})
	}
}
