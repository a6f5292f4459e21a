// Package serve models the disaggregated serving topology the paper
// sketches under Table 2: a prefill tier running at a latency-optimal batch
// feeding a decode tier running at a throughput-optimal batch ("pipelining a
// batch-1 prefill server into a batch-64 decoding server"). It provides a
// steady-state pipeline analysis and a deterministic discrete-event
// simulation of a request stream, both costed with the perf model.
package serve

import (
	"fmt"
	"math"
	"sort"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
)

// Tier is one stage of the pipeline: a chip slice running one phase at a
// fixed batch.
type Tier struct {
	System hardware.System
	Batch  int
	FFN    partition.FFNLayout
	Attn   partition.AttnLayout
}

// Config describes the two-tier deployment and workload.
type Config struct {
	Model   model.Config
	Weights model.DType
	// KVDType is the KV-cache storage format on both tiers (BF16 default;
	// Int8 halves cache bytes and KV memory traffic, which roughly doubles
	// the context or batch the decode tier can admit — the engine-level
	// counterpart is engine.Options.KVDType).
	KVDType model.DType
	// WireDType is the activation collective payload format on both tiers
	// (BF16 default; Int8 halves exposed communication time — the
	// engine-level counterpart is engine.Options.WireDType).
	WireDType model.DType
	Prefill   Tier
	Decode    Tier
	// Context and Gen are per-request token counts.
	Context int
	Gen     int
	// PrefixHitRate is the fraction of requests whose leading PrefixLen
	// tokens are served from a shared-prefix KV cache (system prompts,
	// few-shot templates), so they prefill only the remaining
	// Context-PrefixLen tokens. Zero models an all-cold workload.
	PrefixHitRate float64
	PrefixLen     int
	Knobs         perf.Knobs
}

// Metrics is the outcome of an analysis or simulation.
type Metrics struct {
	// PrefillService and DecodeService are the batch service times.
	PrefillService float64
	DecodeService  float64
	// PrefillRate and DecodeRate are requests/second each tier sustains.
	PrefillRate float64
	DecodeRate  float64
	// Throughput is the pipeline's sustainable requests/second.
	Throughput float64
	// TokensPerSecond is generated-token throughput.
	TokensPerSecond float64
	// Bottleneck names the limiting tier.
	Bottleneck string
	// MinLatency is the no-queueing request latency (one prefill batch
	// service + one decode batch service).
	MinLatency float64
	// CostPerToken is chip-seconds per generated token across both tiers.
	CostPerToken float64
	// PrefillComm and PrefillCommFloor are the prefill batch's exposed
	// communication time and the serial hop-latency floor inside it
	// (perf.Breakdown.Comm / .CommFloor): Comm - CommFloor is the
	// bandwidth component, the only part Knobs.OverlapFrac can hide.
	PrefillComm      float64
	PrefillCommFloor float64
	// DecodeStepComm and DecodeStepCommFloor are the same split per decode
	// step (the decode phase's comm divided by Gen).
	DecodeStepComm      float64
	DecodeStepCommFloor float64
}

// Analyze computes steady-state pipeline metrics. The prefill tier is
// costed at the workload's expected admission cost: PrefixHitRate of the
// requests skip their cached PrefixLen-token template.
func Analyze(c Config) (Metrics, error) {
	pre := perf.PrefillExpected(perf.Request{
		Model: c.Model, System: c.Prefill.System, Weights: c.Weights,
		KVDType: c.KVDType, WireDType: c.WireDType,
		FFN: c.Prefill.FFN, Attn: c.Prefill.Attn,
		Batch: c.Prefill.Batch, Context: c.Context,
	}, c.Knobs, c.PrefixHitRate, c.PrefixLen)
	if !pre.Feasible {
		return Metrics{}, fmt.Errorf("serve: prefill tier %w: %s", ErrInfeasible, pre.Reason)
	}
	dec := perf.Decode(perf.Request{
		Model: c.Model, System: c.Decode.System, Weights: c.Weights,
		KVDType: c.KVDType, WireDType: c.WireDType,
		FFN: c.Decode.FFN, Attn: c.Decode.Attn,
		Batch: c.Decode.Batch, Context: c.Context, Gen: c.Gen,
	}, c.Knobs)
	if !dec.Feasible {
		return Metrics{}, fmt.Errorf("serve: decode tier %w: %s", ErrInfeasible, dec.Reason)
	}

	m := Metrics{
		PrefillService:      pre.Time,
		DecodeService:       dec.Time,
		PrefillRate:         float64(c.Prefill.Batch) / pre.Time,
		DecodeRate:          float64(c.Decode.Batch) / dec.Time,
		MinLatency:          pre.Time + dec.Time,
		PrefillComm:         pre.Breakdown.Comm,
		PrefillCommFloor:    pre.Breakdown.CommFloor,
		DecodeStepComm:      dec.Breakdown.Comm / float64(c.Gen),
		DecodeStepCommFloor: dec.Breakdown.CommFloor / float64(c.Gen),
	}
	m.Throughput = math.Min(m.PrefillRate, m.DecodeRate)
	m.TokensPerSecond = m.Throughput * float64(c.Gen)
	if m.PrefillRate <= m.DecodeRate {
		m.Bottleneck = "prefill"
	} else {
		m.Bottleneck = "decode"
	}
	chips := float64(c.Prefill.System.Chips() + c.Decode.System.Chips())
	m.CostPerToken = chips / m.TokensPerSecond
	return m, nil
}

// Request is one simulated request.
type Request struct {
	ID      int
	Arrival float64
	// Filled by Simulate:
	PrefillStart, PrefillDone float64
	DecodeStart, Done         float64
}

// Latency is the request's end-to-end time.
func (r Request) Latency() float64 { return r.Done - r.Arrival }

// SimResult summarizes a simulation run.
type SimResult struct {
	Completed       int
	MeanLatency     float64
	P50, P95, P99   float64
	Throughput      float64 // completed requests / makespan
	PrefillBusyFrac float64
	DecodeBusyFrac  float64
	Makespan        float64
	PerRequest      []Request
}

// Simulate runs a deterministic discrete-event simulation: requests arrive
// at a fixed interarrival time, the prefill tier serves them in batches of
// up to Prefill.Batch (partial batches pay full batch service time — the
// server runs whenever work is queued), and the decode tier likewise forms
// batches of up to Decode.Batch. Batch service times come from Analyze's
// perf results, scaled down for partial batches only in occupancy, not
// time (a half-empty batch wastes the idle slots, as in real serving).
func Simulate(c Config, nRequests int, interarrival float64) (SimResult, error) {
	if nRequests < 1 {
		return SimResult{}, fmt.Errorf("serve: %w: %d requests to simulate", ErrInvalidConfig, nRequests)
	}
	if interarrival < 0 || math.IsNaN(interarrival) {
		return SimResult{}, fmt.Errorf("serve: %w: interarrival %g", ErrInvalidConfig, interarrival)
	}
	m, err := Analyze(c)
	if err != nil {
		return SimResult{}, err
	}
	reqs := make([]Request, nRequests)
	for i := range reqs {
		reqs[i] = Request{ID: i, Arrival: float64(i) * interarrival}
	}

	// Prefill tier: batch up whatever is queued when the server frees.
	serverFree := 0.0
	for i := 0; i < nRequests; {
		first := &reqs[i]
		start := math.Max(first.Arrival, serverFree)
		// Admit up to Batch requests that have arrived by start.
		j := i
		for j < nRequests && j-i < c.Prefill.Batch && reqs[j].Arrival <= start {
			j++
		}
		if j == i {
			j = i + 1 // serve the next arrival alone
			start = math.Max(reqs[i].Arrival, serverFree)
		}
		for k := i; k < j; k++ {
			reqs[k].PrefillStart = start
			reqs[k].PrefillDone = start + m.PrefillService
		}
		serverFree = start + m.PrefillService
		i = j
	}

	// Decode tier: same batching discipline over prefill completions.
	order := make([]int, nRequests)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return reqs[order[a]].PrefillDone < reqs[order[b]].PrefillDone
	})
	decFree := 0.0
	for i := 0; i < nRequests; {
		first := &reqs[order[i]]
		start := math.Max(first.PrefillDone, decFree)
		j := i
		for j < nRequests && j-i < c.Decode.Batch && reqs[order[j]].PrefillDone <= start {
			j++
		}
		if j == i {
			j = i + 1
			start = math.Max(first.PrefillDone, decFree)
		}
		for k := i; k < j; k++ {
			reqs[order[k]].DecodeStart = start
			reqs[order[k]].Done = start + m.DecodeService
		}
		decFree = start + m.DecodeService
		i = j
	}

	lat := make([]float64, nRequests)
	makespan := 0.0
	var sum float64
	for i, r := range reqs {
		lat[i] = r.Latency()
		sum += lat[i]
		if r.Done > makespan {
			makespan = r.Done
		}
	}
	sort.Float64s(lat)
	pct := func(p float64) float64 {
		idx := int(p * float64(nRequests-1))
		return lat[idx]
	}
	res := SimResult{
		Completed:   nRequests,
		MeanLatency: sum / float64(nRequests),
		P50:         pct(0.50),
		P95:         pct(0.95),
		P99:         pct(0.99),
		Throughput:  float64(nRequests) / makespan,
		Makespan:    makespan,
		PerRequest:  reqs,
	}
	res.PrefillBusyFrac = busyFrac(reqs, makespan, func(r Request) (float64, float64) {
		return r.PrefillStart, r.PrefillDone
	}, m.PrefillService, c.Prefill.Batch)
	res.DecodeBusyFrac = busyFrac(reqs, makespan, func(r Request) (float64, float64) {
		return r.DecodeStart, r.Done
	}, m.DecodeService, c.Decode.Batch)
	return res, nil
}

// TuneResult is the outcome of Tune: the chosen tier batches with their
// steady-state metrics.
type TuneResult struct {
	PrefillBatch, DecodeBatch int
	Metrics                   Metrics
}

// Tune searches tier batch sizes (powers of two) for the configuration that
// maximizes pipeline throughput subject to a no-queueing latency SLO
// (MinLatency ≤ slo). It automates the choice the paper makes by hand in
// Tables 2-3: small prefill batches for latency, large decode batches for
// MFU, sized so neither tier starves the other more than it must.
func Tune(c Config, slo float64) (TuneResult, bool) {
	best := TuneResult{}
	found := false
	for pb := 1; pb <= 64; pb *= 2 {
		for db := 4; db <= 512; db *= 2 {
			cand := c
			cand.Prefill.Batch = pb
			cand.Decode.Batch = db
			m, err := Analyze(cand)
			if err != nil || m.MinLatency > slo {
				continue
			}
			if !found || m.Throughput > best.Metrics.Throughput {
				best = TuneResult{PrefillBatch: pb, DecodeBatch: db, Metrics: m}
				found = true
			}
		}
	}
	return best, found
}

// busyFrac estimates tier utilization from distinct service windows.
func busyFrac(reqs []Request, makespan float64, window func(Request) (float64, float64), service float64, batch int) float64 {
	if makespan <= 0 {
		return 0
	}
	seen := map[float64]bool{}
	for _, r := range reqs {
		s, _ := window(r)
		seen[s] = true
	}
	return service * float64(len(seen)) / makespan
}
