// Package batching implements iteration-level ("continuous") batching for
// the decode phase, the scheduling discipline serving systems such as
// DeepSpeed Inference and Orca use to keep the decode batch full under
// heavy, mixed-length traffic. It schedules at the granularity the paper's
// cost model already exposes: one decode step. Each request owns one
// KV-cache slot from admission to completion; the moment a sequence
// finishes, its slot is released and the next queued prompt is prefilled
// into it while the rest of the batch keeps decoding (the engine-level
// counterpart is engine.PrefillSlot + engine.DecodeSlotsInto).
//
// All times come from the calibrated perf model: admission pays the batch-1
// prefill cost of the actual prompt length, and every iteration pays one
// decode-step cost at the *actual* batch occupancy and mean context — no
// padding to the longest sequence. Config.Static selects the other
// discipline, the static batches of the paper's two-tier pipeline (every
// sequence enters and leaves together, padded to a common shape), on the
// same scheduler; package fleet sets the two against each other.
//
// Two admission optimizations ride on top. Prefix caching
// (Config.PrefixCache) lets requests that share a prompt template skip its
// prefill after the template's first admission — the serving-layer view of
// engine.PrefillSlotCached — and CompareNoCache quantifies the useful-token
// win on template-heavy traffic. Chunked prefill (Config.PrefillChunk)
// admits long cold prompts in bounded per-iteration chunks interleaved
// with decode steps, capping the decode-latency stall an arrival can
// inflict on running sequences (Result.MaxIterTime).
//
// # Sentinel errors
//
// This package is the single home of the sentinel family every serving
// layer (serve, batching, fleet) shares; all of them are checkable with
// errors.Is against wrapped returns:
//
//   - ErrInvalidConfig — a configuration that can never run (bad slot
//     count, capacity, chunk size; an invalid fault plan).
//   - ErrInfeasible — a deployment the perf model rejects at full
//     occupancy. Identical to serve.ErrInfeasible.
//   - ErrInvalidTrace — a malformed trace request (non-finite arrival,
//     prefix outside the prompt): a bug, not load.
//   - ErrPromptTooLong — Context+Gen exceed per-slot KV capacity; no slot
//     could ever hold the request.
//   - ErrNoSlots — admission refused with every slot occupied and the
//     queue at its bound.
//   - ErrDeadline — shed because the estimated completion already misses
//     the request's deadline, at admission or on a post-crash retry (the
//     fleet counts the two separately: Result.Shed vs Result.ShedRetry).
//   - ErrOverloaded — a low-priority request shed under overload (queue
//     cap or brownout) so higher tiers keep their SLO.
//   - ErrReplicaDown — work lost to a replica failure: the terminal
//     outcome after retries are exhausted, and the wasted-work cause for
//     KV that died in a crash.
//   - ErrHedged — the losing copy of a hedged request; its tokens count
//     as wasted work, the caller still gets the winner's.
package batching

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
)

// Request is one serving request in a trace: a prompt of Context tokens
// arriving at Arrival, wanting Gen generated tokens.
type Request struct {
	ID      int
	Arrival float64
	Context int
	Gen     int
	// Template identifies the shared prompt this request opens with (0 =
	// none): its first PrefixLen tokens are identical across every request
	// carrying the same Template — a system prompt or few-shot preamble.
	// With Config.PrefixCache enabled, the first admission of a template
	// prefills and caches those tokens and every later admission skips
	// them, prefilling only its Context-PrefixLen suffix.
	Template  int
	PrefixLen int
	// Deadline is the absolute time by which the request's last token must
	// be generated (0 = no deadline). The single-replica Simulate records
	// but does not enforce it; the fleet router's SLO admission sheds
	// requests whose estimated completion misses it (ErrDeadline) and
	// counts completions past it against goodput.
	Deadline float64
	// Priority orders admission under contention: higher values are
	// admitted first (equal priorities stay FIFO; the zero value reproduces
	// plain FIFO). Under overload the fleet sheds the lowest tier first.
	Priority int
	// Filled by Simulate:
	Admitted float64 // when the request entered a slot
	Done     float64 // when its last token was generated
	Slot     int     // the slot it occupied (-1 if rejected)
}

// Latency is the request's end-to-end time including queueing.
func (r Request) Latency() float64 { return r.Done - r.Arrival }

// Trace is an ordered request stream.
type Trace struct {
	Requests []Request
}

// MaxContext returns the longest prompt in the trace.
func (t Trace) MaxContext() int {
	max := 0
	for _, r := range t.Requests {
		if r.Context > max {
			max = r.Context
		}
	}
	return max
}

// MaxGen returns the longest generation length in the trace.
func (t Trace) MaxGen() int {
	max := 0
	for _, r := range t.Requests {
		if r.Gen > max {
			max = r.Gen
		}
	}
	return max
}

// TotalGen sums the useful (requested) generation lengths.
func (t Trace) TotalGen() int {
	total := 0
	for _, r := range t.Requests {
		total += r.Gen
	}
	return total
}

// ChatbotTrace builds a deterministic mixed-length chatbot workload in the
// neighborhood of the paper's chatbot setting (2048 input / 64 output):
// prompts range from short follow-up turns to full-context documents and
// generation lengths from terse answers to long completions, arriving at a
// fixed interarrival. The mix is what static batching cannot exploit — a
// static batch pads every sequence to the longest — and what slot-level
// admission feeds on.
func ChatbotTrace(n int, interarrival float64, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	contexts := []int{128, 256, 512, 1024, 2048}
	ctxWeights := []float64{0.15, 0.25, 0.3, 0.2, 0.1}
	gens := []int{16, 32, 64, 128, 256}
	genWeights := []float64{0.2, 0.3, 0.3, 0.15, 0.05}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			ID:      i,
			Arrival: float64(i) * interarrival,
			Context: contexts[pick(rng, ctxWeights)],
			Gen:     gens[pick(rng, genWeights)],
			Slot:    -1,
		}
	}
	return Trace{Requests: reqs}
}

// SharedPrefixTrace builds a template-heavy chatbot workload: every request
// opens with one of `templates` shared prefixLen-token system prompts and
// appends a short user turn, the traffic shape of a production assistant
// serving millions of users from a handful of prompt templates. Without
// prefix caching each admission re-prefills the template; with it only the
// first request per template pays, which CompareNoCache quantifies.
func SharedPrefixTrace(n int, interarrival float64, prefixLen, templates int, seed int64) Trace {
	if templates < 1 {
		templates = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return templateTrace(n, interarrival, prefixLen, rng, func() int { return 1 + rng.Intn(templates) })
}

// ZipfPrefixTrace is SharedPrefixTrace with Zipf-distributed template
// popularity: template ranks are drawn from a Zipf(s) law, so a handful of
// head templates dominate the stream while a long tail appears rarely —
// the popularity shape of real multi-tenant template traffic, and the one
// that makes prefix-affinity routing matter (a router that concentrates
// each hot template's requests on one replica turns almost all of them
// into prefix hits; spreading them uniformly warms every replica's cache
// with every template before hits accrue). s must be > 1 (larger = more
// skewed; ~1.1 is mild, ~2 is heavily head-dominated).
func ZipfPrefixTrace(n int, interarrival float64, prefixLen, templates int, s float64, seed int64) Trace {
	if templates < 1 {
		templates = 1
	}
	if s <= 1 {
		s = 1.0001
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, s, 1, uint64(templates-1))
	return templateTrace(n, interarrival, prefixLen, rng, func() int { return 1 + int(zipf.Uint64()) })
}

// templateTrace is the body of both template traces; draw picks each
// request's template. Per request the suffix length, the generation length
// and then the template are drawn, in that order, so each trace's stream
// of rng draws is fixed by its seed.
func templateTrace(n int, interarrival float64, prefixLen int, rng *rand.Rand, draw func() int) Trace {
	suffixes := []int{32, 64, 128, 256}
	sufWeights := []float64{0.3, 0.3, 0.25, 0.15}
	gens := []int{16, 32, 64, 128}
	genWeights := []float64{0.25, 0.35, 0.25, 0.15}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			ID:        i,
			Arrival:   float64(i) * interarrival,
			Context:   prefixLen + suffixes[pick(rng, sufWeights)],
			Gen:       gens[pick(rng, genWeights)],
			Template:  draw(),
			PrefixLen: prefixLen,
			Slot:      -1,
		}
	}
	return Trace{Requests: reqs}
}

// WithSLO stamps deadlines and priority tiers onto a trace: every request
// gets Deadline = Arrival + slack, and a highFrac fraction are promoted to
// Priority 1 with the tighter slack/2 deadline — the latency-critical tier
// the fleet's SLO admission protects under overload. The input trace is
// unchanged; a stamped copy is returned.
func WithSLO(t Trace, slack, highFrac float64, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, len(t.Requests))
	copy(reqs, t.Requests)
	for i := range reqs {
		if rng.Float64() < highFrac {
			reqs[i].Priority = 1
			reqs[i].Deadline = reqs[i].Arrival + slack/2
		} else {
			reqs[i].Deadline = reqs[i].Arrival + slack
		}
	}
	return Trace{Requests: reqs}
}

func pick(rng *rand.Rand, weights []float64) int {
	r := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Config describes the continuous-batching deployment: one chip slice
// serving both phases, with Slots concurrent sequences.
type Config struct {
	Model   model.Config
	Weights model.DType
	// KVDType is the KV-cache storage format (BF16 default). Int8 halves
	// per-slot cache bytes, so the same HBM admits roughly twice the
	// Slots×MaxLen product — the admission budget validate() enforces —
	// and every decode iteration pays half the KV memory traffic.
	KVDType model.DType
	// WireDType is the activation collective payload format (BF16
	// default; Int8 halves every iteration's exposed communication time —
	// the engine-level counterpart is engine.Options.WireDType).
	WireDType model.DType
	System    hardware.System
	FFN       partition.FFNLayout
	Attn      partition.AttnLayout
	// Slots is the number of concurrent sequences (the decode batch when
	// full).
	Slots int
	// MaxLen is the per-slot KV capacity; requests with Context+Gen >
	// MaxLen are rejected at admission.
	MaxLen int
	// MaxAdmit caps admissions per iteration (0 = no cap). Inline prefill
	// stalls the whole batch for its duration, so real schedulers bound
	// how much prefill work a single iteration may absorb.
	MaxAdmit int
	// PrefixCache enables shared-prefix reuse: the first admission of each
	// Template prefills and caches its PrefixLen-token prompt prefix; every
	// later admission of that template skips it, prefilling only the
	// suffix (the engine-level counterpart is engine.PrefillSlotCached).
	PrefixCache bool
	// PrefillChunk bounds the *total* prompt tokens prefilled per
	// iteration across all slots (0 = whole prompts inline at admission).
	// Chunking admits long cold prompts incrementally, interleaved with
	// decode iterations: a 2048-token arrival stalls each decode step by
	// at most one chunk's prefill instead of stalling the batch for the
	// entire prompt — Result.MaxIterTime is the decode-latency cap this
	// buys, at the price of later first tokens for the chunked prompts.
	PrefillChunk int
	// Static selects the static batching of the paper's two-tier pipeline
	// instead of slot-level admission: the replica admits only when every
	// slot is free, taking up to Slots queued requests as one group; the
	// group prefills in one pass at batch Slots over its padded shape (the
	// longest uncached suffix on top of the shortest cached prefix), and
	// every decode step costs a full batch of Slots at the group's longest
	// context whatever the occupancy — partial batches pay full batch
	// service time. EstimateFinish and Snapshot keep their slot-level
	// estimates, an optimistic bound here. Incompatible with PrefillChunk.
	Static bool
	Knobs  perf.Knobs
}

func (c Config) validate() error {
	if c.Slots < 1 {
		return fmt.Errorf("batching: %w: %d slots", ErrInvalidConfig, c.Slots)
	}
	if c.MaxLen < 2 {
		return fmt.Errorf("batching: %w: per-slot capacity %d < 2", ErrInvalidConfig, c.MaxLen)
	}
	if c.PrefillChunk < 0 {
		return fmt.Errorf("batching: %w: negative prefill chunk %d", ErrInvalidConfig, c.PrefillChunk)
	}
	if c.Static && c.PrefillChunk > 0 {
		return fmt.Errorf("batching: %w: a static batch prefills whole, not in %d-token chunks",
			ErrInvalidConfig, c.PrefillChunk)
	}
	// Feasibility at full occupancy and depth: if the KV cache of Slots
	// sequences at MaxLen doesn't fit beside the weights, the deployment
	// can never run full.
	probe := perf.Decode(perf.Request{
		Model: c.Model, System: c.System, Weights: c.Weights,
		KVDType: c.KVDType, WireDType: c.WireDType,
		FFN: c.FFN, Attn: c.Attn,
		Batch: c.Slots, Context: c.MaxLen - 1, Gen: 1,
	}, c.Knobs)
	if !probe.Feasible {
		return fmt.Errorf("batching: %w at full occupancy: %s", ErrInfeasible, probe.Reason)
	}
	return nil
}

// CheckRequest classifies one request against this configuration: nil for
// an admissible request, ErrInvalidTrace for a malformed one (builder bug),
// ErrPromptTooLong for one no slot could ever hold. Simulate applies the
// same classification (malformed aborts the run, too-long counts as
// Rejected); the fleet router applies it per arrival before routing.
func (c Config) CheckRequest(r Request) error {
	if math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) || r.Arrival < 0 {
		return fmt.Errorf("batching: %w: request %d arrival %g", ErrInvalidTrace, r.ID, r.Arrival)
	}
	if r.Template != 0 && (r.PrefixLen < 0 || r.PrefixLen >= r.Context) {
		return fmt.Errorf("batching: %w: request %d prefix %d outside [0, context %d)",
			ErrInvalidTrace, r.ID, r.PrefixLen, r.Context)
	}
	if r.Context < 1 || r.Gen < 1 || r.Context+r.Gen > c.MaxLen {
		return fmt.Errorf("batching: %w: request %d wants %d+%d of %d",
			ErrPromptTooLong, r.ID, r.Context, r.Gen, c.MaxLen)
	}
	return nil
}

// Result summarizes a continuous-batching simulation.
type Result struct {
	Completed int
	Rejected  int // requests exceeding per-slot capacity
	Makespan  float64
	// GenTokens counts useful generated tokens (each request's actual Gen).
	GenTokens       int
	GenTokensPerSec float64
	MeanLatency     float64
	P50, P95, P99   float64
	// MeanOccupancy is the time-weighted fraction of slots holding a live
	// sequence — the quantity continuous batching exists to maximize.
	MeanOccupancy float64
	// Iterations counts scheduler iterations (decode steps and/or
	// admission rounds).
	Iterations int
	// MaxIterTime is the longest single iteration — the worst decode-step
	// stall a running sequence observed. Chunked prefill exists to cap it.
	MaxIterTime float64
	// Prefix-cache accounting: admissions that found their template's
	// prefix cached (Hits) or prefilled and cached it (Misses), and the
	// total prompt tokens served from cache instead of recomputed.
	PrefixHits, PrefixMisses int
	CachedTokens             int
	PerRequest               []Request
}

// slotState tracks one occupied slot.
type slotState struct {
	req      *Request
	produced int // tokens generated so far (finishing prefill yields the first)
	ctxDone  int // prompt tokens in the KV cache (cached prefix + prefilled)
	toGo     int // prompt tokens still to prefill (> 0: not yet decoding)
	// seedsTemplate is the template this slot's prefill will make cached
	// (0 = none): the template warms only once the prefix actually sits in
	// the cache, i.e. when this prefill completes.
	seedsTemplate int
	// decodeOnly marks a handoff admission: the KV arrived from a prefill
	// replica, so this slot never prefills and its first token is credited
	// elsewhere.
	decodeOnly bool
}

// Simulate runs the iteration-level scheduler over the trace and returns
// per-request and aggregate metrics. Discipline per iteration:
//
//  1. Admit queued requests into free slots, oldest first (bounded by
//     MaxAdmit). With PrefixCache, an admission whose template is already
//     cached skips its PrefixLen-token prefix and prefills only the
//     suffix. With PrefillChunk == 0 the (remaining) prompt prefills
//     inline at admission and yields the request's first token.
//  2. With PrefillChunk > 0, every mid-prefill slot advances one bounded
//     chunk instead; a slot whose final chunk completes yields its first
//     token this iteration.
//  3. Run one decode step over the slots that were already running, at
//     their actual count and mean context.
//  4. Completions free their slots immediately, so the next iteration can
//     admit into them — the batch never drains to refill.
//
// The simulation is deterministic: same config and trace, same result.
func Simulate(c Config, trace Trace) (Result, error) {
	sched, err := NewScheduler(c)
	if err != nil {
		return Result{}, err
	}

	reqs := make([]Request, len(trace.Requests))
	copy(reqs, trace.Requests)
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Arrival < reqs[b].Arrival })

	eligible := make([]*Request, 0, len(reqs))
	rejected := 0
	for i := range reqs {
		r := &reqs[i]
		switch err := c.CheckRequest(*r); {
		case errors.Is(err, ErrInvalidTrace):
			// A malformed request is a trace-builder bug, not load to shed
			// (and a non-finite arrival would stall the event loop forever).
			return Result{}, err
		case errors.Is(err, ErrPromptTooLong):
			r.Slot = -1
			rejected++
		default:
			eligible = append(eligible, r)
		}
	}

	next := 0
	for sched.completed < len(eligible) {
		for next < len(eligible) && eligible[next].Arrival <= sched.Now() {
			sched.Enqueue(eligible[next])
			next++
		}
		if !sched.Busy() {
			// Idle: jump to the next arrival.
			sched.AdvanceTo(eligible[next].Arrival)
			continue
		}
		sched.Step()
	}
	return sched.result(reqs, eligible, rejected), nil
}
