package batching

// Scheduler is the iteration-level scheduling core of Simulate, exposed as
// a steppable object so a fleet layer can drive many replicas' schedulers
// against one global clock. One Scheduler owns one replica's slots and
// queue; the caller feeds arrivals with Enqueue (ordered by Priority, FIFO
// within a tier), advances the replica one iteration at a time with Step,
// and moves its clock across idle gaps with AdvanceTo. Simulate is now a
// thin loop over exactly this API, so the single-replica and fleet paths
// cannot drift apart.
//
// Two pool modes extend the basic discipline for disaggregated serving:
//
//   - A prefill-only scheduler (NewPrefillScheduler) completes a request
//     the moment its prompt finishes prefilling — the first token exists,
//     and the slot's KV is ready to hand off to a decode replica. The slot
//     frees immediately; no decode iterations run for it.
//   - A decode-only admission (EnqueueDecodeOnly) admits a request whose
//     KV already arrived via handoff: it skips prefill entirely, joining
//     the decode batch on its admission iteration and generating its
//     remaining Gen-1 tokens (the first came from the prefill pool).
//
// Config.Static runs either mode (and unified serving) as the paper's
// static pipeline tier instead: whole-batch admission into an empty
// replica, every pass priced at the full batch.

import (
	"math"
	"sort"

	"esti/internal/perf"
)

type queued struct {
	r          *Request
	decodeOnly bool
}

type preKey struct{ batch, past, ctx int }
type stepKey struct{ batch, ctx int }

// Scheduler holds one replica's iteration-level scheduling state.
type Scheduler struct {
	c           Config
	prefillOnly bool

	slots []*slotState
	free  int
	queue []queued
	now   float64
	warm  map[int]bool
	// slowdown stretches every iteration (and finish estimate) — the fleet's
	// straggler-fault model. Always >= 1; NewScheduler starts it at 1.
	slowdown float64

	prefillMemo map[preKey]float64
	stepMemo    map[stepKey]float64

	// Accumulated over the run (Simulate and fleet read these to assemble
	// their Results).
	iterations               int
	busyWeighted             float64
	maxIterTime              float64
	prefixHits, prefixMisses int
	cachedTokens             int
	completed                int
	genTokens                int
	makespan                 float64
}

// NewScheduler validates the configuration and returns an empty scheduler.
func NewScheduler(c Config) (*Scheduler, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &Scheduler{
		c:           c,
		slots:       make([]*slotState, c.Slots),
		free:        c.Slots,
		warm:        map[int]bool{},
		slowdown:    1,
		prefillMemo: map[preKey]float64{},
		stepMemo:    map[stepKey]float64{},
	}, nil
}

// NewPrefillScheduler returns a scheduler for a disaggregated prefill pool:
// requests complete when their prompt's prefill (and first token) lands,
// freeing the slot for the next admission; the decode phase happens on
// another replica after KV handoff.
func NewPrefillScheduler(c Config) (*Scheduler, error) {
	s, err := NewScheduler(c)
	if err != nil {
		return nil, err
	}
	s.prefillOnly = true
	return s, nil
}

// Now returns the replica's clock.
func (s *Scheduler) Now() float64 { return s.now }

// AdvanceTo moves the replica's clock forward to t (never backward) — the
// idle jump between an empty replica and its next arrival.
func (s *Scheduler) AdvanceTo(t float64) {
	if t > s.now {
		s.now = t
	}
}

// Busy reports whether the replica has any work: occupied slots or queued
// requests.
func (s *Scheduler) Busy() bool { return s.free < s.c.Slots || len(s.queue) > 0 }

// Pending is the queued (not yet admitted) request count.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Active is the occupied slot count.
func (s *Scheduler) Active() int { return s.c.Slots - s.free }

// Load is the replica's total backlog: queued plus admitted-and-running.
func (s *Scheduler) Load() int { return s.Pending() + s.Active() }

// HasTemplate reports whether the template's prefix is warm in this
// replica's cache — the router's prefix-affinity signal.
func (s *Scheduler) HasTemplate(template int) bool { return s.warm[template] }

// Enqueue adds a request to the admission queue, ordered by Priority
// (higher first) and FIFO within a tier — with all-zero priorities this is
// plain FIFO, the original Simulate discipline.
func (s *Scheduler) Enqueue(r *Request) { s.enqueue(queued{r: r}) }

// EnqueueDecodeOnly adds a request whose prompt KV is already in place
// (imported via handoff from a prefill replica): admission skips prefill
// and the slot joins the decode batch the same iteration. The request's
// first token is credited to the prefill pool; this replica generates the
// remaining Gen-1.
func (s *Scheduler) EnqueueDecodeOnly(r *Request) { s.enqueue(queued{r: r, decodeOnly: true}) }

func (s *Scheduler) enqueue(q queued) {
	at := len(s.queue)
	for i, o := range s.queue {
		if q.r.Priority > o.r.Priority {
			at = i
			break
		}
	}
	s.queue = append(s.queue, queued{})
	copy(s.queue[at+1:], s.queue[at:])
	s.queue[at] = q
}

// prefillT is the memoized cost of prefilling ctx tokens on top of `past`
// cached positions for each of batch sequences.
func (s *Scheduler) prefillT(batch, past, ctx int) float64 {
	c := s.c
	key := preKey{batch, past, ctx}
	if t, ok := s.prefillMemo[key]; ok {
		return t
	}
	res := perf.Prefill(perf.Request{
		Model: c.Model, System: c.System, Weights: c.Weights,
		KVDType: c.KVDType, WireDType: c.WireDType,
		FFN: c.FFN, Attn: c.Attn, Batch: batch, Context: ctx, Past: past,
	}, c.Knobs)
	s.prefillMemo[key] = res.Time
	return res.Time
}

// decodeT is the memoized one-step decode cost at the given occupancy and
// mean context (bucketed to 32 so the memo stays small; the step cost
// varies slowly with context).
func (s *Scheduler) decodeT(batch, ctx int) float64 {
	c := s.c
	key := stepKey{batch, (ctx + 31) / 32 * 32}
	if t, ok := s.stepMemo[key]; ok {
		return t
	}
	res := perf.Decode(perf.Request{
		Model: c.Model, System: c.System, Weights: c.Weights,
		KVDType: c.KVDType, WireDType: c.WireDType,
		FFN: c.FFN, Attn: c.Attn, Batch: batch, Context: key.ctx, Gen: 1,
	}, c.Knobs)
	s.stepMemo[key] = res.Time
	return res.Time
}

// EstimateFinish predicts when a candidate request would produce its last
// token if enqueued now, from the perf model's costs: the prefill work
// queued ahead of it plus its own, and the remaining decode tokens of
// everything in flight served at steady-state occupancy. It deliberately
// ignores priorities and future arrivals — a cheap, deterministic signal
// for SLO admission (shed when even this optimistic bound misses the
// deadline), not a simulation.
func (s *Scheduler) EstimateFinish(r *Request, decodeOnly bool) float64 {
	prefillWork, remaining, _, _ := s.backlog()
	if !decodeOnly {
		prefillWork += s.prefillT(1, 0, r.Context)
	}
	remaining += r.Gen
	if s.prefillOnly {
		// A prefill pool's service is the prefill work alone.
		return s.now + prefillWork*s.slowdown
	}
	b := s.Load() + 1
	if b > s.c.Slots {
		b = s.c.Slots
	}
	step := s.decodeT(b, r.Context+r.Gen/2)
	return s.now + (prefillWork+float64(remaining)*step/float64(b))*s.slowdown
}

// backlog walks the work in flight and queued, slots first: the batch-1
// prefill time still owed (unprefilled slot remainders, then queued
// prompts that need a prefill), the decode tokens still owed, and the sum
// over the n requests of their mid-generation context (prompt plus half
// the generation). EstimateFinish and Snapshot both price this walk.
func (s *Scheduler) backlog() (prefillWork float64, remaining, ctxSum, n int) {
	for _, ss := range s.slots {
		if ss == nil {
			continue
		}
		if ss.toGo > 0 {
			prefillWork += s.prefillT(1, ss.ctxDone, ss.toGo)
		}
		remaining += ss.req.Gen - ss.produced
		ctxSum += ss.req.Context + ss.req.Gen/2
		n++
	}
	for _, q := range s.queue {
		if !q.decodeOnly {
			prefillWork += s.prefillT(1, 0, q.r.Context)
		}
		remaining += q.r.Gen
		ctxSum += q.r.Context + q.r.Gen/2
		n++
	}
	return prefillWork, remaining, ctxSum, n
}

// Backlog is a load snapshot of one scheduler: what is queued, what is in
// flight, and — priced by the perf model — how long the replica would take
// to drain it all with no further arrivals. The fleet's autoscaler reads
// one per replica per control tick; DrainTime is the pressure signal its
// hysteresis bands compare.
type Backlog struct {
	// Pending and Active mirror the accessors of the same names.
	Pending, Active int
	// PrefillWork is the batch-1 prefill time (seconds) still owed: queued
	// prompts plus the unprefilled remainder of mid-prefill slots.
	PrefillWork float64
	// RemainingTokens counts decode tokens still owed across slots and queue.
	RemainingTokens int
	// DrainTime estimates the seconds until the replica is empty, serving
	// its backlog at steady-state occupancy — EstimateFinish without a
	// candidate request, straggler slowdown included. Zero when idle.
	DrainTime float64
}

// Snapshot prices the replica's current backlog with the perf model. Like
// EstimateFinish it is a deterministic estimate, not a simulation: prefill
// work at batch-1 cost, remaining decode tokens at the steady-state batch
// step cost, all stretched by the straggler slowdown.
func (s *Scheduler) Snapshot() Backlog {
	b := Backlog{Pending: s.Pending(), Active: s.Active()}
	var ctxSum, n int
	b.PrefillWork, b.RemainingTokens, ctxSum, n = s.backlog()
	if n == 0 {
		return b
	}
	if s.prefillOnly {
		b.DrainTime = b.PrefillWork * s.slowdown
		return b
	}
	batch := s.Load()
	if batch > s.c.Slots {
		batch = s.c.Slots
	}
	step := s.decodeT(batch, ctxSum/n)
	b.DrainTime = (b.PrefillWork + float64(b.RemainingTokens)*step/float64(batch)) * s.slowdown
	return b
}

// Step runs one scheduler iteration — admissions, chunked prefill, one
// decode step, completions — advancing the replica's clock by the
// iteration's modeled time. Completed requests are returned with Done set;
// in prefill-only mode completion means "first token produced, KV ready to
// hand off". A scheduler with no work returns (0, nil) untouched.
func (s *Scheduler) Step() (iterTime float64, done []*Request) {
	if !s.Busy() {
		return 0, nil
	}
	c := s.c

	// firstToken marks slots whose token this iteration came from their
	// (completed) prefill rather than from the decode step.
	firstToken := map[int]bool{}
	admitted := 0
	// A static replica admits only into an empty batch, and prefills the
	// admitted group in one pass over its padded shape: the longest
	// uncached suffix on top of the shortest cached prefix.
	open := !c.Static || s.free == c.Slots
	groupPast, groupSuffix := math.MaxInt, 0
	for open && s.free > 0 && len(s.queue) > 0 {
		if c.MaxAdmit > 0 && admitted >= c.MaxAdmit {
			break
		}
		q := s.queue[0]
		s.queue = s.queue[1:]
		r := q.r
		slot := -1
		for i, ss := range s.slots {
			if ss == nil {
				slot = i
				break
			}
		}
		cached := 0
		seeds := 0
		if c.PrefixCache && r.Template != 0 && !q.decodeOnly {
			if s.warm[r.Template] {
				cached = r.PrefixLen
				s.prefixHits++
				s.cachedTokens += cached
			} else {
				// A miss warms the template only when its prefill
				// completes; a concurrent same-template admission before
				// then must miss too (the prefix is not in the cache yet).
				s.prefixMisses++
				seeds = r.Template
			}
		}
		ss := &slotState{req: r, ctxDone: cached, toGo: r.Context - cached,
			seedsTemplate: seeds, decodeOnly: q.decodeOnly}
		s.slots[slot] = ss
		s.free--
		admitted++
		r.Admitted = s.now
		r.Slot = slot
		if q.decodeOnly {
			// KV arrived via handoff: nothing to prefill, the first token
			// already exists. The slot joins this iteration's decode step —
			// unless that one token was the whole request.
			ss.ctxDone = r.Context
			ss.toGo = 0
			ss.produced = 1
			if ss.produced >= r.Gen {
				firstToken[slot] = true
			}
			continue
		}
		if c.PrefillChunk == 0 {
			// Inline admission: the whole (remaining) prompt prefills now
			// and yields the request's first token.
			if c.Static {
				groupPast = min(groupPast, ss.ctxDone)
				groupSuffix = max(groupSuffix, ss.toGo)
			} else {
				iterTime += s.prefillT(1, ss.ctxDone, ss.toGo)
			}
			ss.ctxDone = r.Context
			ss.toGo = 0
			ss.produced = 1
			firstToken[slot] = true
			if ss.seedsTemplate != 0 {
				s.warm[ss.seedsTemplate] = true
			}
		}
	}

	if groupSuffix > 0 {
		iterTime += s.prefillT(c.Slots, groupPast, groupSuffix)
	}

	// Chunked prefill: spend this iteration's prefill-token budget on
	// mid-prefill slots; a slot whose last chunk lands yields its first
	// token. The budget, not the prompt length, now bounds the prefill time
	// added to the iteration.
	if c.PrefillChunk > 0 {
		budget := c.PrefillChunk
		for slot, ss := range s.slots {
			if budget == 0 {
				break
			}
			if ss == nil || ss.toGo == 0 {
				continue
			}
			adv := budget
			if adv > ss.toGo {
				adv = ss.toGo
			}
			iterTime += s.prefillT(1, ss.ctxDone, adv)
			ss.ctxDone += adv
			ss.toGo -= adv
			budget -= adv
			if ss.toGo == 0 {
				ss.produced = 1
				firstToken[slot] = true
				if ss.seedsTemplate != 0 {
					s.warm[ss.seedsTemplate] = true
				}
			}
		}
	}

	// Decode step over the slots that were already running; slots still
	// prefilling and those that just got their first token sit out. A
	// prefill-only pool never decodes; a static one pays a full batch at
	// its longest context.
	if !s.prefillOnly {
		decodeBatch, ctxSum, ctxMax := 0, 0, 0
		for slot, ss := range s.slots {
			if ss == nil || ss.toGo > 0 || firstToken[slot] {
				continue
			}
			decodeBatch++
			ctxSum += ss.req.Context + ss.produced
			ctxMax = max(ctxMax, ss.req.Context+ss.produced)
		}
		switch {
		case decodeBatch > 0 && c.Static:
			iterTime += s.decodeT(c.Slots, ctxMax)
		case decodeBatch > 0:
			iterTime += s.decodeT(decodeBatch, ctxSum/decodeBatch)
		}
	}

	iterTime *= s.slowdown
	nActive := c.Slots - s.free
	s.now += iterTime
	s.iterations++
	s.busyWeighted += float64(nActive) * iterTime
	if iterTime > s.maxIterTime {
		s.maxIterTime = iterTime
	}

	for slot, ss := range s.slots {
		if ss == nil || ss.toGo > 0 {
			continue
		}
		if !firstToken[slot] && !s.prefillOnly {
			ss.produced++
		}
		finished := ss.produced >= ss.req.Gen
		if s.prefillOnly {
			finished = ss.produced >= 1
		}
		if finished {
			ss.req.Done = s.now
			s.completed++
			s.genTokens += ss.localTokens()
			done = append(done, ss.req)
			s.slots[slot] = nil
			s.free++
			if s.now > s.makespan {
				s.makespan = s.now
			}
		}
	}
	return iterTime, done
}

// localTokens is how many tokens this replica itself produced for the
// request: all Gen normally, just the first in a prefill pool, the
// remaining Gen-1 for a decode-only (handoff) admission.
func (ss *slotState) localTokens() int {
	if ss.decodeOnly {
		return ss.req.Gen - 1
	}
	return ss.req.Gen
}

// result assembles the aggregate metrics Simulate reports, over the given
// request population (rejected counts come from the caller's screening).
func (s *Scheduler) result(reqs []Request, eligible []*Request, rejected int) Result {
	res := Result{
		Completed:    s.completed,
		Rejected:     rejected,
		Makespan:     s.makespan,
		GenTokens:    s.genTokens,
		Iterations:   s.iterations,
		MaxIterTime:  s.maxIterTime,
		PrefixHits:   s.prefixHits,
		PrefixMisses: s.prefixMisses,
		CachedTokens: s.cachedTokens,
		PerRequest:   reqs,
	}
	if s.makespan > 0 {
		res.GenTokensPerSec = float64(s.genTokens) / s.makespan
		res.MeanOccupancy = s.busyWeighted / (float64(s.c.Slots) * s.makespan)
	}
	res.MeanLatency, res.P50, res.P95, res.P99 = latencyStats(eligible)
	return res
}

// latencyStats computes the mean and percentiles of completed-request
// latencies (NaN mean when the population is empty).
func latencyStats(reqs []*Request) (mean, p50, p95, p99 float64) {
	if len(reqs) == 0 {
		return nan(), 0, 0, 0
	}
	lat := make([]float64, len(reqs))
	sum := 0.0
	for i, r := range reqs {
		lat[i] = r.Latency()
		sum += lat[i]
	}
	sort.Float64s(lat)
	return sum / float64(len(reqs)),
		percentileSorted(lat, 0.50), percentileSorted(lat, 0.95), percentileSorted(lat, 0.99)
}
