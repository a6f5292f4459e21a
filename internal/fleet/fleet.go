// Package fleet scales the serving stack past one replica: engine replicas
// in pools behind a router, driven as one discrete-event simulation against
// a shared arrival stream. It composes the pieces the lower layers already
// provide — batching.Scheduler for each replica's iteration-level
// discipline, the perf model for iteration costs, the prefix cache's warm
// set as the router's affinity signal — into the cluster-level questions
// the paper stops short of: where should a request go, when should it be
// refused, and what does disaggregating prefill from decode buy at fleet
// scale.
//
// A pool is a group of replicas stamped from one batching.Config blueprint,
// with its own autoscale controller. A unified fleet is one pool; a
// disaggregated fleet is two, a prefill pool that takes the arrivals and a
// decode pool that takes their KV handoffs. Every pool-level decision —
// routing, measuring a control tick, scaling out or in — is one function
// over a pool, and every load-based choice is one search (least) that
// returns a replica, so results name replicas by their stable index.
//
// Four mechanisms, all behind one Simulate call:
//
//   - Prefix-affinity routing: a request opening with a known template is
//     sent to the replica whose cache already holds that prefix, turning
//     the fleet's prefix hit rate from per-replica luck into a routing
//     invariant. Compare against Random with CompareRouting.
//   - Disaggregated pools: prefill-pool replicas complete a request at its
//     first token and hand the slot's KV to a decode replica over the
//     interconnect (executed, engine.ExportSlotKV and ImportSlotKV move
//     real cache blocks between engines, and engine.TestHandoffTokenExact
//     holds the receiver's logits to a single replica's bit for bit). The
//     two pools may run different slices, slot counts and batching
//     disciplines; Pipeline is the paper's static two-tier pipeline as a
//     1 + 1 fleet, and CompareStatic sets continuous batching against it.
//   - SLO admission: per-request deadlines and priority tiers; the router
//     sheds work the perf model says cannot finish in time (ErrDeadline)
//     and low-priority work when queues saturate (ErrOverloaded), keeping
//     chips on tokens that still count toward goodput.
//   - Fault tolerance: a deterministic faults.Plan injects replica crashes,
//     graceful drains, straggler slowdowns, and handoff-link outages into
//     the same event heap. Replicas move through their lifecycle (below),
//     crashed requests re-route with capped exponential backoff (or are
//     shed as ErrDeadline when the retry cannot make its SLO, or fail as
//     ErrReplicaDown when retries run out), stragglers get their stuck
//     work hedged to a second replica (first completion wins, the loser's
//     tokens are wasted work under ErrHedged), and the fleet degrades
//     gracefully — the prefill pool falls back to unified serving when the
//     decode pool dies, and a brownout watermark sheds low-tier arrivals
//     while capacity is short. RecoveryPolicy picks the naive baseline,
//     turns hedging off and sets the watermark; Result's fault accounting
//     (Retries, Hedges, Wasted*, per-replica Downtime, RecoveryP99) turns
//     goodput-under-faults into a measured number.
//
// Each state transition of the simulation is written once: settle books a
// request's terminal state, lose drops one copy of a request, reroute sends
// a request back through the router, drain takes a replica out of routing,
// addReplica builds one into its pool, move changes its lifecycle stage and
// measure reads a control tick. Result's totals that an itemized ledger
// already holds (Ticks, ScaleOuts/ScaleIns, the Wasted* totals) are read off
// that ledger when the run ends.
//
// A replica's lifecycle is one stage, changed only by move, which checks
// every move against one table (lifecycle.go). Per event:
//
//	build        absent → healthy (the initial fleet)
//	scale-out    absent → provisioning
//	provisioned  provisioning → recovering (serving, cache cold)
//	served       recovering → healthy (first final token or prefill handoff)
//	slow-start   healthy, recovering → degraded; draining, retiring slow down
//	slow-end     degraded → healthy; draining, retiring, down speed up
//	drain        healthy, degraded, recovering → draining
//	recover      down → recovering; draining → healthy (the drain cancelled)
//	crash        healthy, degraded, draining, recovering → down;
//	             retiring → retired (its resident work lost and retried)
//	scale-in     healthy, degraded → retiring
//	drained      draining → down; retiring → retired
//
// Served leaves any other stage as it is. A fault that finds its replica in
// a stage not listed does nothing (so a recover never cancels a release);
// any other unlisted move is a simulator bug and panics. Healthy, degraded
// and recovering replicas take new work; draining and retiring ones finish
// theirs.
package fleet

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"esti/internal/autoscale"
	"esti/internal/batching"
	"esti/internal/faults"
)

// Policy selects how the router picks a replica for each arrival.
type Policy int

const (
	// Affinity routes to the least-loaded replica whose prefix cache is
	// already warm for the request's template, spilling to the
	// least-loaded replica overall when no replica is warm or the warm
	// ones carry more than 1.25x the fleet-average backlog (bounded load:
	// hot templates replicate onto as many replicas as their traffic
	// share needs).
	Affinity Policy = iota
	// LeastLoaded ignores templates and balances queue+slot backlog.
	LeastLoaded
	// Random routes uniformly at random (seeded) — the baseline that shows
	// what affinity buys.
	Random
)

// String names the policy for reports.
func (p Policy) String() string {
	switch p {
	case Affinity:
		return "affinity"
	case LeastLoaded:
		return "least-loaded"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config describes a fleet: a replica blueprint per pool stamped N times,
// a routing policy, and optionally a disaggregated split.
type Config struct {
	// Replica is the per-replica serving configuration (model, slice,
	// layout, slots, batching discipline) of every unified replica, and of
	// the decode pool when disaggregated.
	Replica batching.Config
	// PrefillReplica is the prefill pool's replica configuration when
	// disaggregated (nil = Replica). It must hold the KV the decode pool
	// imports: the same Model and KVDType, and a MaxLen no larger than
	// Replica's. Ignored in unified mode.
	PrefillReplica *batching.Config
	// Replicas is the fleet size in unified mode (each replica runs both
	// phases). Ignored when disaggregated.
	Replicas int
	// Policy is the routing policy for arrivals; a value other than the
	// three named policies is invalid.
	Policy Policy
	// PrefillReplicas and DecodeReplicas, when either is set, disaggregate
	// the fleet into that many prefill-only and decode replicas (both at
	// least 1). A request prefills on one pool, then its slot KV crosses the
	// interconnect and decoding resumes on the other — the fleet-scale
	// version of the paper's two-tier pipeline (Pipeline builds the paper's
	// own: one static replica per pool). Each handoff delays the decode
	// admission by Context × KV-bytes-per-token / the prefill chip's
	// NetworkBandwidth.
	PrefillReplicas int
	DecodeReplicas  int
	// MaxQueue bounds each replica's admission queue (0 = unbounded;
	// negative is invalid). When the routed replica's queue is full,
	// Priority-0 requests are shed with ErrOverloaded; higher tiers are
	// admitted past the bound — the bound exists to protect them.
	MaxQueue int
	// Seed drives the Random policy.
	Seed int64
	// Faults schedules deterministic fault injection: crashes, drains,
	// straggler windows, link outages. The zero value is fault-free. The
	// plan is validated against the fleet size (wrapped ErrInvalidConfig
	// on mismatch); replica indices follow the fleet's replica order
	// (prefill pool first in disaggregated mode).
	Faults faults.Plan
	// Recovery tunes how the router survives the fault plan. The zero
	// value is the default (3 retries, 50 ms base backoff, hedging on);
	// Naive selects the health-blind baseline.
	Recovery RecoveryPolicy
	// Autoscale arms the perf-model-driven control loop: control ticks run
	// as first-class events in the simulation heap, and each pool (prefill
	// and decode independently when disaggregated) scales out or in under
	// the policy's hysteresis bands. Nil disables autoscaling (the fleet
	// stays at its configured size); zero fields in a non-nil policy take
	// the autoscale package defaults. Incompatible with the naive baseline
	// (Recovery.Naive): a health-blind router would route work to
	// still-provisioning replicas.
	Autoscale *autoscale.Policy
}

// Outcome records what the fleet did with one request: the stable index
// (ReplicaStats.ID) of the replica it last reached — the one that completed
// it, shed it at routing, or died holding it; -1 if refused before routing
// or failed with the fleet down — and the sentinel error it ended with (nil
// if it completed).
// There is exactly one Outcome per trace request, updated in place across
// retries, so Outcomes always partitions the trace.
type Outcome struct {
	Req     *batching.Request
	Replica int
	Err     error
}

// ReplicaStats is one replica's share of the run.
type ReplicaStats struct {
	// ID is the replica's stable index for the whole run: replicas are only
	// ever appended (scale-out) or retired in place (scale-in), never
	// reindexed, so ID always equals the replica's position in PerReplica
	// and fault-plan indices stay meaningful across scale events.
	ID int
	// Role is "unified", "prefill", "decode", or "prefill→unified" after a
	// graceful-degradation fallback.
	Role string
	// AddedAt and RetiredAt bound the replica's provisioned lifetime
	// window: [0, end-of-run] for the initial fleet, [scale-out tick,
	// scale-in tick] for autoscaled capacity. RetiredAt is the end-of-run
	// clock for replicas never released; Retired distinguishes a replica
	// the autoscaler released from one that merely ran to the end (or died
	// there). The windows sum exactly to Result.ReplicaSeconds.
	AddedAt, RetiredAt float64
	Retired            bool
	// Routed counts requests this replica admitted at ingress (arrivals
	// for unified/prefill replicas, handoffs for decode replicas).
	Routed int
	// Completed counts requests whose final token this replica produced.
	Completed int
	// LocalTokens counts tokens this replica itself generated and that the
	// fleet kept: Gen per unified completion, 1 per handed-off prefill
	// whose request completed, Gen-1 per decode completion — so the pools'
	// tokens sum to the fleet's GenTokens; discarded work is in the wasted
	// ledger instead.
	LocalTokens int
	// Crashes counts Crash fault events this replica absorbed.
	Crashes int
	// Busy is the time the replica spent running iterations.
	Busy float64
	// Downtime is total time spent Down (crash to recovery, or to the end
	// of the run).
	Downtime float64
	// WastedTokens counts KV positions and generated tokens discarded on
	// this replica (crash losses and lost hedge races).
	WastedTokens int
	// FinalHealth is the replica's health state when the run ended.
	FinalHealth string
}

// Result aggregates a fleet simulation.
type Result struct {
	Completed int
	// Rejected counts requests no slot could ever hold (ErrPromptTooLong).
	Rejected int
	// Shed counts admissible requests the router refused at admission for
	// SLO reasons (ErrDeadline, ErrOverloaded — including brownout sheds).
	Shed int
	// ShedRetry counts post-crash retries shed because the re-route
	// estimate already missed the deadline (ErrDeadline) — kept separate
	// from admission-time Shed so recovery pressure is visible.
	ShedRetry int
	// Failed counts requests lost to replica failures for good: retries
	// exhausted, or never retried under the naive policy (ErrReplicaDown).
	Failed int
	// DeadlineMisses counts completed requests that finished past their
	// deadline: served, but not goodput.
	DeadlineMisses int
	// GenTokens counts all generated tokens of completed requests;
	// GoodTokens only those that met their deadline (or had none).
	GenTokens  int
	GoodTokens int
	// Makespan is the last completion time; GenTokensPerSec the fleet's
	// generated-token rate over it.
	Makespan        float64
	GenTokensPerSec float64
	// GoodputPerChip is goodput tokens/s divided by the fleet's total chip
	// count, each replica counted at its own pool's slice — the paper's
	// cost axis, extended to SLO-aware serving.
	GoodputPerChip float64
	MeanLatency    float64
	P50, P99       float64
	// AffinityHits/Misses count templated arrivals that landed on a
	// replica already warm (or not) for their template — the routing-level
	// hit rate, tracked under every policy so baselines are comparable.
	AffinityHits   int
	AffinityMisses int
	// Handoffs and HandoffBytes measure the disaggregated KV traffic
	// (retransmissions after a failed handoff count again).
	Handoffs     int
	HandoffBytes float64
	// Retries counts post-loss re-route attempts; Hedges counts duplicate
	// copies launched against stragglers, HedgeWins those races the
	// duplicate won.
	Retries   int
	Hedges    int
	HedgeWins int
	// WastedPrefillTokens / WastedDecodeTokens total the KV positions and
	// generated tokens the fleet computed and then discarded (crash
	// losses, lost hedge races, stranded handoffs); Wasted itemizes them.
	// Every discarded token is counted exactly once.
	WastedPrefillTokens int
	WastedDecodeTokens  int
	Wasted              []WastedWork
	// RecoveryP99 is the p99 of completion-minus-first-loss over requests
	// that survived losing a replica (0 when none did): how long recovery
	// takes at the tail.
	RecoveryP99 float64
	PerReplica  []ReplicaStats
	Outcomes    []Outcome
	// Autoscale accounting. ReplicaSeconds is the provisioned capacity the
	// run actually spent — each replica's lifetime window summed, whether
	// or not Autoscale was armed — and GoodputPerReplicaSec is goodput
	// divided by it: the cost axis on which a static and an autoscaled
	// fleet compare fairly. Ticks counts control intervals, ScaleOuts and
	// ScaleIns the executed actions, ScaleEvents the audit trail, and
	// TickStats the per-tick fleet snapshots the controller decided on.
	ReplicaSeconds       float64
	GoodputPerReplicaSec float64
	Ticks                int
	ScaleOuts, ScaleIns  int
	ScaleEvents          []ScaleEvent
	TickStats            []TickStat
}

// WastedWork is one discarded piece of computed work: KV positions and
// generated tokens that cost chip-time but never reached a caller.
type WastedWork struct {
	ReqID int
	// Replica is where the discarded copy was computed (for in-flight
	// handoffs, the prefill replica that produced the KV).
	Replica int
	// Cause is ErrReplicaDown for crash and stranded-handoff losses,
	// ErrHedged for lost hedge races.
	Cause error
	// PrefillTokens counts discarded prompt KV positions, DecodedTokens
	// discarded generated tokens.
	PrefillTokens int
	DecodedTokens int
}

// pool is one group of interchangeable replicas built from one blueprint:
// the whole fleet when unified, the prefill or the decode pool when
// disaggregated. Arrivals land on the fleet's first pool; a prefill pool
// hands each request's KV to the second.
type pool struct {
	name string // "unified", "prefill" or "decode"
	cfg  batching.Config
	reps []*replica
	// ctl is the pool's autoscale controller (nil when autoscaling is off,
	// and for a decode pool the unified fallback has left behind).
	ctl *autoscale.Controller
	// prefill marks a pool whose replicas prefill only and hand off; the
	// unified fallback clears it.
	prefill bool
}

// role names a replica of the pool in ReplicaStats.
func (p *pool) role() string {
	if p.name == "prefill" && !p.prefill {
		return "prefill→unified"
	}
	return p.name
}

// replica couples a scheduler with its pool and lifecycle stage.
type replica struct {
	idx   int
	s     *batching.Scheduler
	pool  *pool
	stage stage
	since float64 // when the replica entered its stage
	stats ReplicaStats
}

type eventKind int

const (
	evArrival eventKind = iota
	evHandoff
	evFault
	// evTick is an autoscale control tick; evScaleReady delivers a
	// provisioned replica (event.from) into service.
	evTick
	evScaleReady
)

type event struct {
	t    float64
	seq  int
	kind eventKind
	req  *batching.Request
	// from is the prefill replica that produced an evHandoff's KV.
	from  *replica
	fault faults.Event
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) push(e event) { heap.Push(h, e) }
func (h *eventHeap) pop() event   { return heap.Pop(h).(event) }

// reqState is the router's view of one trace request across retries and
// hedge copies: every copy's *Request maps to the same state.
type reqState struct {
	orig *batching.Request
	// live counts copies currently in the system (queued, in a slot, or
	// in handoff flight).
	live int
	// done marks the request served; later copies are wasted work.
	done bool
	// hedged marks that a duplicate was launched (at most one per request).
	hedged bool
	// attempts counts post-loss re-routes consumed.
	attempts int
	// rerouted marks a request the router has sent back through admission
	// (a retry, or an eviction by a drain): its later deliveries skip the
	// arrival-only screens, and a deadline shed books as ShedRetry.
	rerouted bool
	// firstLoss is when the request first lost a replica (-1 = never).
	firstLoss float64
	// outIdx is the request's slot in Result.Outcomes (-1 until first
	// disposition); retries update the entry in place.
	outIdx int
}

type sim struct {
	c Config
	// pools holds the unified pool, or the prefill pool then the decode
	// pool; all holds every replica by index.
	pools   []*pool
	all     []*replica
	events  eventHeap
	seq     int
	rng     *rand.Rand
	res     Result
	kvBytes float64 // handoff bytes per prompt token
	bw      float64
	lat     []float64

	// Fault state.
	states   map[*batching.Request]*reqState
	origin   map[*batching.Request]*replica // in-handoff request → prefill replica owed first-token credit
	linkDown bool
	held     []event   // handoffs buffered while the link is down
	recov    []float64 // completion − firstLoss per recovered request
	lastT    float64   // latest simulation time observed

	// Autoscale state (nil/zero when Config.Autoscale is nil).
	auto     *autoscale.Policy // effective (defaulted) policy
	recovers map[int]float64   // each replica's last plan-scheduled Recover
	prevShed int               // shed counter at the previous tick
	prevMiss int               // miss+fail counter at the previous tick
}

// Simulate routes the trace through the fleet and returns the aggregate
// result. The input trace is not mutated; Outcomes reference internal
// copies. ErrInvalidTrace aborts the run (a malformed trace is a builder
// bug, not load).
func Simulate(c Config, trace batching.Trace) (Result, error) {
	s, err := newSim(c)
	if err != nil {
		return Result{}, err
	}
	reqs := make([]batching.Request, len(trace.Requests))
	copy(reqs, trace.Requests)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	// Fault events enter the heap first: an equal-time fault fires before
	// the arrivals of that instant (seq breaks the tie deterministically).
	for _, f := range c.Faults.Sorted() {
		s.events.push(event{t: f.At, seq: s.nextSeq(), kind: evFault, fault: f})
	}
	if s.auto != nil {
		// The first control tick lands one interval in; ticks re-arm
		// themselves while the run has work, so no tick survives the trace.
		s.events.push(event{t: s.auto.Interval, seq: s.nextSeq(), kind: evTick})
	}
	for i := range reqs {
		if err := s.pools[0].cfg.CheckRequest(reqs[i]); errors.Is(err, batching.ErrInvalidTrace) {
			return Result{}, err
		}
		reqs[i].Slot = -1
		s.states[&reqs[i]] = &reqState{orig: &reqs[i], firstLoss: -1, outIdx: -1}
		s.events.push(event{t: reqs[i].Arrival, seq: s.nextSeq(), kind: evArrival, req: &reqs[i]})
	}
	s.run()
	return s.finish(), nil
}

func newSim(c Config) (*sim, error) {
	s := &sim{
		c:      c,
		rng:    rand.New(rand.NewSource(c.Seed)),
		states: map[*batching.Request]*reqState{},
		origin: map[*batching.Request]*replica{},
	}
	switch w := c.Recovery.BrownoutBelow; {
	case c.Policy < Affinity || c.Policy > Random:
		return nil, fmt.Errorf("fleet: %w: unknown routing %v", batching.ErrInvalidConfig, c.Policy)
	case c.MaxQueue < 0:
		return nil, fmt.Errorf("fleet: %w: max queue %d", batching.ErrInvalidConfig, c.MaxQueue)
	case math.IsNaN(w) || w > 1:
		return nil, fmt.Errorf("fleet: %w: brownout watermark %g is not a fraction of the fleet",
			batching.ErrInvalidConfig, w)
	}
	s.pools = []*pool{{name: "unified", cfg: c.Replica}}
	sizes := []int{c.Replicas}
	if c.disaggregated() {
		if c.PrefillReplicas < 1 || c.DecodeReplicas < 1 {
			return nil, fmt.Errorf("fleet: %w: disaggregated needs prefill and decode replicas, got %d/%d",
				batching.ErrInvalidConfig, c.PrefillReplicas, c.DecodeReplicas)
		}
		pre := c.Replica
		if p := c.PrefillReplica; p != nil {
			if p.Model != c.Replica.Model || p.KVDType != c.Replica.KVDType || p.MaxLen > c.Replica.MaxLen {
				return nil, fmt.Errorf("fleet: %w: the decode pool cannot hold the prefill pool's KV "+
					"(model, KV format or per-slot capacity differ)", batching.ErrInvalidConfig)
			}
			pre = *p
		}
		s.pools = []*pool{{name: "prefill", cfg: pre, prefill: true}, {name: "decode", cfg: c.Replica}}
		sizes = []int{c.PrefillReplicas, c.DecodeReplicas}
	} else if c.Replicas < 1 {
		return nil, fmt.Errorf("fleet: %w: %d replicas", batching.ErrInvalidConfig, c.Replicas)
	}
	for i, p := range s.pools {
		for j := 0; j < sizes[i]; j++ {
			if _, err := s.addReplica(p, onBuild, 0); err != nil {
				return nil, err
			}
		}
	}
	if c.disaggregated() {
		pre := s.pools[0].cfg
		s.kvBytes = pre.Model.KVBytesPerTokenAs(pre.KVDType)
		s.bw = pre.System.Chip.NetworkBandwidth
		if s.bw <= 0 || math.IsNaN(s.bw) {
			return nil, fmt.Errorf("fleet: %w: handoff bandwidth %g", batching.ErrInvalidConfig, s.bw)
		}
	}
	if err := c.Faults.Validate(len(s.all)); err != nil {
		return nil, fmt.Errorf("fleet: %w: %v", batching.ErrInvalidConfig, err)
	}
	if c.Autoscale != nil && c.Recovery.Naive {
		return nil, fmt.Errorf("fleet: %w: autoscale requires health-aware recovery, not Recovery.Naive",
			batching.ErrInvalidConfig)
	}
	if err := s.initAutoscale(); err != nil {
		return nil, fmt.Errorf("fleet: %w: %v", batching.ErrInvalidConfig, err)
	}
	return s, nil
}

// disaggregated reports whether the config names pool sizes.
func (c Config) disaggregated() bool { return c.PrefillReplicas != 0 || c.DecodeReplicas != 0 }

// addReplica builds one replica of pool p at time t from the pool's
// blueprint, moves it out of absent by ev (onBuild for the initial fleet,
// onScaleOut for a scale-out) and appends it to the pool. A replica of a
// prefill pool runs prefill-only; one built after the unified fallback
// serves unified. Replicas are only ever appended, so a replica's index is
// stable for the run.
func (s *sim) addReplica(p *pool, ev lifeEvent, t float64) (*replica, error) {
	build := batching.NewScheduler
	if p.prefill {
		build = batching.NewPrefillScheduler
	}
	sch, err := build(p.cfg)
	if err != nil {
		return nil, err
	}
	rep := &replica{idx: len(s.all), s: sch, pool: p, stats: ReplicaStats{ID: len(s.all), Role: p.role()}}
	rep.move(ev, t)
	s.all = append(s.all, rep)
	p.reps = append(p.reps, rep)
	return rep, nil
}

func (s *sim) nextSeq() int { s.seq++; return s.seq }

// run is the fleet's event loop: repeatedly step the busy live replica with
// the earliest clock, unless the next router event (arrival or re-route,
// handoff, fault, or autoscale event) precedes every busy replica — then
// deliver that event.
// Replica iterations are atomic (a request arriving mid-iteration queues
// until the next), the same granularity the single-replica Simulate has.
// Replicas that are not up never step: under the naive policy a down
// replica's queue sits there, silently eaten, until finish() books it as
// failures.
func (s *sim) run() {
	for {
		next := math.Inf(1)
		if len(s.events) > 0 {
			next = s.events[0].t
		}
		var b *replica
		for _, r := range s.all {
			if r.stage.up() && r.s.Busy() && r.s.Now() < next && (b == nil || r.s.Now() < b.s.Now()) {
				b = r
			}
		}
		if b != nil {
			iter, done := b.s.Step()
			b.stats.Busy += iter
			if b.s.Now() > s.lastT {
				s.lastT = b.s.Now()
			}
			for _, req := range done {
				if b.pool.prefill {
					s.handoff(b, req)
				} else {
					s.complete(b, req)
				}
			}
			if (b.stage == draining || b.stage == retiring) && !b.s.Busy() {
				// Drained dry: the last in-flight sequence finished.
				b.move(onDrained, b.s.Now())
				s.checkFallback()
			}
			continue
		}
		if len(s.events) == 0 {
			if len(s.held) > 0 {
				// The link never came back: the buffered handoffs' KV is
				// stranded at the senders. Fail them (→ retry from scratch).
				s.failHeld()
				continue
			}
			return
		}
		e := s.events.pop()
		if e.t > s.lastT {
			s.lastT = e.t
		}
		switch e.kind {
		case evFault:
			s.applyFault(e)
		case evHandoff:
			s.admitDecode(e)
		case evTick:
			s.tick(e.t)
		case evScaleReady:
			e.from.move(onProvisioned, e.t)
			e.from.s.AdvanceTo(e.t)
		default:
			s.deliver(e.req, e.t)
		}
	}
}

// deliver routes one arrival or re-route: screen it, pick a live replica
// of the first pool, apply brownout and SLO admission, enqueue. A re-routed
// request already passed the arrival-only screens (capacity, brownout,
// queue cap).
func (s *sim) deliver(r *batching.Request, t float64) {
	st := s.states[r]
	if st.done {
		return
	}
	in := s.pools[0]
	if !st.rerouted {
		if err := in.cfg.CheckRequest(*r); err != nil {
			s.settle(st, -1, err)
			return
		}
	}
	if s.least(in.reps, s.canRoute) == nil {
		// Nowhere to go: every ingress replica is down or draining. The
		// router holds the request and retries after backoff (which fails
		// it once attempts run out).
		s.retryOrFail(st, t)
		return
	}
	if !st.rerouted && r.Priority <= 0 && s.brownout() {
		live, total := s.liveFraction()
		s.settle(st, -1, fmt.Errorf("fleet: %w: request %d shed in brownout (%d/%d replicas live)",
			batching.ErrOverloaded, r.ID, live, total))
		return
	}
	target := s.pick(r, in)
	target.s.AdvanceTo(t)
	if !st.rerouted && r.Template != 0 && in.cfg.PrefixCache {
		if target.s.HasTemplate(r.Template) {
			s.res.AffinityHits++
		} else {
			s.res.AffinityMisses++
		}
	}
	if r.Deadline > 0 && s.estimate(target, r) > r.Deadline {
		if st.rerouted {
			s.settle(st, target.idx, fmt.Errorf("fleet: %w: request %d retry %d estimated past %.3f",
				batching.ErrDeadline, r.ID, st.attempts, r.Deadline))
		} else {
			s.settle(st, target.idx, fmt.Errorf("fleet: %w: request %d estimated past %.3f",
				batching.ErrDeadline, r.ID, r.Deadline))
		}
		return
	}
	if !st.rerouted && s.c.MaxQueue > 0 && target.s.Pending() >= s.c.MaxQueue && r.Priority <= 0 {
		s.settle(st, target.idx, fmt.Errorf("fleet: %w: request %d, queue %d full",
			batching.ErrOverloaded, r.ID, target.s.Pending()))
		return
	}
	target.s.Enqueue(r)
	target.stats.Routed++
	st.live++
	s.setOutcome(st, target.idx, nil)
}

// reroute sends a request back through the router at time at: a retry
// after a loss, or a queued request evicted by a drain.
func (s *sim) reroute(r *batching.Request, at float64) {
	s.states[r].rerouted = true
	s.events.push(event{t: at, seq: s.nextSeq(), kind: evArrival, req: r})
}

// settle books a request's terminal state — served (nil), rejected, shed
// at admission or on re-route, or failed — into its Outcome and the one
// Result counter its error's sentinel names. It is the only writer of
// Completed, Rejected, Shed, ShedRetry and Failed, so the counters
// partition the trace exactly as Outcomes does.
func (s *sim) settle(st *reqState, replica int, err error) {
	switch {
	case err == nil:
		s.res.Completed++
	case errors.Is(err, batching.ErrReplicaDown):
		s.res.Failed++
	case errors.Is(err, batching.ErrDeadline), errors.Is(err, batching.ErrOverloaded):
		if st.rerouted {
			s.res.ShedRetry++
		} else {
			s.res.Shed++
		}
	default:
		s.res.Rejected++
	}
	s.setOutcome(st, replica, err)
}

// lose drops one copy of request r from replica on: it ledgers the copy's
// computed work as wasted under cause (when there is any), and reports
// whether that was the last live copy of a request not yet served — the
// caller then re-routes or fails it.
func (s *sim) lose(r *batching.Request, on *replica, cause error, prefilled, decoded int) bool {
	st := s.states[r]
	st.live--
	if prefilled+decoded > 0 {
		s.res.Wasted = append(s.res.Wasted, WastedWork{
			ReqID: r.ID, Replica: on.idx, Cause: cause,
			PrefillTokens: prefilled, DecodedTokens: decoded,
		})
	}
	return !st.done && st.live <= 0
}

// setOutcome records (or updates in place) the request's single Outcome
// entry, keeping Outcomes a partition of the trace across retries.
func (s *sim) setOutcome(st *reqState, replica int, err error) {
	if st.outIdx < 0 {
		st.outIdx = len(s.res.Outcomes)
		s.res.Outcomes = append(s.res.Outcomes, Outcome{Req: st.orig, Replica: replica, Err: err})
		return
	}
	o := &s.res.Outcomes[st.outIdx]
	o.Replica = replica
	o.Err = err
}

// canRoute reports whether the router may send new work to rep: any
// replica under the naive health-blind policy, only a serving-stage one
// otherwise.
func (s *sim) canRoute(rep *replica) bool { return s.c.Recovery.Naive || rep.stage.routable() }

// effLoad is a replica's backlog weighted by its straggler factor — a
// degraded replica looks proportionally heavier so new work steers away.
func (s *sim) effLoad(rep *replica) float64 {
	return float64(rep.s.Load()) * rep.s.Slowdown()
}

// least returns the replica of reps with the lowest effective load among
// those ok accepts (the first in pool order on a tie), or nil if ok accepts
// none. Every load-based choice the router makes is this search.
func (s *sim) least(reps []*replica, ok func(*replica) bool) *replica {
	var best *replica
	for _, rep := range reps {
		if ok(rep) && (best == nil || s.effLoad(rep) < s.effLoad(best)) {
			best = rep
		}
	}
	return best
}

// pick chooses a routable replica of pool p under the configured policy;
// the caller has checked that one exists.
func (s *sim) pick(r *batching.Request, p *pool) *replica {
	switch s.c.Policy {
	case Random:
		var cand []*replica
		for _, rep := range p.reps {
			if s.canRoute(rep) {
				cand = append(cand, rep)
			}
		}
		return cand[s.rng.Intn(len(cand))]
	case Affinity:
		if r.Template == 0 || !p.cfg.PrefixCache {
			break
		}
		total, n := 0.0, 0
		for _, rep := range p.reps {
			if s.canRoute(rep) {
				total += s.effLoad(rep)
				n++
			}
		}
		warm := s.least(p.reps, func(rep *replica) bool { return s.canRoute(rep) && rep.s.HasTemplate(r.Template) })
		// Bounded load: the warm replica wins unless its backlog is more
		// than 1.25x the fleet average — then the request spills to the
		// least-loaded replica, whose cold prefill warms the template there
		// too. Hot templates thus replicate onto just enough replicas to
		// carry their share of the traffic.
		if warm != nil && s.effLoad(warm) <= 1.25*total/float64(n)+1 {
			return warm
		}
	}
	return s.least(p.reps, s.canRoute)
}

// estimate predicts the request's completion time on the chosen ingress
// replica — plus, for a still-disaggregated prefill replica, the handoff
// delay and the decode pool's service — for the shed-on-deadline decision.
func (s *sim) estimate(target *replica, r *batching.Request) float64 {
	est := target.s.EstimateFinish(r, false)
	if !target.pool.prefill {
		return est
	}
	dec := s.least(s.pools[1].reps, s.canRoute)
	if dec == nil {
		return est + s.handoffDelay(r)
	}
	return est + s.handoffDelay(r) + (dec.s.EstimateFinish(r, true) - dec.s.Now())
}

func (s *sim) handoffDelay(r *batching.Request) float64 {
	return float64(r.Context) * s.kvBytes / s.bw
}

// handoff queues a prefill completion's KV transfer to the decode pool,
// buffering it when the link is down. First-token credit for the prefill
// replica is booked at completion (so a request lost later lands in the
// wasted ledger instead).
func (s *sim) handoff(from *replica, r *batching.Request) {
	from.move(onServed, from.s.Now())
	st := s.states[r]
	if st.done {
		// A hedge twin already served the request; this copy's prefill is
		// wasted before it ever crossed the wire.
		s.lose(r, from, batching.ErrHedged, r.Context, 1)
		return
	}
	bytes := float64(r.Context) * s.kvBytes
	s.res.Handoffs++
	s.res.HandoffBytes += bytes
	e := event{t: from.s.Now() + bytes/s.bw, seq: s.nextSeq(), kind: evHandoff, req: r, from: from}
	if s.linkDown {
		s.held = append(s.held, e)
		return
	}
	s.events.push(e)
}

// admitDecode delivers a handoff: the request's KV is now resident on a
// decode replica, which generates the remaining Gen-1 tokens. With the
// decode pool gone, a fallen-back fleet decodes on the (now unified)
// prefill replica that produced the KV.
func (s *sim) admitDecode(e event) {
	st := s.states[e.req]
	if st.done {
		s.lose(e.req, e.from, batching.ErrHedged, e.req.Context, 1)
		return
	}
	target := s.least(s.pools[1].reps, s.canRoute)
	if target == nil && !e.from.pool.prefill && e.from.stage.up() {
		target = e.from
	}
	if target == nil {
		// KV arrived with no live decode replica and no fallback path:
		// the transfer is lost, retry from scratch.
		if s.lose(e.req, e.from, batching.ErrReplicaDown, e.req.Context, 1) {
			s.retryOrFail(st, e.t)
		}
		return
	}
	target.s.AdvanceTo(e.t)
	s.origin[e.req] = e.from
	target.s.EnqueueDecodeOnly(e.req)
	target.stats.Routed++
}

// complete books a final-token completion on a unified or decode replica.
// The first completed copy wins the request; any later copy is a lost hedge
// race and its tokens are wasted.
func (s *sim) complete(on *replica, r *batching.Request) {
	st := s.states[r]
	org, fromHandoff := s.origin[r]
	if fromHandoff {
		delete(s.origin, r)
	}
	on.move(onServed, on.s.Now())
	if st.done {
		pre := 0
		if !fromHandoff {
			pre = r.Context
		}
		s.lose(r, on, batching.ErrHedged, pre, r.Gen)
		return
	}
	st.live--
	st.done = true
	if st.hedged && r != st.orig {
		s.res.HedgeWins++
	}
	s.res.GenTokens += r.Gen
	on.stats.Completed++
	if fromHandoff {
		org.stats.LocalTokens++ // the prefill pool produced the first token
		on.stats.LocalTokens += r.Gen - 1
	} else {
		on.stats.LocalTokens += r.Gen
	}
	// The winning copy's timeline becomes the request's record.
	st.orig.Admitted = r.Admitted
	st.orig.Done = r.Done
	st.orig.Slot = r.Slot
	s.settle(st, on.idx, nil)
	if r.Deadline > 0 && r.Done > r.Deadline {
		s.res.DeadlineMisses++
	} else {
		s.res.GoodTokens += r.Gen
	}
	if r.Done > s.res.Makespan {
		s.res.Makespan = r.Done
	}
	s.lat = append(s.lat, r.Done-st.orig.Arrival)
	if st.firstLoss >= 0 {
		s.recov = append(s.recov, r.Done-st.firstLoss)
	}
}

func (s *sim) finish() Result {
	// The run's end closes a down replica's downtime and every window but a
	// released replica's, which move closed at its release. A down replica
	// may still hold work the naive health-blind router kept feeding it:
	// those requests were silently eaten.
	for _, rep := range s.all {
		if rep.stage == down {
			rep.stats.Downtime += math.Max(0, s.lastT-rep.since)
			for _, lw := range rep.s.Crash() {
				if s.lose(lw.Req, rep, batching.ErrReplicaDown, lw.Prefilled, lw.Decoded) {
					s.settle(s.states[lw.Req], rep.idx, fmt.Errorf("fleet: %w: request %d eaten by dead replica %d",
						batching.ErrReplicaDown, lw.Req.ID, rep.idx))
				}
			}
		}
		rep.stats.FinalHealth = rep.stage.String()
		rep.stats.Retired = rep.stage == retired
		if !rep.stats.Retired {
			rep.stats.RetiredAt = s.lastT
		}
	}
	res := s.res
	chips := 0
	for _, r := range s.all {
		res.PerReplica = append(res.PerReplica, r.stats)
		res.ReplicaSeconds += r.stats.RetiredAt - r.stats.AddedAt
		chips += r.pool.cfg.System.Chips()
	}
	// Totals an itemized ledger already holds are read off it.
	for _, w := range res.Wasted {
		res.WastedPrefillTokens += w.PrefillTokens
		res.WastedDecodeTokens += w.DecodedTokens
		res.PerReplica[w.Replica].WastedTokens += w.PrefillTokens + w.DecodedTokens
	}
	res.Ticks = len(res.TickStats)
	for _, ev := range res.ScaleEvents {
		if ev.Verdict == autoscale.ScaleOut.String() {
			res.ScaleOuts++
		} else {
			res.ScaleIns++
		}
	}
	if res.ReplicaSeconds > 0 {
		res.GoodputPerReplicaSec = float64(res.GoodTokens) / res.ReplicaSeconds
	}
	if res.Makespan > 0 {
		res.GenTokensPerSec = float64(res.GenTokens) / res.Makespan
		res.GoodputPerChip = float64(res.GoodTokens) / (res.Makespan * float64(chips))
	}
	if len(s.lat) > 0 {
		sum := 0.0
		for _, l := range s.lat {
			sum += l
		}
		res.MeanLatency = sum / float64(len(s.lat))
		res.P50 = batching.Percentile(s.lat, 0.50)
		res.P99 = batching.Percentile(s.lat, 0.99)
	} else {
		res.MeanLatency = math.NaN()
	}
	res.RecoveryP99 = batching.Percentile(s.recov, 0.99)
	return res
}

// RoutingComparison holds the same fleet run under prefix-affinity and
// random routing.
type RoutingComparison struct {
	Affinity Result
	Random   Result
	// Speedup is affinity's generated-token rate over random's.
	Speedup float64
}

// CompareRouting runs the trace twice through an identical fleet — once
// with prefix-affinity routing, once with random — the experiment behind
// the claim that affinity turns template popularity into throughput.
func CompareRouting(c Config, trace batching.Trace) (RoutingComparison, error) {
	ca := c
	ca.Policy = Affinity
	aff, err := Simulate(ca, trace)
	if err != nil {
		return RoutingComparison{}, err
	}
	cr := c
	cr.Policy = Random
	rnd, err := Simulate(cr, trace)
	if err != nil {
		return RoutingComparison{}, err
	}
	cmp := RoutingComparison{Affinity: aff, Random: rnd}
	if rnd.GenTokensPerSec > 0 {
		cmp.Speedup = aff.GenTokensPerSec / rnd.GenTokensPerSec
	}
	return cmp, nil
}
