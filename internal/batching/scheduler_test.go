package batching

import (
	"errors"
	"math"
	"testing"

	"esti/internal/hardware"
	"esti/internal/partition"
	"esti/internal/perf"
)

func drain(t *testing.T, s *Scheduler) []*Request {
	t.Helper()
	var done []*Request
	for i := 0; s.Busy(); i++ {
		if i > 10000 {
			t.Fatal("scheduler did not drain in 10000 iterations")
		}
		_, d := s.Step()
		done = append(done, d...)
	}
	return done
}

// A prefill-only scheduler completes each request the moment its prompt has
// prefilled: one admission iteration per request (no decode steps), the slot
// freed immediately for the next.
func TestPrefillOnlyCompletesAtFirstToken(t *testing.T) {
	c := palm540bConfig()
	c.Slots = 2
	s, err := NewPrefillScheduler(c)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*Request, 4)
	for i := range reqs {
		reqs[i] = &Request{ID: i, Context: 256, Gen: 64, Slot: -1}
		s.Enqueue(reqs[i])
	}
	done := drain(t, s)
	if len(done) != 4 {
		t.Fatalf("prefill pool completed %d/4", len(done))
	}
	for _, r := range reqs {
		if r.Done <= r.Admitted {
			t.Errorf("request %d: done %.4f <= admitted %.4f", r.ID, r.Done, r.Admitted)
		}
	}
	// Completion must not wait for Gen decode steps: the whole pool drains in
	// far less time than one request's decode phase would take.
	full, err := NewScheduler(c)
	if err != nil {
		t.Fatal(err)
	}
	full.Enqueue(&Request{ID: 9, Context: 256, Gen: 64, Slot: -1})
	fullDone := drain(t, full)
	if s.Now() >= fullDone[0].Done {
		t.Errorf("prefill pool (4 reqs, %.4fs) not faster than one full request (%.4fs)",
			s.Now(), fullDone[0].Done)
	}
	if s.genTokens != 4*64 {
		t.Errorf("prefill pool genTokens %d; localTokens counts full Gen", s.genTokens)
	}
}

// A decode-only admission skips prefill: it joins the decode batch on its
// admission iteration and produces Gen-1 further tokens (the first came from
// the prefill pool).
func TestDecodeOnlyAdmission(t *testing.T) {
	c := palm540bConfig()
	s, err := NewScheduler(c)
	if err != nil {
		t.Fatal(err)
	}
	r := &Request{ID: 0, Context: 512, Gen: 8, Slot: -1}
	s.EnqueueDecodeOnly(r)
	iters := 0
	for s.Busy() {
		s.Step()
		iters++
	}
	// Gen-1 decode steps: admission iteration decodes token 2, then 6 more.
	if iters != 7 {
		t.Errorf("decode-only Gen=8 took %d iterations, want 7", iters)
	}
	if s.genTokens != 7 {
		t.Errorf("decode-only genTokens %d, want Gen-1=7", s.genTokens)
	}

	// Gen=1: the prefill pool's token was the whole request; the decode
	// replica admits and completes it without any decode step.
	one := &Request{ID: 1, Context: 128, Gen: 1, Slot: -1}
	s.EnqueueDecodeOnly(one)
	_, done := s.Step()
	if len(done) != 1 || done[0].ID != 1 {
		t.Fatalf("Gen=1 decode-only did not complete on admission: %v", done)
	}
}

// A static scheduler admits only into an empty batch, takes up to Slots
// requests as one group, and prices every pass at the full batch over the
// group's padded shape: two requests in four slots pay one batch-4 prefill
// of the longer prompt and batch-4 decode steps at the longest context.
func TestStaticBatchDiscipline(t *testing.T) {
	c := palm540bConfig()
	c.Slots, c.Static = 4, true
	s, err := NewScheduler(c)
	if err != nil {
		t.Fatal(err)
	}
	short := &Request{ID: 0, Context: 256, Gen: 3, Slot: -1}
	long := &Request{ID: 1, Context: 512, Gen: 5, Slot: -1}
	s.Enqueue(short)
	s.Enqueue(long)
	// The third arrives once the group runs: it must wait for the whole
	// group to drain, though three slots sit free the whole time.
	s.Step()
	late := &Request{ID: 2, Context: 128, Gen: 2, Slot: -1}
	s.Enqueue(late)
	drain(t, s)

	k := perf.DefaultKnobs()
	req := perf.Request{Model: c.Model, System: c.System, Weights: c.Weights,
		FFN: c.FFN, Attn: c.Attn, Batch: c.Slots}
	cost := func(ctx int, prefill bool) float64 {
		r := req
		if prefill {
			r.Context = ctx
			return perf.Prefill(r, k).Time
		}
		r.Context, r.Gen = (ctx+31)/32*32, 1
		return perf.Decode(r, k).Time
	}
	// Prefill yields token 1; decode steps produce tokens 2..Gen at the
	// longest context in the batch, the short request riding along until
	// it finishes and its slot then idling until the long one ends.
	want := cost(512, true)
	for tok := 1; tok < long.Gen; tok++ {
		want += cost(512+tok, false)
	}
	if math.Abs(long.Done-want) > 1e-12 {
		t.Errorf("group done at %.6f, want %.6f (full-batch prefill and steps)", long.Done, want)
	}
	if short.Done >= long.Done {
		t.Errorf("short request done %.4f not before the long one %.4f", short.Done, long.Done)
	}
	if late.Admitted != long.Done {
		t.Errorf("late request admitted at %.4f, want when the group drained (%.4f)", late.Admitted, long.Done)
	}

	c.PrefillChunk = 64
	if _, err := NewScheduler(c); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("static with chunked prefill: got %v, want ErrInvalidConfig", err)
	}
}

// Priority orders admission under contention; equal priorities stay FIFO.
func TestPriorityAdmissionOrder(t *testing.T) {
	c := palm540bConfig()
	c.Slots = 1 // full contention: admission order is completion order
	s, err := NewScheduler(c)
	if err != nil {
		t.Fatal(err)
	}
	low1 := &Request{ID: 0, Context: 128, Gen: 2, Slot: -1}
	low2 := &Request{ID: 1, Context: 128, Gen: 2, Slot: -1}
	high := &Request{ID: 2, Context: 128, Gen: 2, Priority: 1, Slot: -1}
	s.Enqueue(low1)
	s.Enqueue(low2)
	s.Enqueue(high)
	var order []int
	for s.Busy() {
		_, done := s.Step()
		for _, r := range done {
			order = append(order, r.ID)
		}
	}
	want := []int{2, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}

// HasTemplate turns on only after a template's first prefill completes — the
// router's affinity signal follows the cache's actual contents.
func TestHasTemplateWarmsAfterPrefill(t *testing.T) {
	c := palm540bConfig()
	c.PrefixCache = true
	s, err := NewScheduler(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.HasTemplate(3) {
		t.Fatal("template warm before any request")
	}
	s.Enqueue(&Request{ID: 0, Context: 256, Gen: 2, Template: 3, PrefixLen: 128, Slot: -1})
	s.Step()
	if !s.HasTemplate(3) {
		t.Error("template not warm after its prefill iteration")
	}
	if s.HasTemplate(4) {
		t.Error("unrelated template reported warm")
	}
}

// EstimateFinish grows with queued work and respects prefill-only pools.
func TestEstimateFinishMonotonic(t *testing.T) {
	c := palm540bConfig()
	s, err := NewScheduler(c)
	if err != nil {
		t.Fatal(err)
	}
	probe := &Request{Context: 512, Gen: 64}
	empty := s.EstimateFinish(probe, false)
	if empty <= 0 {
		t.Fatalf("empty-replica estimate %.4f", empty)
	}
	for i := 0; i < 20; i++ {
		s.Enqueue(&Request{ID: i, Context: 512, Gen: 64, Slot: -1})
	}
	loaded := s.EstimateFinish(probe, false)
	if loaded <= empty {
		t.Errorf("estimate did not grow with load: empty %.4f loaded %.4f", empty, loaded)
	}
	// Decode-only admission skips the candidate's own prefill cost.
	if d := s.EstimateFinish(probe, true); d >= loaded {
		t.Errorf("decode-only estimate %.4f not below full estimate %.4f", d, loaded)
	}
	pre, err := NewPrefillScheduler(c)
	if err != nil {
		t.Fatal(err)
	}
	pref := pre.EstimateFinish(probe, false)
	if pref <= 0 || pref >= empty {
		t.Errorf("prefill-pool estimate %.4f should be positive and below full-service %.4f", pref, empty)
	}
}

// The sentinel errors must be reachable with errors.Is through every wrapped
// path.
func TestSentinelErrors(t *testing.T) {
	c := palm540bConfig()

	bad := c
	bad.Slots = 0
	if _, err := NewScheduler(bad); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("zero slots: got %v, want ErrInvalidConfig", err)
	}
	huge := c
	huge.System = hardware.TPUv4Slice(1, 1, 1)
	if _, err := NewScheduler(huge); !errors.Is(err, ErrInfeasible) {
		t.Errorf("540B on one chip: got %v, want ErrInfeasible", err)
	}
	unpriced := c
	unpriced.FFN = partition.FFNLayout(42)
	if _, err := NewScheduler(unpriced); !errors.Is(err, ErrInfeasible) {
		t.Errorf("unknown FFN layout: got %v, want ErrInfeasible", err)
	}

	if err := c.CheckRequest(Request{Context: c.MaxLen, Gen: 64}); !errors.Is(err, ErrPromptTooLong) {
		t.Errorf("oversized request: got %v, want ErrPromptTooLong", err)
	}
	if err := c.CheckRequest(Request{Context: 256, Gen: 0}); !errors.Is(err, ErrPromptTooLong) {
		t.Errorf("zero-gen request: got %v, want ErrPromptTooLong", err)
	}
	if err := c.CheckRequest(Request{Arrival: -1, Context: 256, Gen: 8}); !errors.Is(err, ErrInvalidTrace) {
		t.Errorf("negative arrival: got %v, want ErrInvalidTrace", err)
	}
	if err := c.CheckRequest(Request{Context: 256, Gen: 8, Template: 1, PrefixLen: 300}); !errors.Is(err, ErrInvalidTrace) {
		t.Errorf("prefix beyond prompt: got %v, want ErrInvalidTrace", err)
	}
	if err := c.CheckRequest(Request{Context: 256, Gen: 8}); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

func TestZipfPrefixTrace(t *testing.T) {
	a := ZipfPrefixTrace(400, 0.05, 256, 12, 1.5, 7)
	b := ZipfPrefixTrace(400, 0.05, 256, 12, 1.5, 7)
	counts := map[int]int{}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if ra != rb {
			t.Fatalf("request %d differs between identical seeds", i)
		}
		if ra.Template < 1 || ra.Template > 12 {
			t.Fatalf("request %d template %d out of [1,12]", i, ra.Template)
		}
		if ra.PrefixLen != 256 || ra.Context <= 256 {
			t.Fatalf("request %d: prefix %d context %d", i, ra.PrefixLen, ra.Context)
		}
		counts[ra.Template]++
	}
	// Zipf skew: the most popular template dominates a uniform share.
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < 2*400/12 {
		t.Errorf("head template has %d/400 requests; expected Zipf skew above uniform %d", max, 400/12)
	}
	if len(counts) < 4 {
		t.Errorf("only %d distinct templates; tail missing", len(counts))
	}
}

func TestWithSLO(t *testing.T) {
	base := ZipfPrefixTrace(200, 0.05, 128, 8, 1.5, 1)
	stamped := WithSLO(base, 10, 0.25, 2)
	if base.Requests[0].Deadline != 0 {
		t.Fatal("WithSLO mutated its input trace")
	}
	high := 0
	for i, r := range stamped.Requests {
		if r.Priority == 1 {
			high++
			if r.Deadline != r.Arrival+5 {
				t.Fatalf("high-tier request %d deadline %.2f, want arrival+5", i, r.Deadline)
			}
		} else if r.Deadline != r.Arrival+10 {
			t.Fatalf("request %d deadline %.2f, want arrival+10", i, r.Deadline)
		}
	}
	if high < 20 || high > 80 {
		t.Errorf("high tier %d/200 at frac 0.25", high)
	}
}
