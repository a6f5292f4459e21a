package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"syscall"
	"time"

	"esti/internal/engine"
	"esti/internal/kvcache"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// server is the serving stack under test plus the harness state around it:
// a single-goroutine continuous-batching loop with no policy — FIFO into
// free slots, whole-prompt admission unless a request asks for chunks, one
// decode step per iteration, greedy sampling. It is the fixed yardstick:
// everything it calls is public engine API, and it must stay dumb.
type server struct {
	spec spec
	w    *reference.Weights
	eng  *engine.Engine
	reqs []request

	slots  []slot
	last   []int
	active []bool
	logits *tensor.Mat
	got    [][]int // tokens emitted per request this repetition
	live   int     // occupied slots

	tr *tracer // nil unless tracing
}

// slot is one KV slot's occupant.
type slot struct {
	req     *request
	next    int // prompt tokens in the slot so far; < len(prompt) while chunking
	cached  int // of those, how many are an attached shared prefix
	emitted int
	bad     bool      // a token differed from the oracle
	due     time.Time // when the request was sent
	lastTok time.Time
	freed   time.Time // when the previous occupant completed
}

// newServer builds the stack cold: weights, engine, prefix store enabled
// and every template prefilled into it. This is what setup_s times.
func newServer(s spec, tr trace) (*server, error) {
	w := reference.NewWeights(s.cfg, weightSeed)
	eng, err := engine.New(w, s.torus, s.opts, s.slots, s.maxLen())
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.name, err)
	}
	if s.templates > 0 {
		eng.EnablePrefixCache(s.prefixBudget())
		for _, tmpl := range tr.templates {
			eng.PrefillSlot(0, tmpl)
			// A refusal means the budget is smaller than one template.
			if err := eng.CachePrefix(0, tmpl); err != nil {
				return nil, fmt.Errorf("workload %s: warm prefix: %w", s.name, err)
			}
			eng.ReleaseSlot(0)
		}
	}
	sv := &server{
		spec: s, w: w, eng: eng, reqs: tr.requests,
		slots:  make([]slot, s.slots),
		last:   make([]int, s.slots),
		active: make([]bool, s.slots),
		logits: tensor.New(s.slots, s.cfg.Vocab),
		got:    make([][]int, len(tr.requests)),
	}
	for i, r := range tr.requests {
		sv.got[i] = make([]int, r.out)
	}
	return sv, nil
}

// repStats is what one repetition of the request list measured.
type repStats struct {
	wall, cpu          time.Duration
	ttftMS, itlMS      []float64
	waitMS             []float64 // due → admission start
	tokens             int       // output tokens emitted
	sent, ok, failed   int
	decodeSteps        int
	occupied           int // Σ live slots over decode steps
	prefillCalls       int
	computed, cached   int                 // prompt tokens prefilled / served from the prefix store
	prefix             kvcache.PrefixStats // this repetition's share of the store's counters
	msgs, bytes, byte8 int64               // mesh traffic, all chips
	decodeMsgs         int64               // messages sent inside decode steps (traced runs)
	kvTokensPeak       int                 // most private KV rows held at once (traced runs)
	hash               string              // sha256 over every request's emitted tokens
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// call runs one engine call inside a span and turns a panic — the engine's
// answer to an over-capacity prompt or a bad token — into an error, so one
// bad request fails alone instead of taking the benchmark down.
func (sv *server) call(name string, parent spanID, req int, fn func()) (err error) {
	sp := sv.tr.begin(name, parent, req)
	defer func() {
		sv.tr.end(sp)
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: engine panic: %v", name, r)
		}
	}()
	fn()
	return nil
}

// repetition serves the whole request list once, from all slots free, and
// returns when the last request completes.
func (sv *server) repetition() repStats {
	var st repStats
	st.ttftMS = make([]float64, 0, len(sv.reqs))
	st.waitMS = make([]float64, 0, len(sv.reqs))
	nTok := 0
	for _, r := range sv.reqs {
		nTok += r.out
	}
	st.itlMS = make([]float64, 0, nTok)
	for s := range sv.slots {
		sv.slots[s] = slot{}
		sv.active[s] = false
	}
	for _, toks := range sv.got {
		for i := range toks {
			toks[i] = 0
		}
	}
	sv.live = 0
	mesh := sv.eng.Mesh()
	mesh.ResetCounters()
	pfx0 := sv.eng.PrefixStats()

	head := 0
	cpu0 := cpuTime()
	start := time.Now()
	root := sv.tr.begin("repetition", noSpan, noReq)
	for head < len(sv.reqs) || sv.live > 0 {
		// Admit: FIFO into free slots.
		for s := 0; s < len(sv.slots) && head < len(sv.reqs); s++ {
			sl := &sv.slots[s]
			if sl.req != nil {
				continue
			}
			r := &sv.reqs[head]
			head++
			sv.live++
			st.sent++
			now := time.Now()
			due := start
			if !sv.spec.burst && !sl.freed.IsZero() {
				due = sl.freed
			}
			*sl = slot{req: r, due: due}
			st.waitMS = append(st.waitMS, ms(now.Sub(due)))
			if r.chunk == 0 {
				sv.admitWhole(&st, root, s)
			}
		}
		// Advance chunked admissions by one chunk each.
		for s := range sv.slots {
			sl := &sv.slots[s]
			if sl.req != nil && sl.emitted == 0 && sl.req.chunk > 0 {
				sv.admitChunk(&st, root, s)
			}
		}
		// One decode step over every slot that has its first token.
		n := 0
		for s := range sv.slots {
			sl := &sv.slots[s]
			sv.active[s] = sl.req != nil && sl.emitted > 0
			if sv.active[s] {
				n++
			}
		}
		if n == 0 {
			continue
		}
		var m0 int64
		if sv.tr != nil {
			m0 = mesh.MessagesSent()
		}
		err := sv.call("engine.DecodeSlotsInto", root, noReq, func() {
			sv.eng.DecodeSlotsInto(sv.logits, sv.last, sv.active)
		})
		if sv.tr != nil {
			st.decodeMsgs += mesh.MessagesSent() - m0
			held := 0
			for s := range sv.slots {
				if sl := &sv.slots[s]; sl.req != nil {
					held += sl.next - sl.cached + sl.emitted
				}
			}
			if held > st.kvTokensPeak {
				st.kvTokensPeak = held
			}
		}
		st.decodeSteps++
		st.occupied += n
		if err != nil {
			// The step cannot be blamed on one request: all of them fail.
			for s := range sv.slots {
				if sv.active[s] {
					sv.finish(&st, root, s, false, time.Now())
				}
			}
			continue
		}
		sp := sv.tr.begin("sampling.Greedy", root, noReq)
		for s := range sv.slots {
			if sv.active[s] {
				sv.last[s] = sampling.Greedy(sv.logits.Row(s))
			}
		}
		sv.tr.end(sp)
		now := time.Now()
		for s := range sv.slots {
			if sv.active[s] {
				sv.emit(&st, root, s, sv.last[s], now)
			}
		}
	}
	sv.tr.end(root)
	st.wall = time.Since(start)
	st.cpu = cpuTime() - cpu0
	st.msgs, st.bytes, st.byte8 = mesh.MessagesSent(), mesh.BytesSent(), mesh.Int8BytesSent()
	st.prefix = sv.eng.PrefixStats()
	st.prefix.Hits -= pfx0.Hits
	st.prefix.Misses -= pfx0.Misses
	st.prefix.Insertions -= pfx0.Insertions
	st.prefix.Evictions -= pfx0.Evictions
	st.hash = sv.tokensHash()
	return st
}

// admitWhole prefills slot s's whole prompt with the engine's serving-path
// admission — longest cached prefix attached, the rest computed, the
// template captured back into the store — and emits the first token.
func (sv *server) admitWhole(st *repStats, root spanID, s int) {
	r := sv.slots[s].req
	ad := sv.tr.begin("admit", root, r.id)
	var logits *tensor.Mat
	cached := 0
	err := sv.call("engine.PrefillSlotCached", ad, r.id, func() {
		logits, cached = sv.eng.PrefillSlotCached(s, r.prompt, r.remember)
	})
	if err == nil {
		st.prefillCalls++
		st.cached += cached
		st.computed += len(r.prompt) - cached
		sv.slots[s].next, sv.slots[s].cached = len(r.prompt), cached
	}
	sv.first(st, root, ad, s, logits, err)
}

// admitChunk prefills the next chunk of slot s's prompt, and emits the
// first token when the prompt is complete.
func (sv *server) admitChunk(st *repStats, root spanID, s int) {
	sl := &sv.slots[s]
	r := sl.req
	hi := sl.next + r.chunk
	if hi > len(r.prompt) {
		hi = len(r.prompt)
	}
	ad := sv.tr.begin("admit", root, r.id)
	var logits *tensor.Mat
	err := sv.call("engine.PrefillSlot", ad, r.id, func() {
		logits = sv.eng.PrefillSlot(s, r.prompt[sl.next:hi])
	})
	st.prefillCalls++
	st.computed += hi - sl.next
	sl.next = hi
	if err == nil && hi < len(r.prompt) {
		sv.tr.end(ad)
		return
	}
	sv.first(st, root, ad, s, logits, err)
}

// first closes an admission: on success it samples and emits the first
// token, on an engine panic it fails the request and frees the slot.
func (sv *server) first(st *repStats, root, ad spanID, s int, logits *tensor.Mat, err error) {
	if err != nil {
		sv.tr.end(ad)
		sv.finish(st, root, s, false, time.Now())
		return
	}
	sp := sv.tr.begin("sampling.Greedy", ad, sv.slots[s].req.id)
	tok := sampling.Greedy(logits.Row(logits.Rows - 1))
	sv.tr.end(sp)
	sv.tr.end(ad)
	sv.emit(st, root, s, tok, time.Now())
}

// emit records one output token of slot s at time now, and completes the
// request if it was the last.
func (sv *server) emit(st *repStats, root spanID, s, tok int, now time.Time) {
	sl := &sv.slots[s]
	r := sl.req
	if sl.emitted == 0 {
		st.ttftMS = append(st.ttftMS, ms(now.Sub(sl.due)))
	} else {
		st.itlMS = append(st.itlMS, ms(now.Sub(sl.lastTok)))
	}
	sl.lastTok = now
	if r.expect != nil && tok != r.expect[sl.emitted] {
		sl.bad = true
	}
	sv.got[r.id][sl.emitted] = tok
	sv.last[s] = tok
	sl.emitted++
	st.tokens++
	if sl.emitted == r.out {
		sv.finish(st, root, s, !sl.bad, now)
	}
}

// finish counts slot s's request as ok or failed and frees the slot.
func (sv *server) finish(st *repStats, root spanID, s int, ok bool, now time.Time) {
	sl := &sv.slots[s]
	if ok {
		st.ok++
	} else {
		st.failed++
	}
	// ReleaseSlot panics only on a slot index out of range; nothing to do
	// about that here.
	_ = sv.call("engine.ReleaseSlot", root, sl.req.id, func() { sv.eng.ReleaseSlot(s) })
	*sl = slot{freed: now}
	sv.active[s] = false
	sv.live--
}

// adoptExpected makes the tokens of the repetition just run the expected
// ones: the workloads whose tokens depend on batch composition are checked
// for repeating exactly, not against a batch-1 run.
func (sv *server) adoptExpected() {
	for i := range sv.reqs {
		sv.reqs[i].expect = append([]int(nil), sv.got[i]...)
	}
}

func (sv *server) tokensHash() string {
	h := sha256.New()
	var b [8]byte
	for _, toks := range sv.got {
		for _, t := range toks {
			binary.LittleEndian.PutUint64(b[:], uint64(t))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
