package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// tracedPairs is how many traced repetitions a traced run makes, each
// paired with an untraced one so the tracing overhead is measured on the
// same minute of the same machine.
const tracedPairs = 5

// counters are the counts of a repetition that must repeat exactly.
type counters struct {
	DecodeSteps    int   `json:"decode_steps"`
	PrefillCalls   int   `json:"prefill_calls"`
	PromptComputed int   `json:"prompt_tokens_computed"`
	PromptCached   int   `json:"prompt_tokens_cached"`
	MeshMsgs       int64 `json:"mesh_msgs"`
	MeshBytes      int64 `json:"mesh_bytes"`
	MeshInt8Bytes  int64 `json:"mesh_int8_bytes"`
	PrefixHits     int64 `json:"prefix_hits"`
	PrefixMisses   int64 `json:"prefix_misses"`
	PrefixEvicts   int64 `json:"prefix_evictions"`
	PrefixInserts  int64 `json:"prefix_insertions"`
}

func (st *repStats) counters() counters {
	return counters{
		st.decodeSteps, st.prefillCalls, st.computed, st.cached,
		st.msgs, st.bytes, st.byte8,
		st.prefix.Hits, st.prefix.Misses, st.prefix.Evictions, st.prefix.Insertions,
	}
}

// pairs is what a series of untraced/traced repetition pairs measured.
type pairs struct {
	tr       *tracer
	last     repStats // the last traced repetition
	kvPeak   int      // most private KV rows held at once, any repetition
	overhead float64  // median share of throughput that tracing cost
	waitMS   float64  // median over repetitions of the median queue wait
	itl95MS  float64  // median over the untraced repetitions of the p95 gap between tokens
}

// tracePairs runs n untraced repetitions, each followed by a traced one so
// that the tracing overhead is measured on the same minute of the same
// machine, and checks that every repetition's counters are the same.
func (sv *server) tracePairs(rep *report, n int) (pairs, error) {
	pr := pairs{tr: newTracer()}
	var overhead, wait, itl95 []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		plain := sv.repetition()
		rep.count(plain)
		runtime.GC()
		sv.tr = pr.tr
		st := sv.repetition()
		sv.tr = nil
		rep.count(st)
		if st.counters() != plain.counters() || (i > 0 && st.counters() != pr.last.counters()) {
			return pr, fmt.Errorf("workload %s: counters differ between repetitions: %+v then %+v",
				sv.spec.name, plain.counters(), st.counters())
		}
		overhead = append(overhead, 1-(float64(st.tokens)/st.wall.Seconds())/(float64(plain.tokens)/plain.wall.Seconds()))
		wait = append(wait, percentile(st.waitMS, 0.5))
		itl95 = append(itl95, percentile(plain.itlMS, 0.95))
		if st.kvTokensPeak > pr.kvPeak {
			pr.kvPeak = st.kvTokensPeak
		}
		pr.last = st
	}
	pr.overhead, pr.waitMS, pr.itl95MS = median(overhead), median(wait), median(itl95)
	return pr, nil
}

// tracedRun makes the per-layer half of a run: repetitions with a span
// around every call into the engine, then direct probes of the layers
// below it. It fills rep.Metrics with the per-layer metrics only.
func (sv *server) tracedRun(rep *report, opt runOpts, oracleS float64) error {
	pr, err := sv.tracePairs(rep, tracedPairs)
	if err != nil {
		return err
	}
	rep.Reps = tracedPairs
	tr, last := pr.tr, pr.last

	m := rep.Metrics
	put := m.put
	self, dur := tr.byName()
	sum := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			for _, d := range dur[n] {
				t += d
			}
		}
		return t
	}
	wall := sum("repetition")
	s := sv.spec

	put("engine.decode_step_ms_p50", median(dur["engine.DecodeSlotsInto"]), "ms")
	put("engine.decode_share", sum("engine.DecodeSlotsInto")/wall, "frac")
	put("engine.batch_occupancy_mean", float64(last.occupied)/float64(last.decodeSteps*s.slots), "frac")
	// PrefillSlotCached looks its prompt up in the prefix store and captures
	// the template back into it inside the one call; what those two cost on
	// their own is probed directly (kvcache.prefix_acquire_us, _insert_us).
	prefill := sum("engine.PrefillSlotCached", "engine.PrefillSlot")
	put("engine.prefill_ms_per_ktok", prefill/float64(tracedPairs*last.computed)*1000, "ms")
	put("engine.prefill_share", prefill/wall, "frac")
	put("engine.admin_share", sum("engine.ReleaseSlot")/wall, "frac")
	put("engine.decode_steps", float64(last.decodeSteps), "count")
	put("engine.prefill_calls", float64(last.prefillCalls), "count")
	put("engine.prompt_tokens_computed", float64(last.computed), "count")
	put("engine.prompt_tokens_cached", float64(last.cached), "count")

	put("mesh.bytes_per_out_token", float64(last.bytes)/float64(last.tokens), "B")
	frac8 := 0.0
	if last.bytes > 0 {
		frac8 = float64(last.byte8) / float64(last.bytes)
	}
	put("mesh.int8_bytes_frac", frac8, "frac")
	put("mesh.msgs_per_decode_step", float64(last.decodeMsgs)/float64(last.decodeSteps), "count")
	put("mesh.overlap_frac", sv.eng.MeasuredOverlap(), "frac")

	reserved := 0
	for r := 0; r < s.torus.Chips(); r++ {
		reserved += sv.eng.ChipCacheBytes(r)
	}
	perTok := float64(reserved) / float64(s.slots*s.maxLen())
	put("kvcache.reserved_bytes", float64(reserved), "B")
	put("kvcache.bytes_per_token", perTok, "B")
	put("kvcache.used_bytes_peak", float64(pr.kvPeak)*perTok, "B")
	hit := 0.0
	if n := last.prefix.Hits + last.prefix.Misses; n > 0 {
		hit = float64(last.prefix.Hits) / float64(n)
	}
	put("kvcache.prefix_hit_frac", hit, "frac")
	put("kvcache.prefix_cached_token_frac", float64(last.cached)/float64(last.cached+last.computed), "frac")
	put("kvcache.prefix_evictions", float64(last.prefix.Evictions), "count")
	put("kvcache.prefix_bytes", float64(last.prefix.Bytes), "B")

	put("bench.loop_share", ms(self["repetition"]+self["admit"])/wall, "frac")
	put("bench.queue_wait_ms_p50", pr.waitMS, "ms")
	put("bench.itl_ms_p95", pr.itl95MS, "ms")
	put("bench.trace_overhead_frac", pr.overhead, "frac")
	put("bench.oracle_s", oracleS, "s")

	sv.probeEngine(m)
	s.probeLayers(m)
	probeSimulators(m)

	out := opt.traceOut
	if out == "" {
		out = filepath.Join(".bench_build", "trace_"+s.name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return tr.writeChrome(out)
}
