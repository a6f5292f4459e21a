package main

import (
	"math/rand"
	"runtime"
	"time"

	"esti/internal/autoscale"
	"esti/internal/batching"
	"esti/internal/collective"
	"esti/internal/engine"
	"esti/internal/faults"
	"esti/internal/fleet"
	"esti/internal/hardware"
	"esti/internal/kvcache"
	"esti/internal/mesh"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/planner"
	"esti/internal/quant"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/serve"
	"esti/internal/simd"
	"esti/internal/tensor"
)

// The probes call each lower layer's public functions directly, at the
// shapes the workload gives them, so that a layer's speed is on record
// next to the end-to-end metric it should move. Every time is the median
// over up to probeBatches batches; FLOPs and bytes are computed from tensor
// sizes, not counted by hardware.

const (
	probeBatches = 30
	probeBatchNS = 200_000         // a batch repeats its call until it lasts this long
	probeBudget  = 2 * time.Second // a slow probe stops early, after at least probeMinRuns
	probeMinRuns = 5
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float32

// timed returns the median time of one call of fn.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	inner := 1
	if one < probeBatchNS {
		inner = int(probeBatchNS/(one+1)) + 1
	}
	var per []float64
	began := time.Now()
	for b := 0; b < probeBatches; b++ {
		if b >= probeMinRuns && time.Since(began) > probeBudget {
			break
		}
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(inner))
	}
	return time.Duration(median(per))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func randMat(rng *rand.Rand, rows, cols int) *tensor.Mat {
	return tensor.New(rows, cols).FillRand(rng, 1)
}

// shapes are the sizes a workload hands the lower layers.
type shapes struct {
	chips       int
	prefillRows int // tokens in a typical prefill pass
	decodeRows  int // tokens in a decode step
	e, fShard   int // GEMM contraction and per-chip output width of the FFN up-projection
	dh, heads   int
	kvWidth     int // K/V row width on one chip
	past        int // KV rows already in the slot when a prefill pass starts: the template
	depth       int // KV rows a decode step walks
}

func (s spec) shapes() shapes {
	n := s.torus.Chips()
	rows := (s.tailMin + s.tailMax) / 2
	if s.chunk > 0 {
		rows = s.chunk
	}
	kvw := s.cfg.KVHeads * s.cfg.HeadDim
	heads := s.cfg.Heads
	if s.opts.Attn == partition.AttnShardHeads {
		heads /= n
		if s.cfg.KVHeads > 1 {
			kvw /= n
		}
	}
	past := (s.tmplMin + s.tmplMax) / 2
	return shapes{
		chips: n, prefillRows: rows, decodeRows: s.slots,
		e: s.cfg.DModel, fShard: s.cfg.DFF / n,
		dh: s.cfg.HeadDim, heads: heads, kvWidth: kvw,
		past: past, depth: past + (s.tailMin+s.tailMax)/2 + (s.outMin+s.outMax)/4,
	}
}

// probeLayers measures the layers below the engine and adds them to m.
func (s spec) probeLayers(m metrics) {
	sh := s.shapes()
	rng := rand.New(rand.NewSource(7))
	put := m.put

	// mesh and collective, on the workload's torus.
	s.probeMesh(sh, put)

	// tensor and quant: the FFN up-projection at prefill and decode height.
	w := randMat(rng, sh.e, sh.fShard)
	wq := quant.Quantize(w)
	gemm := func(rows int, int8w bool) float64 {
		a := randMat(rng, rows, sh.e)
		dst := tensor.New(rows, sh.fShard)
		d := timed(func() {
			if int8w {
				quant.MatMulInto(dst, a, wq)
			} else {
				tensor.MatMulInto(dst, a, w)
			}
		})
		return 2 * float64(rows) * float64(sh.e) * float64(sh.fShard) / float64(d.Nanoseconds())
	}
	put("tensor.matmul_prefill_gflops", gemm(sh.prefillRows, false), "GFLOP/s")
	put("tensor.matmul_decode_gflops", gemm(sh.decodeRows, false), "GFLOP/s")
	put("quant.matmul_int8_gflops", gemm(sh.decodeRows, true), "GFLOP/s")
	row := randMat(rng, 1, sh.kvWidth).Data
	row8 := make([]int8, sh.kvWidth)
	put("quant.quantize_row_ns", float64(timed(func() { sink += quant.QuantizeRowInto(row8, row) }).Nanoseconds()), "ns")

	// simd: the attention walk's kernels over head-dim vectors, 256 rows a call.
	const rows = 256
	q := randMat(rng, 1, sh.dh).Data
	kf := randMat(rng, rows, sh.dh)
	k8 := make([]int8, rows*sh.dh)
	for i := range k8 {
		k8[i] = int8(rng.Intn(255) - 127)
	}
	acc := make([]float32, sh.dh)
	dotF := timed(func() {
		for r := 0; r < rows; r++ {
			sink += simd.DotF32(q, kf.Row(r))
		}
	})
	dot8 := timed(func() {
		for r := 0; r < rows; r++ {
			sink += simd.DotF32I8(q, k8[r*sh.dh:(r+1)*sh.dh])
		}
	})
	maF := timed(func() {
		for r := 0; r+4 <= rows; r += 4 {
			simd.MulAdd4F32(acc, kf.Row(r), kf.Row(r+1), kf.Row(r+2), kf.Row(r+3), 1e-3, 1e-3, 1e-3, 1e-3)
		}
	})
	ma8 := timed(func() {
		for r := 0; r+4 <= rows; r += 4 {
			o := r * sh.dh
			simd.MulAdd4F32I8(acc, k8[o:o+sh.dh], k8[o+sh.dh:o+2*sh.dh], k8[o+2*sh.dh:o+3*sh.dh], k8[o+3*sh.dh:o+4*sh.dh], 1e-3, 1e-3, 1e-3, 1e-3)
		}
	})
	elems := float64(rows * sh.dh)
	put("simd.dot_f32_gbps", elems*8/float64(dotF.Nanoseconds()), "GB/s")
	put("simd.dot_f32i8_gbps", elems*5/float64(dot8.Nanoseconds()), "GB/s")
	put("simd.muladd4_f32_gflops", elems*2/float64(maF.Nanoseconds()), "GFLOP/s")
	put("simd.muladd4_f32i8_gflops", elems*2/float64(ma8.Nanoseconds()), "GFLOP/s")

	// reference attention and kvcache appends, float and int8 at the same
	// depths: a prefill pass lands on top of the shared template, a decode
	// step on top of the whole prompt and half the output.
	for _, int8kv := range []bool{false, true} {
		newCache := kvcache.New
		suffix := "f32"
		if int8kv {
			newCache, suffix = kvcache.NewInt8, "int8"
		}
		c := newCache(1, 1, sh.depth+sh.prefillRows, sh.kvWidth)
		var scr reference.AttnScratch
		scr.Reserve(c.MaxLen)
		if sh.past > 0 {
			c.AppendSeq(0, 0, randMat(rng, sh.past, sh.kvWidth), randMat(rng, sh.past, sh.kvWidth), sh.past)
			c.AdvanceSeq(0, sh.past)
		}

		kp, vp := randMat(rng, sh.prefillRows, sh.kvWidth), randMat(rng, sh.prefillRows, sh.kvWidth)
		app := timed(func() { c.AppendSeq(0, 0, kp, vp, sh.prefillRows) })
		name := "kvcache.append_ns_per_row"
		if int8kv {
			name = "kvcache.append_int8_ns_per_row"
		}
		put(name, float64(app.Nanoseconds())/float64(sh.prefillRows), "ns")

		if int8kv == (s.opts.KVDType == model.Int8) {
			qp := randMat(rng, sh.prefillRows, sh.heads*sh.dh)
			dst := tensor.New(sh.prefillRows, sh.heads*sh.dh)
			d := timed(func() { reference.AttendSeqInto(dst, sh.dh, qp, c, 0, 0, sh.prefillRows, &scr) })
			put("reference.attend_prefill_ms", ms(d), "ms")
		}

		more := sh.depth - sh.past
		c.AppendSeq(0, 0, randMat(rng, more, sh.kvWidth), randMat(rng, more, sh.kvWidth), more)
		c.AdvanceSeq(0, more-1)
		q1 := randMat(rng, 1, sh.heads*sh.dh)
		dst := tensor.New(1, sh.heads*sh.dh)
		d := timed(func() { reference.AttendSeqInto(dst, sh.dh, q1, c, 0, 0, 1, &scr) })
		put("reference.attend_"+suffix+"_ns_per_row", float64(d.Nanoseconds())/float64(sh.depth), "ns")
	}

	// kvcache prefix store, one chip's: a template-sized entry looked up and
	// released, and inserted into a store with room for one, so that every
	// insertion copies its rows in and evicts the other key's. The serving
	// loop pays both inside engine.PrefillSlotCached.
	acquire, insert := 0.0, 0.0
	if sh.past > 0 {
		newStore := kvcache.NewPrefixStore
		rowBytes := 4 * sh.kvWidth
		if s.opts.KVDType == model.Int8 {
			newStore, rowBytes = kvcache.NewPrefixStoreInt8, sh.kvWidth+4
		}
		// One entry is past × 2 (K and V) × layers × rowBytes; the budget is 1.5.
		ps := newStore(s.cfg.Layers, sh.kvWidth, 3*sh.past*s.cfg.Layers*rowBytes)
		keys := [2][]int{make([]int, sh.past), make([]int, sh.past)}
		keys[1][0] = 1
		k, v := make([]*tensor.Mat, s.cfg.Layers), make([]*tensor.Mat, s.cfg.Layers)
		for l := range k {
			k[l], v[l] = randMat(rng, sh.past, sh.kvWidth), randMat(rng, sh.past, sh.kvWidth)
		}
		n := 0
		insert = us(timed(func() {
			n++
			if _, err := ps.Insert(keys[n%2], k, v); err != nil {
				panic(err) // the budget holds one such entry
			}
		}))
		acquire = us(timed(func() {
			p, _ := ps.Acquire(keys[n%2])
			if err := ps.Release(p); err != nil {
				panic(err) // the key was the last one inserted
			}
		}))
	}
	put("kvcache.prefix_acquire_us", acquire, "us")
	put("kvcache.prefix_insert_us", insert, "us")

	logits := randMat(rng, 1, s.cfg.Vocab).Data
	put("sampling.greedy_ns", float64(timed(func() { sink += float32(sampling.Greedy(logits)) }).Nanoseconds()), "ns")
}

// probeMesh times an empty SPMD launch, one ring hop and each collective
// the engine uses, at the decode step's payload: one [slots, E/chips]
// activation shard per chip. On one chip the engine runs its pass inline
// and skips every collective, so all of these are reported as 0.
func (s spec) probeMesh(sh shapes, put func(name string, v float64, unit string)) {
	m := mesh.New(s.torus)
	n := sh.chips
	if n == 1 {
		for _, name := range []string{"mesh.run_empty_us", "mesh.ring_sendrecv_us",
			"collective.allgather_us", "collective.allgather_int8_us", "collective.allgather_stream_us",
			"collective.reducescatter_us", "collective.allreduce_norm_us", "collective.alltoall_us"} {
			put(name, 0, "us")
		}
		return
	}
	const inner = 16 // collectives per SPMD launch, so the launch is amortised
	var opID uint64
	inRun := func(body func(c *mesh.Chip, o collective.Op)) float64 {
		d := timed(func() {
			base := opID
			opID += inner * collective.AllReduceIDs
			m.Run(func(c *mesh.Chip) {
				for i := uint64(0); i < inner; i++ {
					body(c, collective.Op{Chip: c, ID: base + i*collective.AllReduceIDs})
				}
			})
		})
		return us(d) / inner
	}

	put("mesh.run_empty_us", us(timed(func() { m.Run(func(*mesh.Chip) {}) })), "us")
	shardLen := sh.decodeRows * sh.e / n
	ring := inRun(func(c *mesh.Chip, o collective.Op) {
		buf := c.Buffer(shardLen)
		c.SendOwned((c.Rank+1)%n, o.ID<<20, buf)
		c.Recycle(c.Recv((c.Rank+n-1)%n, o.ID<<20))
	})
	put("mesh.ring_sendrecv_us", ring, "us")

	g := hardware.GroupXYZ
	shard := func(c *mesh.Chip, n int) []float32 { return c.Buffer(n) }
	put("collective.allgather_us", inRun(func(c *mesh.Chip, o collective.Op) {
		in := shard(c, shardLen)
		c.Recycle(collective.AllGather(o, g, in))
		c.Recycle(in)
	}), "us")
	put("collective.allgather_int8_us", inRun(func(c *mesh.Chip, o collective.Op) {
		o.Wire = collective.WireInt8
		in := shard(c, shardLen)
		c.Recycle(collective.AllGather(o, g, in))
		c.Recycle(in)
	}), "us")
	put("collective.allgather_stream_us", inRun(func(c *mesh.Chip, o collective.Op) {
		in := shard(c, shardLen)
		c.Recycle(collective.AllGatherStream(o, g, in, func(int, []float32) {}))
		c.Recycle(in)
	}), "us")
	put("collective.reducescatter_us", inRun(func(c *mesh.Chip, o collective.Op) {
		in := shard(c, shardLen*n)
		c.Recycle(collective.ReduceScatter(o, g, in))
		c.Recycle(in)
	}), "us")
	put("collective.allreduce_norm_us", inRun(func(c *mesh.Chip, o collective.Op) {
		in := shard(c, sh.decodeRows) // one sum of squares per token
		c.Recycle(collective.AllReduce(o, g, in))
		c.Recycle(in)
	}), "us")
	put("collective.alltoall_us", inRun(func(c *mesh.Chip, o collective.Op) {
		in := shard(c, shardLen)
		per := shardLen / n
		shards := make([][]float32, n)
		for d := range shards {
			shards[d] = in[d*per : (d+1)*per]
		}
		for _, r := range collective.AllToAll(o, g, shards) {
			c.Recycle(r)
		}
		c.Recycle(in)
	}), "us")
}

// probeEngine measures the engine outside the serving loop: construction,
// steady-state decode allocations, KV handoff, and the weight-gathered
// prefill no workload covers. It leaves every slot free.
func (sv *server) probeEngine(m metrics) {
	s := sv.spec
	put := m.put

	put("engine.new_ms", ms(timed(func() {
		// The error was nil when this server was built from the same arguments.
		_, _ = engine.New(sv.w, s.torus, s.opts, s.slots, s.maxLen())
	})), "ms")

	// Steady-state decode, all slots live, after the pools have warmed.
	prompt := sv.reqs[0].prompt
	for slot := 0; slot < s.slots; slot++ {
		sv.eng.PrefillSlotCached(slot, prompt, 0)
		sv.active[slot] = true
		sv.last[slot] = 1
	}
	steps := (s.maxLen() - len(prompt)) / 2 // half the room to warm the pools, half to measure
	if steps > 8 {
		steps = 8
	}
	for i := 0; i < steps; i++ {
		sv.eng.DecodeSlotsInto(sv.logits, sv.last, sv.active)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		sv.eng.DecodeSlotsInto(sv.logits, sv.last, sv.active)
	}
	runtime.ReadMemStats(&after)
	put("engine.allocs_per_decode_step", float64(after.Mallocs-before.Mallocs)/float64(steps), "count")
	put("engine.alloc_bytes_per_decode_step", float64(after.TotalAlloc-before.TotalAlloc)/float64(steps), "B")
	for slot := 1; slot < s.slots; slot++ {
		sv.eng.ReleaseSlot(slot)
		sv.active[slot] = false
	}

	// Handoff: slot 0's KV out and into slot 1.
	put("engine.handoff_us", us(timed(func() {
		kv, err := sv.eng.ExportSlotKV(0)
		if err == nil {
			err = sv.eng.ImportSlotKV(1, kv)
		}
		if err != nil {
			panic(err) // both slots are in the state the calls require
		}
		sv.eng.ReleaseSlot(1)
	})), "us")
	sv.eng.ReleaseSlot(0)
	sv.active[0] = false

	// Weight-gathered XYZ prefill: a fixed probe, the same for every workload.
	cfg := tinyCfg("L8E64", 8, 64, 256, 8, 8, model.Multiquery)
	wg, err := engine.New(reference.NewWeights(cfg, weightSeed), hardware.Torus{X: 2, Y: 2, Z: 2},
		engine.Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch}, 8, 64)
	if err != nil {
		panic(err) // a constant, valid configuration
	}
	p32 := make([]int, 32)
	put("engine.prefill_wg_ms", ms(timed(func() {
		wg.PrefillSlot(0, p32)
		wg.ReleaseSlot(0)
	})), "ms")
}

// probeSimulators times the analytic stack and the discrete-event
// simulators on fixed inputs. Nothing in this benchmark's end-to-end
// metrics depends on them; they are on record so that merging the
// simulators has a before and an after.
func probeSimulators(m metrics) {
	put := m.put
	cfg := model.PaLM540BPadded()
	sys := hardware.TPUv4Slice(4, 4, 4)
	knobs := perf.DefaultKnobs()
	bc := batching.Config{
		Model: cfg, Weights: model.Int8, System: sys,
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Slots: 64, MaxLen: 2048 + 256, PrefixCache: true, Knobs: knobs,
	}
	chat := batching.ChatbotTrace(2000, 0.05, 1)
	put("batching.simulate_ms", ms(timed(func() {
		if _, err := batching.Simulate(bc, chat); err != nil {
			panic(err) // fixed, valid input
		}
	})), "ms")

	zipf := batching.WithSLO(batching.ZipfPrefixTrace(400, 0.01, 1024, 48, 1.3, 11), 8.0, 0.3, 5)
	fc := fleet.Config{
		Replica: bc, Replicas: 4, Policy: fleet.Affinity, Seed: 42,
		Faults:    faults.RandomPlan(42, 4, 8.0),
		Recovery:  fleet.RecoveryPolicy{BrownoutBelow: 0.5},
		Autoscale: &autoscale.Policy{Interval: 0.25, MinReplicas: 2, MaxReplicas: 8, ScaleInBelow: 1.0, WarmupCost: 1.5},
	}
	put("fleet.simulate_ms", ms(timed(func() {
		if _, err := fleet.Simulate(fc, zipf); err != nil {
			panic(err) // fixed, valid input
		}
	})), "ms")

	req := perf.Request{
		Model: cfg, System: sys, Weights: model.Int8,
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Batch: 64, Context: 2048, Gen: 64,
	}
	put("perf.decode_eval_us", us(timed(func() { sink += float32(perf.Decode(req, knobs).Time) })), "us")
	put("planner.make_ms", ms(timed(func() {
		p := planner.Make(cfg, sys, model.Int8, planner.Workload{Batch: 64, Context: 2048, Gen: 64}, planner.MinLatency, knobs)
		sink += float32(p.TotalLatency)
	})), "ms")
	sc := serve.Config{
		Model: cfg, Weights: model.Int8, Context: 2048, Gen: 64, Knobs: knobs,
		Prefill: serve.Tier{System: sys, Batch: 1, FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads},
		Decode:  serve.Tier{System: sys, Batch: 64, FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch},
	}
	put("serve.tune_ms", ms(timed(func() {
		r, _ := serve.Tune(sc, 10)
		sink += float32(r.Metrics.Throughput)
	})), "ms")
}
