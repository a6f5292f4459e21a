package main

import (
	"math/rand"

	"esti/internal/engine"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
)

// spec is one workload: the model and its partitioning, the slot pool, and
// the shape of the request list every repetition replays.
type spec struct {
	name, why string
	cfg       model.Config
	torus     hardware.Torus
	opts      engine.Options
	slots     int
	minReps   int // timed repetitions a run makes at the least
	// setups is how many times a run builds the serving stack cold; setup_s
	// is their median. A stack that builds in milliseconds is built more
	// often, because one page fault more or less is a tenth of its time.
	setups int
	// ungated keeps a workload out of BENCHMARK.json, and so out of the
	// driver's runs and of -aa: it still runs by name and under -all.
	ungated bool

	requests         int // requests per repetition
	outMin, outMax   int // output tokens per request; unequal, so slots do not turn over in lockstep
	tailMin, tailMax int // unshared prompt tokens: the whole prompt, or what follows a template

	// templates > 0 puts a shared prefix, drawn Zipf, in front of each
	// tail. resident is the prefix budget counted in mean-length templates
	// (0 = unlimited). Every template is prefilled and cached at set-up.
	templates        int
	tmplMin, tmplMax int
	resident         int
	// Every coldEvery-th request is instead an unshared coldLen-token
	// prompt admitted chunk tokens at a time between decode steps.
	coldEvery, coldLen, chunk int

	// burst makes every request due at t = 0; otherwise a closed loop of
	// `slots` clients, each sending its next request when the last completes.
	burst bool
}

// weightSeed fixes the model: weights are part of the system under test,
// only requests are inputs.
const weightSeed = 1

func tinyCfg(name string, layers, e, f, heads, dh int, attn model.Attention) model.Config {
	kv := 1
	if attn == model.Multihead {
		kv = heads
	}
	return model.Config{
		Name: name, Layers: layers, DModel: e, DFF: f,
		Heads: heads, HeadDim: dh, KVHeads: kv, Attn: attn,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 512,
	}
}

// workloads are sized for 0.5–0.7 s per repetition on a 2-vCPU 2.1 GHz
// Xeon, so that a 38 s run makes 55–70 of them; README.md says what each one is for.
var workloads = []spec{
	{
		name: "chat_mesh8",
		why:  "8-chip 2D weight-stationary decode of tiny steps: mesh.Run launch/join and ring collectives dominate, kernels barely matter",
		cfg:  tinyCfg("L8E64", 8, 64, 256, 8, 8, model.Multiquery), torus: hardware.Torus{X: 2, Y: 2, Z: 2},
		opts:  engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch},
		slots: 8, minReps: 30, setups: 15, requests: 24, outMin: 16, outMax: 48, tailMin: 8, tailMax: 32,
	},
	{
		name: "prefill_1chip",
		why:  "one chip, long unshared prompts, short outputs: GEMM, causal prefill attention and KV writes; mesh and collectives do nothing",
		cfg:  tinyCfg("L4E256", 4, 256, 1024, 8, 32, model.Multiquery), torus: hardware.Torus{X: 1, Y: 1, Z: 1},
		opts:  engine.Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads},
		slots: 8, minReps: 30, setups: 15, requests: 24, outMin: 9, outMax: 15, tailMin: 40, tailMax: 88,
		// The least steady of the four on the runner (README.md, Noise): the
		// driver's time pays for three workloads at 38 s or four at 26 s.
		ungated: true,
	},
	{
		name: "longctx_int8kv",
		why:  "one chip, int8 weights and int8 KV, every request attends a long cached document: the quantized KV read path dominates the step",
		cfg:  tinyCfg("L4E256", 4, 256, 1024, 8, 32, model.Multiquery), torus: hardware.Torus{X: 1, Y: 1, Z: 1},
		opts: engine.Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads,
			Int8Weights: true, KVDType: model.Int8},
		slots: 8, minReps: 15, setups: 3, requests: 24, outMin: 9, outMax: 15, tailMin: 8, tailMax: 16,
		templates: 1, tmplMin: 1024, tmplMax: 1024,
	},
	{
		name: "shared_prefix_mix",
		why:  "4-chip 1D weight-stationary, head-sharded, int8 wire, streamed; Zipf templates through an evicting prefix store, chunked cold prompts, burst arrival: admission sets TTFT",
		cfg:  tinyCfg("L4E128", 4, 128, 512, 8, 16, model.Multihead), torus: hardware.Torus{X: 2, Y: 2, Z: 1},
		opts: engine.Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads,
			WireDType: model.Int8, Streamed: true},
		slots: 8, minReps: 30, setups: 5, requests: 24, outMin: 10, outMax: 22, tailMin: 8, tailMax: 24,
		templates: 12, tmplMin: 96, tmplMax: 160, resident: 8,
		coldEvery: 6, coldLen: 192, chunk: 32,
		burst: true,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// gated are the workloads BENCHMARK.json names.
func gated() []spec {
	var g []spec
	for _, w := range workloads {
		if !w.ungated {
			g = append(g, w)
		}
	}
	return g
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// exact reports whether a request's tokens are independent of what shares
// its batch. The int8 wire quantizes each collective chunk with one scale
// over all of a pass's tokens, so there a sequence's logits carry noise
// from its neighbours and no batch-1 run can predict its tokens.
func (s spec) exact() bool { return s.opts.WireDType != model.Int8 }

// refTolerance is how far below reference.Model's best logit, as a share
// of its magnitude, one of this workload's tokens may sit; 0 if the
// reference does not predict them at all. A float engine differs from the
// reference only in summation order, so near-ties can flip; an int8 wire
// adds up to half a quantization step per collective; int8 weights or an
// int8 KV cache compute different logits altogether.
func (s spec) refTolerance() float64 {
	switch {
	case s.opts.Int8Weights || s.opts.KVDType == model.Int8:
		return 0
	case s.opts.WireDType == model.Int8:
		return 0.02
	default:
		return 1e-4
	}
}

// maxLen is the slot capacity: the longest prompt plus its output.
func (s spec) maxLen() int {
	longest := s.tmplMax + s.tailMax
	if s.coldLen > longest {
		longest = s.coldLen
	}
	return longest + s.outMax
}

// request is one prompt and what the harness needs to serve and check it.
type request struct {
	id       int
	prompt   []int
	remember int   // leading tokens that form a shared template (0 = none)
	chunk    int   // > 0: admit this many tokens per iteration
	out      int   // tokens to generate
	expect   []int // oracle tokens, len == out
}

// trace is a workload's input: the templates to warm and the request list.
type trace struct {
	templates [][]int
	requests  []request
}

// generate draws the request list. The shape — lengths, template choices,
// order — comes from a fixed stream, and only token values come from seed:
// the engine's work does not depend on token values, so two seeds give
// different inputs and outputs but the same amount of work, and the spread
// between seeds is the machine's, not the generator's.
func (s spec) generate(seed int64) trace {
	shape := rand.New(rand.NewSource(20230601))
	toks := rand.New(rand.NewSource(seed))
	draw := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = toks.Intn(s.cfg.Vocab)
		}
		return p
	}
	// Lengths are multiples of 4: the attention walk sums value rows four at
	// a time per segment, so a prefix boundary off that grid would regroup
	// the float sum and a cached admission would differ from a cold one in
	// the last bit.
	span := func(lo, hi int) int { return lo + 4*shape.Intn((hi-lo)/4+1) }

	var tr trace
	for t := 0; t < s.templates; t++ {
		tr.templates = append(tr.templates, draw(span(s.tmplMin, s.tmplMax)))
	}
	var zipf *rand.Zipf
	if s.templates > 1 {
		zipf = rand.NewZipf(shape, 1.2, 1, uint64(s.templates-1))
	}
	for i := 0; i < s.requests; i++ {
		r := request{id: i, out: s.outMin + shape.Intn(s.outMax-s.outMin+1)}
		switch {
		case s.coldEvery > 0 && i%s.coldEvery == s.coldEvery-1:
			r.prompt, r.chunk = draw(s.coldLen), s.chunk
		case s.templates > 0:
			t := 0
			if zipf != nil {
				t = int(zipf.Uint64())
			}
			tmpl := tr.templates[t]
			r.prompt = append(append([]int(nil), tmpl...), draw(span(s.tailMin, s.tailMax))...)
			r.remember = len(tmpl)
		default:
			r.prompt = draw(span(s.tailMin, s.tailMax))
		}
		tr.requests = append(tr.requests, r)
	}
	return tr
}

// prefixBudget is the per-chip byte budget of the prefix store: `resident`
// mean-length templates of this chip's K and V rows (computed from tensor
// sizes), 0 for unlimited.
func (s spec) prefixBudget() int {
	if s.resident == 0 {
		return 0
	}
	width := s.cfg.KVHeads * s.cfg.HeadDim
	if s.opts.Attn == partition.AttnShardHeads && s.cfg.KVHeads > 1 {
		width /= s.torus.Chips()
	}
	rowBytes := 4 * width
	if s.opts.KVDType == model.Int8 {
		rowBytes = width + 4
	}
	mean := (s.tmplMin + s.tmplMax) / 2
	return s.resident * mean * 2 * s.cfg.Layers * rowBytes
}
