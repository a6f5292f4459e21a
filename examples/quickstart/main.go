// Quickstart: cost a Transformer inference configuration with the
// analytical model, let the planner pick the best partitioning, price the
// paper's interactive chatbot turn, then run a small multiquery model
// across 8 simulated chips and check its logits against the unsharded
// reference. Exits 1 if the sharded logits diverge.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"esti/internal/engine"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/planner"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the tour: it takes no flags, writes to stdout and errors to
// stderr, and returns the exit status (1 if the sharded run fails or
// diverges).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quickstart", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A PaLM 540B-class model on a 64-chip TPU v4 slice.
	cfg := model.PaLM540BPadded()
	sys := hardware.TPUv4Slice(4, 4, 4)
	knobs := perf.DefaultKnobs()

	fmt.Fprintf(stdout, "model: %s (%.0fB params, %d layers, d_model %d)\n",
		cfg.Name, cfg.Params()/1e9, cfg.Layers, cfg.DModel)
	fmt.Fprintf(stdout, "system: %d × TPU v4 (torus %s)\n\n", sys.Chips(), sys.Torus)

	// 1. Cost a specific configuration by hand: batch-64 decode with int8
	// weights, 2D weight-stationary FFN, batch-sharded multiquery
	// attention — the paper's low-latency operating point.
	req := perf.Request{
		Model: cfg, System: sys, Weights: model.Int8,
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Batch: 64, Context: 2048, Gen: 64,
	}
	res := perf.Decode(req, knobs)
	fmt.Fprintf(stdout, "decode, batch 64, int8: %.1f ms/token at %.1f%% MFU\n",
		res.StepTime*1000, res.MFU*100)
	fmt.Fprintf(stdout, "  breakdown per 64-token generation: compute %.0fms, weights %.0fms, KV %.0fms, comm %.0fms\n\n",
		res.Breakdown.Compute*1000, res.Breakdown.WeightMem*1000,
		res.Breakdown.KVMem*1000, res.Breakdown.Comm*1000)

	// 2. Or let the planner choose everything for a workload.
	plan := planner.Make(cfg, sys, model.BF16,
		planner.Workload{Batch: 512, Context: 2048, Gen: 64},
		planner.MinCost, knobs)
	if !plan.Feasible {
		fmt.Fprintln(stderr, "no feasible plan:", plan.Reason)
		return 1
	}
	fmt.Fprintf(stdout, "planner (batch 512, min cost):\n")
	fmt.Fprintf(stdout, "  prefill: %-7s + %-11s → %.1fs at %.1f%% MFU\n",
		plan.Prefill.FFN, plan.Prefill.Attn, plan.Prefill.Result.Time, plan.Prefill.Result.MFU*100)
	fmt.Fprintf(stdout, "  decode:  %-7s + %-11s → %.1fs at %.1f%% MFU\n",
		plan.Decode.FFN, plan.Decode.Attn, plan.Decode.Result.Time, plan.Decode.Result.MFU*100)
	fmt.Fprintf(stdout, "  cost: %.3f chip-ms per generated token\n\n", plan.Decode.Result.Cost*1000)

	// 3. The paper's Section 1 chatbot turn: 64 new user tokens against a
	// 1920-token cached history, then a 64-token reply.
	req.Context, req.Past = 64, 1920
	turn := perf.Prefill(req, knobs).Time + perf.Decode(req, knobs).Time
	fmt.Fprintf(stdout, "chatbot turn (1920 cached + 64 in + 64 out): %.2fs total (paper: 1.9s)\n\n", turn)

	// 4. The same layout, functionally: a small multiquery model on a
	// 2×2×2 mesh, every prefill and greedy decode logit checked against
	// the unsharded reference.
	mini := model.Config{
		Name: "mini-palm", Layers: 4, DModel: 128, DFF: 256,
		Heads: 16, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 256,
	}
	torus := hardware.Torus{X: 2, Y: 2, Z: 2}
	const batch, promptLen, gen = 8, 8, 12
	w := reference.NewWeights(mini, 2024)
	eng, err := engine.New(w, torus, engine.Options{
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
	}, batch, promptLen+gen)
	if err != nil {
		fmt.Fprintln(stderr, "engine:", err)
		return 1
	}
	ref := reference.New(w, batch, promptLen+gen)
	prompt := make([]int, batch*promptLen)
	for i := range prompt {
		prompt[i] = (i*31 + 3) % mini.Vocab
	}
	engL, err := pass(eng, prompt, promptLen)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	worst := tensor.MaxAbsDiff(engL, ref.Prefill(prompt, promptLen))
	last := make([]int, batch)
	for s := range last {
		last[s] = sampling.Greedy(engL.Row(s*promptLen + promptLen - 1))
	}
	for g := 0; g < gen; g++ {
		if engL, err = pass(eng, last, 1); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		worst = math.Max(worst, tensor.MaxAbsDiff(engL, ref.Decode(last)))
		for s := range last {
			last[s] = sampling.Greedy(engL.Row(s))
		}
	}
	m := eng.Mesh()
	fmt.Fprintf(stdout, "%s on a %s mesh, 2D weight-stationary + batch-sharded attention:\n", mini.Name, torus)
	fmt.Fprintf(stdout, "  %d-token prefill + %d greedy steps, sharded vs reference max |Δ| = %.2e\n",
		promptLen, gen, worst)
	fmt.Fprintf(stdout, "  mesh traffic: %d messages, %.2f MB\n", m.MessagesSent(), float64(m.BytesSent())/1e6)
	if worst > 1e-3 {
		fmt.Fprintln(stderr, "FAIL: sharded logits diverge from the reference")
		return 1
	}
	return 0
}

// pass feeds every sequence of eng n tokens (sequence-major) in one Step
// and returns their logits.
func pass(eng *engine.Engine, toks []int, n int) (*tensor.Mat, error) {
	counts := make([]int, eng.Batch())
	for s := range counts {
		counts[s] = n
	}
	return eng.Step(nil, toks, counts)
}
