// Command estisim runs the functional sharded-inference engine on a small
// Transformer across a simulated chip mesh, verifies its logits against the
// unsharded reference, and reports the measured per-chip communication so
// the partitioning semantics can be inspected end to end, with the messages
// a chip sends a layer beside the count package perf prices. It exits 1 if
// any greedy token differs from the reference's or the message count
// differs from perf's, and 2 on a bad flag.
//
// Example:
//
//	estisim -chips 8 -ffn ws2d -attn batch -batch 8 -prompt 6 -gen 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"esti/internal/engine"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams, returning the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("estisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chips := fs.Int("chips", 8, "chip count (power of two, ≤ heads)")
	ffn := fs.String("ffn", "ws2d", "FFN layout: ws1d, ws2d or wgxyz")
	attn := fs.String("attn", "batch", "attention sharding: heads or batch")
	batch := fs.Int("batch", 8, "batch size (divisible by chips for -attn batch)")
	promptLen := fs.Int("prompt", 6, "prompt tokens per sequence")
	gen := fs.Int("gen", 4, "tokens to generate")
	int8w := fs.Bool("int8", false, "quantize weights to int8")
	mha := fs.Bool("mha", false, "use the multihead control architecture")
	seed := fs.Int64("seed", 42, "weight seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Refuse a chip count no torus shape fits before doing any work.
	if *chips < 1 || *chips&(*chips-1) != 0 {
		fmt.Fprintf(stderr, "estisim: -chips %d must be a power of two\n", *chips)
		return 2
	}

	cfg := model.Config{
		Name: "sim-mqa", Layers: 4, DModel: 128, DFF: 256,
		Heads: 16, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 128,
	}
	if *mha {
		cfg.Name = "sim-mha"
		cfg.KVHeads = cfg.Heads
		cfg.Attn = model.Multihead
		cfg.FFNKind = model.GELU
		cfg.ParallelBlock = false
	}

	opts := engine.Options{Int8Weights: *int8w}
	switch strings.ToLower(*ffn) {
	case "ws1d":
		opts.FFN = partition.FFN1DWeightStationary
	case "ws2d":
		opts.FFN = partition.FFN2DWeightStationary
	case "wgxyz":
		opts.FFN = partition.FFNWeightGatheredXYZ
	default:
		fmt.Fprintf(stderr, "unknown FFN layout %q (ws1d, ws2d, wgxyz)\n", *ffn)
		return 2
	}
	switch strings.ToLower(*attn) {
	case "heads":
		opts.Attn = partition.AttnShardHeads
	case "batch":
		opts.Attn = partition.AttnShardBatch
	default:
		fmt.Fprintf(stderr, "unknown attention sharding %q (heads, batch)\n", *attn)
		return 2
	}

	torus := hardware.BestSlice(*chips)
	maxLen := *promptLen + *gen + 1
	w := reference.NewWeights(cfg, *seed)
	eng, err := engine.New(w, torus, opts, *batch, maxLen)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ref := reference.New(w, *batch, maxLen)

	prompt := make([]int, *batch**promptLen)
	for i := range prompt {
		prompt[i] = (i*13 + 5) % cfg.Vocab
	}

	fmt.Fprintf(stdout, "model %s: %d layers, d_model %d, d_ff %d, %d heads × %d (%s, %s block)\n",
		cfg.Name, cfg.Layers, cfg.DModel, cfg.DFF, cfg.Heads, cfg.HeadDim,
		cfg.Attn, blockName(cfg.ParallelBlock))
	fmt.Fprintf(stdout, "mesh %s (%d chips), FFN %s, attention %s, int8=%v\n\n",
		torus, torus.Chips(), opts.FFN, opts.Attn, *int8w)

	refLogits := ref.Prefill(prompt, *promptLen)
	engLogits, err := pass(eng, prompt, *promptLen)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "prefill  %2d tokens/seq: max |logit Δ| vs reference = %.2e\n",
		*promptLen, tensor.MaxAbsDiff(refLogits, engLogits))

	mismatches := 0
	last := make([]int, *batch)
	for s := 0; s < *batch; s++ {
		last[s] = sampling.Greedy(refLogits.Row(s**promptLen + *promptLen - 1))
	}
	m := eng.Mesh()
	var stepMsgs int64 // the last decode step's
	for g := 0; g < *gen; g++ {
		refL := ref.Decode(last)
		before := m.MessagesSent()
		engL, err := pass(eng, last, 1)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stepMsgs = m.MessagesSent() - before
		match := ""
		for s := 0; s < *batch; s++ {
			if sampling.Greedy(refL.Row(s)) != sampling.Greedy(engL.Row(s)) {
				match = "  (greedy token mismatch!)"
				mismatches++
			}
		}
		fmt.Fprintf(stdout, "decode step %d:          max |logit Δ| vs reference = %.2e%s\n",
			g+1, tensor.MaxAbsDiff(refL, engL), match)
		for s := 0; s < *batch; s++ {
			last[s] = sampling.Greedy(refL.Row(s))
		}
	}

	fmt.Fprintf(stdout, "\ntraffic: %d messages, %.2f MB total, %.2f MB per chip\n",
		m.MessagesSent(), float64(m.BytesSent())/1e6,
		float64(m.BytesSent())/1e6/float64(torus.Chips()))
	// A decode step is the layers' messages plus the final norm's gather
	// and the logit gather over the activation group.
	plan := partition.PlanFFN(opts.FFN, torus)
	nAct := torus.Chips() / plan.GatherFactor()
	perLayer := (float64(stepMsgs)/float64(torus.Chips()) - float64(2*(nAct-1))) / float64(cfg.Layers)
	want := perf.ChipMessages(plan, partition.PlanAttn(opts.Attn, torus, cfg.Heads, cfg.KVHeads), cfg.ParallelBlock)
	fmt.Fprintf(stdout, "decode messages a chip a layer: %g (perf prices %d)\n", perLayer, want)
	perChipKV := eng.ChipCacheBytes(0)
	fmt.Fprintf(stdout, "per-chip KV cache: %.1f KB (%s sharding)\n", float64(perChipKV)/1e3, opts.Attn)
	code := 0
	if *gen > 0 && perLayer != float64(want) {
		fmt.Fprintf(stderr, "estisim: %g messages a chip a layer, perf prices %d\n", perLayer, want)
		code = 1
	}
	if mismatches > 0 {
		fmt.Fprintf(stderr, "estisim: %d greedy tokens differ from the reference\n", mismatches)
		code = 1
	}
	return code
}

func blockName(parallel bool) string {
	if parallel {
		return "parallel"
	}
	return "serial"
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
