// Command estisim runs the functional sharded-inference engine on a small
// Transformer across a simulated chip mesh, verifies its logits against the
// unsharded reference, and reports the measured per-chip communication so
// the partitioning semantics can be inspected end to end.
//
// Example:
//
//	estisim -chips 8 -ffn ws2d -attn batch -batch 8 -prompt 6 -gen 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"esti/internal/engine"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

func main() {
	chips := flag.Int("chips", 8, "chip count (power of two, ≤ heads)")
	ffn := flag.String("ffn", "ws2d", "FFN layout: ws1d, ws2d or wgxyz")
	attn := flag.String("attn", "batch", "attention sharding: heads or batch")
	batch := flag.Int("batch", 8, "batch size (divisible by chips for -attn batch)")
	promptLen := flag.Int("prompt", 6, "prompt tokens per sequence")
	gen := flag.Int("gen", 4, "tokens to generate")
	int8w := flag.Bool("int8", false, "quantize weights to int8")
	mha := flag.Bool("mha", false, "use the multihead control architecture")
	seed := flag.Int64("seed", 42, "weight seed")
	flag.Parse()

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
		fmt.Fprintf(os.Stderr, "unknown FFN layout %q (ws1d, ws2d, wgxyz)\n", *ffn)
		os.Exit(2)
	}
	switch strings.ToLower(*attn) {
	case "heads":
		opts.Attn = partition.AttnShardHeads
	case "batch":
		opts.Attn = partition.AttnShardBatch
	default:
		fmt.Fprintf(os.Stderr, "unknown attention sharding %q (heads, batch)\n", *attn)
		os.Exit(2)
	}

	torus := hardware.BestSlice(*chips)
	maxLen := *promptLen + *gen + 1
	w := reference.NewWeights(cfg, *seed)
	eng, err := engine.New(w, torus, opts, *batch, maxLen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ref := reference.New(w, *batch, maxLen)

	prompt := make([]int, *batch**promptLen)
	for i := range prompt {
		prompt[i] = (i*13 + 5) % cfg.Vocab
	}

	fmt.Printf("model %s: %d layers, d_model %d, d_ff %d, %d heads × %d (%s, %s block)\n",
		cfg.Name, cfg.Layers, cfg.DModel, cfg.DFF, cfg.Heads, cfg.HeadDim,
		cfg.Attn, blockName(cfg.ParallelBlock))
	fmt.Printf("mesh %s (%d chips), FFN %s, attention %s, int8=%v\n\n",
		torus, torus.Chips(), opts.FFN, opts.Attn, *int8w)

	refLogits := ref.Prefill(prompt, *promptLen)
	engLogits := eng.Prefill(prompt, *promptLen)
	fmt.Printf("prefill  %2d tokens/seq: max |logit Δ| vs reference = %.2e\n",
		*promptLen, tensor.MaxAbsDiff(refLogits, engLogits))

	last := make([]int, *batch)
	for s := 0; s < *batch; s++ {
		last[s] = sampling.Greedy(refLogits.Row(s**promptLen + *promptLen - 1))
	}
	for g := 0; g < *gen; g++ {
		refL := ref.Decode(last)
		engL := eng.Decode(last)
		match := ""
		for s := 0; s < *batch; s++ {
			if sampling.Greedy(refL.Row(s)) != sampling.Greedy(engL.Row(s)) {
				match = "  (greedy token mismatch!)"
			}
		}
		fmt.Printf("decode step %d:          max |logit Δ| vs reference = %.2e%s\n",
			g+1, tensor.MaxAbsDiff(refL, engL), match)
		for s := 0; s < *batch; s++ {
			last[s] = sampling.Greedy(refL.Row(s))
		}
	}

	m := eng.Mesh()
	fmt.Printf("\ntraffic: %d messages, %.2f MB total, %.2f MB per chip\n",
		m.MessagesSent(), float64(m.BytesSent())/1e6,
		float64(m.BytesSent())/1e6/float64(torus.Chips()))
	perChipKV := eng.ChipCacheBytes(0)
	fmt.Printf("per-chip KV cache: %.1f KB (%s sharding)\n", float64(perChipKV)/1e3, opts.Attn)
}

func blockName(parallel bool) string {
	if parallel {
		return "parallel"
	}
	return "serial"
}
