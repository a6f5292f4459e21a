// Int8 KV cache: doubled servable context at unchanged greedy output.
// At large batch and long context the KV cache — not the weights — is
// what fills a chip's HBM and what the decode step streams (§3.3, Table
// 1), so halving its bytes per token roughly doubles the context (or
// batch) a chip slice can serve and halves the attention walk's memory
// traffic.
//
// The first half prices it with the analytic model on PaLM 540B: max
// context per Table 1's budget, the OOM boundary a long-context
// deployment hits, and the decode-step KV memory component, each bf16 vs
// int8.
//
// The second half drops to the functional engine on a tiny model and does
// the real thing: the same weights run with a float32 and an int8 KV
// cache (quantize-at-append, dequantize inside the fused attention walk),
// showing the true backing bytes halved and the greedy tokens identical
// over a 64-step horizon.
//
//	go run ./examples/int8kv
package main

import (
	"fmt"

	"esti/internal/engine"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/planner"
	"esti/internal/reference"
)

func main() {
	// --- Analytic: what int8 KV buys on PaLM 540B over 64 chips. ---
	cfg := model.PaLM540BPadded()
	sys := hardware.TPUv4Slice(4, 4, 4)
	fmt.Printf("%s on %d chips, int8 weights\n\n", cfg.Name, sys.Chips())
	fmt.Printf("KV bytes per token: %.0f bf16, %.0f int8\n",
		cfg.KVBytesPerToken(), cfg.KVBytesPerTokenAs(model.Int8))

	for _, batch := range []int{128, 512} {
		bf := planner.MaxContextKV(cfg, sys, partition.AttnShardBatch, batch, 0.30, model.BF16)
		q8 := planner.MaxContextKV(cfg, sys, partition.AttnShardBatch, batch, 0.30, model.Int8)
		fmt.Printf("max context at batch %3d (Table 1 budget): %6d bf16 → %6d int8 (%.1fx)\n",
			batch, bf, q8, float64(q8)/float64(bf))
	}

	req := perf.Request{
		Model: cfg, System: sys, Weights: model.Int8,
		FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
		Batch: 256, Context: 8192, Gen: 64,
	}
	k := perf.DefaultKnobs()
	bf := perf.Decode(req, k)
	req.KVDType = model.Int8
	q8 := perf.Decode(req, k)
	fmt.Printf("\ndecode at batch %d, context %d: KV memory %.2fms/step bf16 → %.2fms/step int8\n",
		req.Batch, req.Context,
		bf.Breakdown.KVMem/float64(req.Gen)*1000, q8.Breakdown.KVMem/float64(req.Gen)*1000)

	long := req
	long.Context = 60000
	long.KVDType = model.BF16
	bfLong := perf.Decode(long, k)
	long.KVDType = model.Int8
	q8Long := perf.Decode(long, k)
	fmt.Printf("context %d at batch %d: bf16 %s; int8 feasible=%v\n",
		long.Context, long.Batch, reason(bfLong), q8Long.Feasible)

	// --- Functional: same weights, fp32 vs int8 cache, tokens equal. ---
	small := model.Config{
		Name: "demo", Layers: 2, DModel: 64, DFF: 128,
		Heads: 8, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 64,
	}
	const batch, promptLen, gen, maxLen = 4, 8, 64, 128
	w := reference.NewWeights(small, 1)
	torus := hardware.Torus{X: 2, Y: 1, Z: 1}
	opts := engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}
	fp, err := engine.New(w, torus, opts, batch, maxLen)
	if err != nil {
		panic(err)
	}
	opts.KVDType = model.Int8
	qe, err := engine.New(w, torus, opts, batch, maxLen)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nfunctional engine (%s, %d chips): per-chip cache %d B fp32 → %d B int8 (%.2fx)\n",
		small.Name, torus.Chips(), fp.ChipCacheBytes(0), qe.ChipCacheBytes(0),
		float64(qe.ChipCacheBytes(0))/float64(fp.ChipCacheBytes(0)))

	prompt := make([]int, batch*promptLen)
	for i := range prompt {
		prompt[i] = (i*13 + 5) % small.Vocab
	}
	want := fp.Generate(prompt, promptLen, gen)
	got := qe.Generate(prompt, promptLen, gen)
	agree := 0
	for s := 0; s < batch; s++ {
		for g := 0; g < gen; g++ {
			if got[s][g] == want[s][g] {
				agree++
			}
		}
	}
	fmt.Printf("greedy decode over %d steps × %d sequences: %d/%d tokens identical to fp32\n",
		gen, batch, agree, batch*gen)
	if agree != batch*gen {
		panic("int8 KV cache diverged from fp32 greedy decode")
	}
}

func reason(r perf.Result) string {
	if r.Feasible {
		return "feasible"
	}
	return "infeasible (" + r.Reason + ")"
}
