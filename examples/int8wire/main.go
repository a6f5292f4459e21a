// Int8 activations on the wire: halved interconnect volume at unchanged
// greedy output. The paper's §3.3 weight-gathered layout wins by moving
// int8 weights instead of float32 activations, and its Appendix A cost
// model charges collectives by *bytes*, not elements — so the same lever
// applies to everything else on the wire: quantize each collective chunk
// to int8 with one float32 scale, transmit, dequantize (reductions fold
// in float32 and requantize per hop to keep error bounded).
//
// The first half prices it with the analytic model on PaLM 540B: the
// exposed communication time of each phase with bf16 versus int8
// collective payloads, and the per-layer wire volumes per layout.
//
// The second half drops to the functional engine on a tiny model and
// does the real thing: the same weights run with float32 and int8
// collective payloads over a simulated 8-chip mesh, showing the measured
// wire bytes (from the mesh's byte-accurate counters) at ~0.3× and the
// greedy tokens identical over a 64-step horizon.
//
//	go run ./examples/int8wire
package main

import (
	"fmt"

	"esti/internal/commcost"
	"esti/internal/engine"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/reference"
)

func main() {
	// --- Analytic: what int8 wire buys on PaLM 540B over 64 chips. ---
	cfg := model.PaLM540BPadded()
	sys := hardware.TPUv4Slice(4, 4, 4)
	k := perf.DefaultKnobs()
	fmt.Printf("%s on %d chips, int8 weights\n\n", cfg.Name, sys.Chips())

	phase := func(name string, gen int, wire model.DType) float64 {
		req := perf.Request{
			Model: cfg, System: sys, Weights: model.Int8, WireDType: wire,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
			Batch: 64, Context: 2048, Gen: gen,
		}
		if gen > 0 {
			return perf.Decode(req, k).Breakdown.Comm
		}
		return perf.Prefill(req, k).Breakdown.Comm
	}
	for _, p := range []struct {
		name string
		gen  int
	}{{"prefill (batch 64 x 2048 tokens)", 0}, {"decode  (batch 64, 64 steps)", 64}} {
		bf := phase(p.name, p.gen, model.BF16)
		q8 := phase(p.name, p.gen, model.Int8)
		fmt.Printf("exposed comm, %s: %7.1f ms bf16 wire → %7.1f ms int8 wire (%.2fx)\n",
			p.name, bf*1000, q8*1000, q8/bf)
	}

	// Per-layer collective volume at the decode step, per wire format —
	// the Appendix A bytes the time above is charged from: one all-gather
	// (per-chip shard tokens·E/n) and one reduce-scatter (per-chip input
	// tokens·E) of the [tokens, E] activations in the 1D layout.
	e := float64(cfg.DModel)
	tokens := 64.0
	n := sys.Chips()
	fmt.Printf("\nper-layer decode activation volume, 1D weight-stationary over %d chips:\n", n)
	for _, w := range []struct {
		name string
		fmt  commcost.WireFormat
	}{{"fp32", commcost.WireFP32}, {"bf16", commcost.WireBF16}, {"int8", commcost.WireInt8}} {
		vol := commcost.AllGatherWireVolume(tokens*e/float64(n), n, w.fmt) +
			commcost.ReduceScatterWireVolume(tokens*e, n, w.fmt)
		fmt.Printf("  %s wire: %8.1f KiB/chip\n", w.name, vol/1024)
	}

	// --- Functional: the real thing on a simulated 8-chip mesh. ---
	tiny := model.Config{
		Name: "tiny", Layers: 2, DModel: 64, DFF: 128,
		Heads: 8, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 64,
	}
	const batch, promptLen, gen = 8, 4, 64
	w := reference.NewWeights(tiny, 11)
	torus := hardware.Torus{X: 2, Y: 2, Z: 2}
	prompt := make([]int, batch*promptLen)
	for i := range prompt {
		prompt[i] = (i*7 + 3) % tiny.Vocab
	}

	run := func(wire model.DType) (toks [][]int, bytes, int8Bytes int64) {
		eng, err := engine.New(w, torus, engine.Options{
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
			WireDType: wire,
		}, batch, promptLen+gen+1)
		if err != nil {
			panic(err)
		}
		toks = eng.Generate(prompt, promptLen, gen)
		return toks, eng.Mesh().BytesSent(), eng.Mesh().Int8BytesSent()
	}
	fpToks, fpBytes, _ := run(model.FP32)
	q8Toks, q8Bytes, q8Int8 := run(model.Int8)

	fmt.Printf("\nfunctional engine, %s on %d simulated chips, %d prompts x %d greedy steps:\n",
		tiny.Name, torus.Chips(), batch, gen)
	fmt.Printf("  wire bytes: %d fp32 → %d int8 wire (%.2fx)\n",
		fpBytes, q8Bytes, float64(q8Bytes)/float64(fpBytes))
	if q8Int8 == q8Bytes {
		fmt.Println("  the int8 session sends no float32 bytes: the norms gather the residual in the wire format")
	}
	same := 0
	for s := 0; s < batch; s++ {
		match := true
		for g := 0; g < gen; g++ {
			if fpToks[s][g] != q8Toks[s][g] {
				match = false
				break
			}
		}
		if match {
			same++
		}
	}
	fmt.Printf("  greedy tokens identical: %d/%d sequences over %d steps\n", same, batch, gen)
}
