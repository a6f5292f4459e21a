// Command estiplan is the partitioning planner CLI: given a model, a chip
// count, weight precision and a workload (batch, context, generated tokens),
// it selects the best torus shape and the best feedforward/attention
// partitioning per phase (Section 4.1's selection procedure) and prints the
// predicted latency, cost and MFU with a per-component time breakdown.
//
// Example:
//
//	estiplan -model palm540b -chips 64 -weights int8 -batch 64 -context 2048 -gen 64
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/perf"
	"esti/internal/planner"
	"esti/internal/tableio"
)

func main() {
	modelName := flag.String("model", "palm540b", "model: "+model.PresetNames)
	chips := flag.Int("chips", 64, "number of chips (power of two)")
	weights := flag.String("weights", "bf16", "weight format: bf16 or int8")
	batch := flag.Int("batch", 64, "batch size (sequences)")
	context := flag.Int("context", 2048, "input tokens per sequence")
	past := flag.Int("past", 0, "tokens already cached (incremental prefill)")
	gen := flag.Int("gen", 64, "output tokens per sequence")
	objective := flag.String("objective", "latency", "optimize for: latency or cost")
	flag.Parse()

	// Refuse a flag no plan can honour before doing any work, rather than
	// planning for something else or reporting an infeasible workload.
	bad := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "estiplan: "+format+"\n", a...)
		os.Exit(2)
	}
	if *chips < 1 || *chips&(*chips-1) != 0 {
		bad("-chips %d must be a power of two", *chips)
	}
	if *batch < 1 {
		bad("-batch %d must be at least 1", *batch)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"context", *context}, {"past", *past}, {"gen", *gen}} {
		if f.v < 0 {
			bad("-%s %d must not be negative", f.name, f.v)
		}
	}
	var obj planner.Objective
	switch strings.ToLower(*objective) {
	case "latency":
		obj = planner.MinLatency
	case "cost":
		obj = planner.MinCost
	default:
		bad("unknown objective %q (latency, cost)", *objective)
	}

	cfg, ok := model.ByName(*modelName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q (%s)\n", *modelName, model.PresetNames)
		os.Exit(2)
	}
	var dt model.DType
	switch strings.ToLower(*weights) {
	case "bf16":
		dt = model.BF16
	case "int8":
		dt = model.Int8
	default:
		fmt.Fprintf(os.Stderr, "unknown weight format %q\n", *weights)
		os.Exit(2)
	}
	w := planner.Workload{Batch: *batch, Context: *context, Past: *past, Gen: *gen}
	plan, found := planner.BestSystem(cfg, hardware.TPUv4(), *chips, dt, w, obj, perf.DefaultKnobs())
	if !found {
		fmt.Fprintf(os.Stderr, "no feasible configuration for %s on %d chips at batch %d, context %d\n",
			cfg.Name, *chips, *batch, *context+*past+*gen)
		os.Exit(1)
	}

	fmt.Printf("%s, %s weights, %d chips (torus %s), objective %s\n",
		cfg.Name, dt, *chips, plan.System.Torus, obj)
	fmt.Printf("workload: batch %d, %d new + %d cached context tokens, %d generated\n\n",
		*batch, *context, *past, *gen)

	t := tableio.Table{
		Header: []string{"phase", "FFN layout", "attention", "time", "ms/token", "MFU",
			"cost (chip-ms/tok)", "compute", "weight-mem", "KV-mem", "comm"},
	}
	addPhase := func(name string, c planner.Choice) {
		r := c.Result
		if r.Tokens == 0 {
			return
		}
		t.AddRow(name, c.FFN.String(), c.Attn.String(),
			fmt.Sprintf("%.3fs", r.Time),
			fmt.Sprintf("%.2f", r.Time/r.Tokens*float64(*batch)*1000),
			tableio.Pct1(r.MFU),
			fmt.Sprintf("%.3f", r.Cost*1000),
			tableio.Ms(r.Breakdown.Compute), tableio.Ms(r.Breakdown.WeightMem),
			tableio.Ms(r.Breakdown.KVMem), tableio.Ms(r.Breakdown.Comm))
	}
	addPhase("prefill", plan.Prefill)
	addPhase("decode", plan.Decode)
	fmt.Println(t.String())
	fmt.Printf("end-to-end latency: %.3fs\n", plan.TotalLatency)
}
