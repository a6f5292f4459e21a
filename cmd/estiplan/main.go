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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/perf"
	"esti/internal/planner"
	"esti/internal/tableio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the plan to stdout and errors
// to stderr, and returns the exit status (2 for a bad flag, 1 for a
// workload no configuration can serve).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("estiplan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelName := fs.String("model", "palm540b", "model: "+model.PresetNames)
	chips := fs.Int("chips", 64, "number of chips (power of two)")
	weights := fs.String("weights", "bf16", "weight format: bf16 or int8")
	batch := fs.Int("batch", 64, "batch size (sequences)")
	context := fs.Int("context", 2048, "input tokens per sequence")
	past := fs.Int("past", 0, "tokens already cached (incremental prefill)")
	gen := fs.Int("gen", 64, "output tokens per sequence")
	objective := fs.String("objective", "latency", "optimize for: latency or cost")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Refuse a flag no plan can honour before doing any work, rather than
	// planning for something else or reporting an infeasible workload.
	bad := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "estiplan: "+format+"\n", a...)
		return 2
	}
	if *chips < 1 || *chips&(*chips-1) != 0 {
		return bad("-chips %d must be a power of two", *chips)
	}
	if *batch < 1 {
		return bad("-batch %d must be at least 1", *batch)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"context", *context}, {"past", *past}, {"gen", *gen}} {
		if f.v < 0 {
			return bad("-%s %d must not be negative", f.name, f.v)
		}
	}
	if *context+*gen == 0 {
		return bad("-context 0 and -gen 0 leave no token to prefill or generate")
	}
	var obj planner.Objective
	switch strings.ToLower(*objective) {
	case "latency":
		obj = planner.MinLatency
	case "cost":
		obj = planner.MinCost
	default:
		return bad("unknown objective %q (latency, cost)", *objective)
	}

	cfg, ok := model.ByName(*modelName)
	if !ok {
		fmt.Fprintf(stderr, "unknown model %q (%s)\n", *modelName, model.PresetNames)
		return 2
	}
	var dt model.DType
	switch strings.ToLower(*weights) {
	case "bf16":
		dt = model.BF16
	case "int8":
		dt = model.Int8
	default:
		fmt.Fprintf(stderr, "unknown weight format %q\n", *weights)
		return 2
	}
	w := planner.Workload{Batch: *batch, Context: *context, Past: *past, Gen: *gen}
	plan, found := planner.BestSystem(cfg, hardware.TPUv4(), *chips, dt, w, obj, perf.DefaultKnobs())
	if !found {
		fmt.Fprintf(stderr, "no feasible configuration for %s on %d chips at batch %d, context %d\n",
			cfg.Name, *chips, *batch, *context+*past+*gen)
		return 1
	}

	fmt.Fprintf(stdout, "%s, %s weights, %d chips (torus %s), objective %s\n",
		cfg.Name, dt, *chips, plan.System.Torus, obj)
	fmt.Fprintf(stdout, "workload: batch %d, %d new + %d cached context tokens, %d generated\n\n",
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
	fmt.Fprintln(stdout, t.String())
	fmt.Fprintf(stdout, "end-to-end latency: %.3fs\n", plan.TotalLatency)
	return 0
}
