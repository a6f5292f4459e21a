package experiments

import (
	"fmt"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/planner"
	"esti/internal/tableio"
)

// Table1Row is one attention variant of Table 1.
type Table1Row struct {
	Variant  string
	HeadDim  int
	MaxCtx   map[int]int // batch → max context length
	PaperCtx map[int]int // published values for comparison
}

// Table1 regenerates Table 1: maximum context length supported by each
// attention variant of PaLM 540B on 64 chips with 30% of HBM reserved for
// the KV cache.
func Table1() []Table1Row {
	sys := hardware.TPUv4Slice(4, 4, 4)
	const budget = 0.30
	batches := []int{128, 512}
	mk := func(name string, cfg model.Config, layout partition.AttnLayout, paper map[int]int) Table1Row {
		r := Table1Row{Variant: name, HeadDim: cfg.HeadDim,
			MaxCtx: map[int]int{}, PaperCtx: paper}
		for _, b := range batches {
			r.MaxCtx[b] = planner.MaxContextKV(cfg, sys, layout, b, budget, model.BF16)
		}
		return r
	}
	return []Table1Row{
		mk("Multihead", model.PaLM540BMHA(), partition.AttnShardHeads,
			map[int]int{128: 1320, 512: 330}),
		mk("Baseline multiquery", model.PaLM540BPadded(), partition.AttnShardHeads,
			map[int]int{128: 660, 512: 165}),
		mk("Optimized multiquery", model.PaLM540BPadded(), partition.AttnShardBatch,
			map[int]int{128: 43000, 512: 10700}),
	}
}

// Table1Table renders Table 1 with paper values alongside.
func Table1Table() tableio.Table {
	t := tableio.Table{
		Title: "Table 1: max context length, PaLM 540B on 64 chips, 30% HBM for KV cache",
		Header: []string{"variant", "d_head",
			"b=128 (ours)", "b=128 (paper)", "b=512 (ours)", "b=512 (paper)"},
	}
	for _, r := range Table1() {
		t.AddRow(r.Variant, r.HeadDim,
			r.MaxCtx[128], r.PaperCtx[128], r.MaxCtx[512], r.PaperCtx[512])
	}
	return t
}

// ConfigResult is one column of Table 2 / Table 3.
type ConfigResult struct {
	Name    string
	Chips   int
	Torus   hardware.Torus
	Batch   int
	FFN     partition.FFNLayout
	Attn    partition.AttnLayout
	Weights model.DType
	Result  perf.Result
	// Paper-published values.
	PaperMFU     float64
	PaperLatency float64
}

// Table2 regenerates Table 2: the four example PaLM 540B configurations.
// Prefill latency is for processing 2048 tokens; decode latency is for
// generating 64 tokens.
func Table2(k perf.Knobs) []ConfigResult {
	cfg := model.PaLM540BPadded()
	sys := hardware.TPUv4Slice(4, 4, 4)
	out := []ConfigResult{
		{Name: "low-latency prefill", Chips: 64, Batch: 1,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads,
			Weights: model.Int8, PaperMFU: 0.43, PaperLatency: 0.29},
		{Name: "low-latency decode", Chips: 64, Batch: 64,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
			Weights: model.Int8, PaperMFU: 0.14, PaperLatency: 1.82},
		{Name: "high-throughput prefill", Chips: 64, Batch: 512,
			FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch,
			Weights: model.BF16, PaperMFU: 0.76, PaperLatency: 85.2},
		{Name: "high-throughput decode", Chips: 64, Batch: 512,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
			Weights: model.BF16, PaperMFU: 0.33, PaperLatency: 6.0},
	}
	for i := range out {
		out[i].Torus = sys.Torus
		out[i].Result = runConfig(cfg, sys, out[i], k)
	}
	return out
}

// Table3 regenerates Table 3: the four example PaLM 62B configurations.
// Torus shapes match the calibration anchors (X sized per the 2D
// weight-stationary optimum for d_ff = 4·d_model).
func Table3(k perf.Knobs) []ConfigResult {
	cfg := model.PaLM62B()
	out := []ConfigResult{
		{Name: "low-latency prefill", Chips: 16, Torus: hardware.Torus{X: 4, Y: 2, Z: 2}, Batch: 1,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads,
			Weights: model.Int8, PaperMFU: 0.36, PaperLatency: 0.16},
		{Name: "low-latency decode", Chips: 16, Torus: hardware.Torus{X: 4, Y: 2, Z: 2}, Batch: 32,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
			Weights: model.Int8, PaperMFU: 0.08, PaperLatency: 0.73},
		{Name: "high-throughput prefill", Chips: 32, Torus: hardware.Torus{X: 4, Y: 4, Z: 2}, Batch: 512,
			FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch,
			Weights: model.BF16, PaperMFU: 0.73, PaperLatency: 20.2},
		{Name: "high-throughput decode", Chips: 8, Torus: hardware.Torus{X: 2, Y: 2, Z: 2}, Batch: 512,
			FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
			Weights: model.BF16, PaperMFU: 0.37, PaperLatency: 5.1},
	}
	for i := range out {
		sys := hardware.NewSystem(hardware.TPUv4(), out[i].Torus)
		out[i].Result = runConfig(cfg, sys, out[i], k)
	}
	return out
}

func runConfig(cfg model.Config, sys hardware.System, c ConfigResult, k perf.Knobs) perf.Result {
	req := perf.Request{
		Model: cfg, System: sys, Weights: c.Weights,
		FFN: c.FFN, Attn: c.Attn,
		Batch: c.Batch, Context: 2048, Gen: 64,
	}
	if isPrefill(c.Name) {
		req.Gen = 0
		return perf.Prefill(req, k)
	}
	return perf.Decode(req, k)
}

func isPrefill(name string) bool {
	return len(name) >= 7 && name[len(name)-7:] == "prefill"
}

// ConfigsTable renders Table 2 or Table 3.
func ConfigsTable(title string, configs []ConfigResult) tableio.Table {
	t := tableio.Table{
		Title: title,
		Header: []string{"scenario", "chips", "batch", "FFN", "attention", "weights",
			"MFU (ours)", "MFU (paper)", "latency (ours)", "latency (paper)"},
	}
	for _, c := range configs {
		t.AddRow(c.Name, c.Chips, c.Batch, c.FFN.String(), c.Attn.String(), c.Weights.String(),
			tableio.Pct1(c.Result.MFU), tableio.Pct(c.PaperMFU),
			fmt.Sprintf("%.2fs", c.Result.Time), fmt.Sprintf("%.2fs", c.PaperLatency))
	}
	return t
}
