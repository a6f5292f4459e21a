package experiments

import (
	"fmt"

	"esti/internal/commcost"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
	"esti/internal/tableio"
)

// Fig3Row is one x-position of Figure 3: per-chip communication volume of a
// feedforward layer for each layout at a token count.
type Fig3Row struct {
	Tokens  float64
	Volumes map[partition.FFNLayout]float64 // bytes per chip
	Best    partition.FFNLayout
}

// Fig3 regenerates Figure 3: communication volume vs tokens per batch for
// the weight-stationary and weight-gathered layouts, with the paper's
// parameters X=Y=Z=4, d_model=16384, d_ff=65536, two-matrix bf16 MLP.
func Fig3() []Fig3Row {
	tr := hardware.Torus{X: 4, Y: 4, Z: 4}
	const e, f = 16384.0, 65536.0
	const ab = 2.0
	layerW := 2 * e * f * ab
	layouts := []partition.FFNLayout{
		partition.FFN2DWeightStationary,
		partition.FFNWeightGatheredX,
		partition.FFNWeightGatheredXY,
		partition.FFNWeightGatheredXYZ,
	}
	var rows []Fig3Row
	for tokens := 2000.0; tokens <= 2048000; tokens *= 2 {
		row := Fig3Row{Tokens: tokens, Volumes: map[partition.FFNLayout]float64{}}
		bestV := -1.0
		for _, l := range layouts {
			v := commcost.FFNLayerComm(partition.PlanFFN(l, tr), tokens, e, f, f, ab, layerW).Total()
			row.Volumes[l] = v
			if bestV < 0 || v < bestV {
				bestV, row.Best = v, l
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig3Table renders Figure 3.
func Fig3Table() tableio.Table {
	t := tableio.Table{
		Title: "Figure 3: FFN communication volume (GB/chip) vs tokens per batch " +
			"(X=Y=Z=4, d_model=16384, d_ff=65536)",
		Header: []string{"tokens", "WS 2D", "WG X", "WG XY", "WG XYZ", "min-volume layout"},
	}
	for _, r := range Fig3() {
		t.AddRow(
			fmt.Sprintf("%.0f", r.Tokens),
			tableio.GB(r.Volumes[partition.FFN2DWeightStationary]),
			tableio.GB(r.Volumes[partition.FFNWeightGatheredX]),
			tableio.GB(r.Volumes[partition.FFNWeightGatheredXY]),
			tableio.GB(r.Volumes[partition.FFNWeightGatheredXYZ]),
			r.Best.String(),
		)
	}
	return t
}

// Fig6Row is one chip count of Figure 6.
type Fig6Row struct {
	Chips  int
	Torus  hardware.Torus
	Step1D float64 // seconds per decode step, 1D weight-stationary
	Step2D float64 // seconds per decode step, 2D weight-stationary
}

// Fig6 regenerates Figure 6: PaLM 540B decode latency per step at batch 512,
// 1D vs 2D weight-stationary, as chip count scales 64 → 256.
func Fig6(k perf.Knobs) []Fig6Row {
	cfg := model.PaLM540BPadded()
	var rows []Fig6Row
	for _, chips := range []int{64, 128, 256} {
		row := Fig6Row{Chips: chips}
		best2D := -1.0
		for _, shape := range hardware.SliceShapes(chips) {
			sys := hardware.NewSystem(hardware.TPUv4(), shape)
			mk := func(l partition.FFNLayout) perf.Result {
				return perf.Decode(perf.Request{
					Model: cfg, System: sys, Weights: model.BF16,
					FFN: l, Attn: partition.AttnShardBatch,
					Batch: 512, Context: 2048, Gen: 64,
				}, k)
			}
			r2 := mk(partition.FFN2DWeightStationary)
			if !r2.Feasible {
				continue
			}
			if best2D < 0 || r2.StepTime < best2D {
				best2D = r2.StepTime
				row.Torus = shape
				row.Step2D = r2.StepTime
				row.Step1D = mk(partition.FFN1DWeightStationary).StepTime
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig6Table renders Figure 6.
func Fig6Table(k perf.Knobs) tableio.Table {
	t := tableio.Table{
		Title:  "Figure 6: PaLM 540B decode latency/step (ms), batch 512: 2D vs 1D weight-stationary",
		Header: []string{"chips", "torus", "WS 2D (ms)", "WS 1D (ms)", "1D/2D"},
	}
	for _, r := range Fig6(k) {
		t.AddRow(r.Chips, r.Torus.String(), tableio.Ms(r.Step2D), tableio.Ms(r.Step1D),
			fmt.Sprintf("%.2fx", r.Step1D/r.Step2D))
	}
	return t
}

// Fig7Row is one batch size of Figure 7.
type Fig7Row struct {
	Tokens   int     // batch in tokens (sequences × 2048)
	MFUWS    float64 // 2D weight-stationary
	MFUWG    float64 // best weight-gathered variant
	WGLayout partition.FFNLayout
}

// Fig7 regenerates Figure 7: prefill MFU on PaLM 540B, 64 chips, sequence
// length 2048, as batch grows from 1 sequence (2048 tokens) to 512 sequences
// (1M tokens): 2D weight-stationary vs the best weight-gathered layout.
func Fig7(k perf.Knobs) []Fig7Row {
	cfg := model.PaLM540BPadded()
	sys := hardware.TPUv4Slice(4, 4, 4)
	var rows []Fig7Row
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
		mk := func(l partition.FFNLayout) perf.Result {
			return perf.Prefill(perf.Request{
				Model: cfg, System: sys, Weights: model.BF16,
				FFN: l, Attn: partition.AttnShardBatch,
				Batch: b, Context: 2048,
			}, k)
		}
		row := Fig7Row{Tokens: b * 2048}
		row.MFUWS = mk(partition.FFN2DWeightStationary).MFU
		for _, l := range []partition.FFNLayout{
			partition.FFNWeightGatheredX,
			partition.FFNWeightGatheredXY,
			partition.FFNWeightGatheredXYZ,
		} {
			if r := mk(l); r.Feasible && r.MFU > row.MFUWG {
				row.MFUWG, row.WGLayout = r.MFU, l
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig7Table renders Figure 7.
func Fig7Table(k perf.Knobs) tableio.Table {
	t := tableio.Table{
		Title:  "Figure 7: PaLM 540B prefill MFU on 64 chips, seq 2048: weight-stationary vs weight-gathered",
		Header: []string{"tokens/batch", "WS 2D MFU", "best WG MFU", "WG layout", "winner"},
	}
	for _, r := range Fig7(k) {
		winner := "WS 2D"
		if r.MFUWG > r.MFUWS {
			winner = r.WGLayout.String()
		}
		t.AddRow(r.Tokens, tableio.Pct1(r.MFUWS), tableio.Pct1(r.MFUWG), r.WGLayout.String(), winner)
	}
	return t
}

// Fig8Row is one context length of Figure 8.
type Fig8Row struct {
	Context int
	// Per-step decode latency (seconds) on the 8-layer PaLM 540B variant.
	Optimized float64 // multiquery, batch-sharded
	Baseline  float64 // multiquery, head-sharded (replicated KV)
	Multihead float64 // multihead (d_head 128), head-sharded
	// Feasibility of the same context on the full 118-layer model at
	// batch 256 (the dotted line in the paper's figure).
	FullFitsOptimized bool
	FullFitsBaseline  bool
	FullFitsMultihead bool
}

// Fig8 regenerates Figure 8: latency per generated token vs context length
// for an 8-layer version of PaLM 540B on 64 chips with batch 256, comparing
// the three attention partitioning strategies.
func Fig8(k perf.Knobs) []Fig8Row {
	sys := hardware.TPUv4Slice(4, 4, 4)
	mqa8 := model.PaLM540BPadded().WithLayers(8)
	mha8 := model.PaLM540BMHA().WithLayers(8)
	mqaFull := model.PaLM540BPadded()
	mhaFull := model.PaLM540BMHA()

	step := func(cfg model.Config, attn partition.AttnLayout, ctx int) (float64, bool) {
		r := perf.Decode(perf.Request{
			Model: cfg, System: sys, Weights: model.BF16,
			FFN: partition.FFN2DWeightStationary, Attn: attn,
			Batch: 256, Context: ctx, Gen: 1,
		}, k)
		return r.StepTime, r.Feasible
	}

	var rows []Fig8Row
	for _, ctx := range []int{128, 512, 2048, 8192} {
		var row Fig8Row
		row.Context = ctx
		row.Optimized, _ = step(mqa8, partition.AttnShardBatch, ctx)
		row.Baseline, _ = step(mqa8, partition.AttnShardHeads, ctx)
		row.Multihead, _ = step(mha8, partition.AttnShardHeads, ctx)
		_, row.FullFitsOptimized = step(mqaFull, partition.AttnShardBatch, ctx)
		_, row.FullFitsBaseline = step(mqaFull, partition.AttnShardHeads, ctx)
		_, row.FullFitsMultihead = step(mhaFull, partition.AttnShardHeads, ctx)
		rows = append(rows, row)
	}
	return rows
}

// Fig8Table renders Figure 8.
func Fig8Table(k perf.Knobs) tableio.Table {
	t := tableio.Table{
		Title: "Figure 8: latency/step (ms) vs context — 8-layer PaLM 540B, 64 chips, batch 256 " +
			"(118L column: fits in memory on the full model?)",
		Header: []string{"context", "MQ optimized", "MQ baseline", "multihead",
			"118L opt", "118L base", "118L MHA"},
	}
	fits := func(b bool) string {
		if b {
			return "fits"
		}
		return "OOM"
	}
	for _, r := range Fig8(k) {
		t.AddRow(r.Context, tableio.Ms(r.Optimized), tableio.Ms(r.Baseline), tableio.Ms(r.Multihead),
			fits(r.FullFitsOptimized), fits(r.FullFitsBaseline), fits(r.FullFitsMultihead))
	}
	return t
}
