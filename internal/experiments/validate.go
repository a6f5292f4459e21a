package experiments

import (
	"fmt"
	"math"

	"esti/internal/commcost"
	"esti/internal/engine"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/tableio"
	"esti/internal/tensor"
)

// ValidationRow is one functional-vs-analytic check: a quantity measured on
// the running sharded engine against the closed-form prediction the
// analytical model uses.
type ValidationRow struct {
	Check     string
	Measured  float64
	Predicted float64
	Unit      string
	Pass      bool
}

func validationConfig() model.Config {
	return model.Config{
		Name: "validate", Layers: 2, DModel: 64, DFF: 128,
		Heads: 8, HeadDim: 8, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 64,
	}
}

// Validate runs the functional engine on a small model across an 8-chip
// mesh and checks the quantities the paper's analysis rests on:
//
//  1. the 1D-vs-2D weight-stationary communication difference equals the
//     Appendix A.2 volume formulas;
//  2. batch-sharding attention adds exactly the two all-to-alls of
//     Figure 5(b), and nothing else;
//  3. XYZ-weight-gathered traffic equals the gathered weight volume and is
//     independent of the token count (Figure 3's flat line);
//  4. per-chip KV-cache bytes divide by nchips under batch sharding and
//     replicate fully under head-sharded multiquery (Table 1's mechanism);
//  5. the sharded logits match the unsharded reference.
func Validate() []ValidationRow {
	cfg := validationConfig()
	w := reference.NewWeights(cfg, 99)
	tr := hardware.Torus{X: 2, Y: 2, Z: 2}
	n := tr.Chips()
	const batch, steps = 8, 4
	nTok := float64(batch * steps)
	const fb = 4.0 // float32 bytes on the functional mesh

	prefillBytes := func(opts engine.Options) float64 {
		eng, err := engine.New(w, tr, opts, batch, 8)
		if err != nil {
			panic(err)
		}
		eng.Mesh().ResetCounters()
		eng.Prefill(seqTokensFor(batch, steps, cfg.Vocab), steps)
		return float64(eng.Mesh().BytesSent()) / float64(n)
	}
	decodeBytes := func(opts engine.Options) float64 {
		eng, err := engine.New(w, tr, opts, batch, 8)
		if err != nil {
			panic(err)
		}
		eng.Prefill(seqTokensFor(batch, steps, cfg.Vocab), steps)
		eng.Mesh().ResetCounters()
		eng.Decode(make([]int, batch))
		return float64(eng.Mesh().BytesSent()) / float64(n)
	}

	var rows []ValidationRow
	add := func(check string, measured, predicted float64, unit string, tol float64) {
		pass := predicted == 0 && measured == 0 ||
			predicted != 0 && math.Abs(measured-predicted)/math.Abs(predicted) <= tol
		rows = append(rows, ValidationRow{check, measured, predicted, unit, pass})
	}

	// (1) 1D − 2D weight-stationary FFN traffic difference.
	ws1 := engine.Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}
	ws2 := engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads}
	got := prefillBytes(ws1) - prefillBytes(ws2)
	e, f := float64(cfg.DModel), float64(cfg.DFF)
	layers := float64(cfg.Layers)
	// The FFN input rides the block's shared gather in both layouts, so
	// only the FFN's own collectives differ.
	vol1D := commcost.ReduceScatterVolume(nTok*e*fb, n)
	p2 := partition.PlanFFN(partition.FFN2DWeightStationary, tr)
	ePer := nTok * (e / float64(p2.ESplit)) * fb
	fPer := nTok * (f / float64(p2.FSplit)) * fb
	vol2D := commcost.ReduceScatterVolume(ePer, p2.FSplit) +
		2*commcost.ReduceScatterVolume(fPer, p2.ESplit) + commcost.AllGatherVolume(fPer, p2.ESplit)
	add("Appendix A.2: (1D − 2D) WS traffic", got, layers*(vol1D-vol2D), "B/chip", 1e-9)

	// (2) Batch sharding adds exactly the decode all-to-alls.
	heads := engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads}
	batchOpts := engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}
	extra := decodeBytes(batchOpts) - decodeBytes(heads)
	perChip := float64(batch*cfg.Heads*cfg.HeadDim) * fb / float64(n)
	wantA2A := layers * 2 * commcost.AllToAllVolume(perChip, n)
	add("Figure 5(b): all-to-all cost of batch sharding", extra, wantA2A, "B/chip", 1e-9)

	// (3) XYZ-weight-gathered traffic: weight volume only, batch-invariant.
	wg := engine.Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch}
	small := prefillBytes(wg)
	hq := float64(cfg.Heads * cfg.HeadDim)
	kvq := float64(cfg.KVHeads * cfg.HeadDim)
	perLayerW := (2*e*f + e*f + e*hq + 2*e*kvq + hq*e) * fb
	add("Figure 3: WG-XYZ traffic = gathered weights", small,
		layers*commcost.AllGatherVolume(perLayerW, n), "B/chip", 1e-9)

	// (4) KV-cache sharding factors.
	engBatch, _ := engine.New(w, tr, batchOpts, batch, 8)
	engHeads, _ := engine.New(w, tr, heads, batch, 8)
	add("Table 1: head-sharded MQ cache / batch-sharded cache",
		float64(engHeads.ChipCacheBytes(0))/float64(engBatch.ChipCacheBytes(0)),
		float64(n), "x", 1e-12)

	// (5) Sharded logits ≡ reference logits.
	ref := reference.New(w, batch, 8)
	engV, _ := engine.New(w, tr, batchOpts, batch, 8)
	prompt := seqTokensFor(batch, steps, cfg.Vocab)
	d := tensor.MaxAbsDiff(ref.Prefill(prompt, steps), engV.Prefill(prompt, steps))
	rows = append(rows, ValidationRow{
		Check:    "sharded logits vs unsharded reference (max |Δ|)",
		Measured: d, Predicted: 0, Unit: "", Pass: d < 2e-3,
	})
	return rows
}

func seqTokensFor(batch, steps, vocab int) []int {
	out := make([]int, batch*steps)
	for i := range out {
		out[i] = (i*13 + 5) % vocab
	}
	return out
}

// ValidateTable renders the functional-vs-analytic validation.
func ValidateTable() tableio.Table {
	t := tableio.Table{
		Title:  "Functional validation: sharded engine measurements vs closed-form predictions (8-chip mesh)",
		Header: []string{"check", "measured", "predicted", "unit", "pass"},
	}
	for _, r := range Validate() {
		t.AddRow(r.Check, fmt.Sprintf("%.6g", r.Measured), fmt.Sprintf("%.6g", r.Predicted),
			r.Unit, fmt.Sprintf("%v", r.Pass))
	}
	return t
}
