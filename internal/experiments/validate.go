package experiments

import (
	"fmt"
	"math"

	"esti/internal/commcost"
	"esti/internal/engine"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
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
//     Appendix A.2 volume formulas at the fused block's widths;
//  2. batch-sharding attention adds exactly the two all-to-alls of
//     Figure 5(b), and nothing else;
//  3. XYZ-weight-gathered traffic equals the gathered weight volume and is
//     independent of the token count (Figure 3's flat line);
//  4. per-chip KV-cache bytes divide by nchips under batch sharding and
//     replicate fully under head-sharded multiquery (Table 1's mechanism);
//  5. the sharded logits match the unsharded reference;
//  6. the messages a chip sends a layer are perf's ring steps, with the
//     all-to-alls' direct messages in place of its diameter term.
func Validate() []ValidationRow {
	cfg := validationConfig()
	w := reference.NewWeights(cfg, 99)
	tr := hardware.Torus{X: 2, Y: 2, Z: 2}
	n := tr.Chips()
	const batch, steps = 8, 4
	nTok := float64(batch * steps)
	const fb = 4.0 // float32 bytes on the functional mesh

	// pass runs n tokens per sequence through every slot of eng.
	pass := func(eng *engine.Engine, toks []int, n int) *tensor.Mat {
		counts := make([]int, batch)
		for s := range counts {
			counts[s] = n
		}
		logits, err := eng.Step(nil, toks, counts)
		if err != nil {
			panic(err)
		}
		return logits
	}
	prefillBytes := func(opts engine.Options) float64 {
		eng, err := engine.New(w, tr, opts, batch, 8)
		if err != nil {
			panic(err)
		}
		eng.Mesh().ResetCounters()
		pass(eng, seqTokensFor(batch, steps, cfg.Vocab), steps)
		return float64(eng.Mesh().BytesSent()) / float64(n)
	}
	decodeBytes := func(opts engine.Options) float64 {
		eng, err := engine.New(w, tr, opts, batch, 8)
		if err != nil {
			panic(err)
		}
		pass(eng, seqTokensFor(batch, steps, cfg.Vocab), steps)
		eng.Mesh().ResetCounters()
		pass(eng, make([]int, batch), 1)
		return float64(eng.Mesh().BytesSent()) / float64(n)
	}

	var rows []ValidationRow
	add := func(check string, measured, predicted float64, unit string, tol float64) {
		pass := predicted == 0 && measured == 0 ||
			predicted != 0 && math.Abs(measured-predicted)/math.Abs(predicted) <= tol
		rows = append(rows, ValidationRow{check, measured, predicted, unit, pass})
	}

	// (1) 1D − 2D weight-stationary block traffic difference: the final
	// norm and logit gathers are common to both, so the difference is the
	// blocks' own, FFNLayerComm at the fused widths plus the norm statistic.
	ws1 := engine.Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}
	ws2 := engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads}
	got := prefillBytes(ws1) - prefillBytes(ws2)
	e := float64(cfg.DModel)
	layers := float64(cfg.Layers)
	headsPlan := partition.PlanAttn(ws1.Attn, tr, cfg.Heads, cfg.KVHeads)
	attnIn, ffnIn, attnOut, ffnOut := commcost.BlockWidths(cfg)
	kvq := float64(2 * cfg.KVHeads * cfg.HeadDim)
	fIn := attnIn + ffnIn + float64(commcost.KVCopies(cfg, headsPlan)-1)*kvq
	blockBytes := func(l partition.FFNLayout) float64 {
		p := partition.PlanFFN(l, tr)
		return commcost.FFNLayerComm(p, nTok, e, fIn, attnOut+ffnOut, fb, 0).Total() + commcost.NormStatVolume(p, nTok)
	}
	add("Appendix A.2: (1D − 2D) WS traffic", got,
		layers*(blockBytes(ws1.FFN)-blockBytes(ws2.FFN)), "B/chip", 1e-9)

	// (2) Batch sharding adds exactly the decode all-to-alls: the
	// multiquery K/V ride the in-projection whole under either layout.
	heads := engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardHeads}
	batchOpts := engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch}
	extra := decodeBytes(batchOpts) - decodeBytes(heads)
	batchPlan := partition.PlanAttn(batchOpts.Attn, tr, cfg.Heads, cfg.KVHeads)
	add("Figure 5(b): all-to-all cost of batch sharding", extra,
		layers*commcost.AttnAllToAllBytes(batchPlan, batch, cfg.HeadDim, fb), "B/chip", 1e-9)

	// (3) XYZ-weight-gathered traffic: weight volume only, batch-invariant.
	wg := engine.Options{FFN: partition.FFNWeightGatheredXYZ, Attn: partition.AttnShardBatch}
	small := prefillBytes(wg)
	perLayerW := e * (attnIn + ffnIn + attnOut + ffnOut) * fb
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
	d := tensor.MaxAbsDiff(ref.Prefill(prompt, steps), pass(engV, prompt, steps))
	rows = append(rows, ValidationRow{
		Check:    "sharded logits vs unsharded reference (max |Δ|)",
		Measured: d, Predicted: 0, Unit: "", Pass: d < 2e-3,
	})

	// (6) Messages a chip a layer against perf's ring steps
	// (perf.ChipMessages): perf prices the all-to-alls as one torus-diameter
	// traversal, X+Y+Z hops; the mesh sends them as 2·(n-1) direct
	// messages, which replace that term.
	engM, _ := engine.New(w, tr, batchOpts, batch, 8)
	pass(engM, seqTokensFor(batch, steps, cfg.Vocab), steps)
	engM.Mesh().ResetCounters()
	pass(engM, make([]int, batch), 1)
	final := 2 * (n - 1) // the final norm's gather and the logit gather
	msgs := (float64(engM.Mesh().MessagesSent())/float64(n) - float64(final)) / layers
	add("Section 3.4: messages a chip a layer = perf ring steps", msgs,
		float64(perf.ChipMessages(partition.PlanFFN(batchOpts.FFN, tr), batchPlan, cfg.ParallelBlock)), "msgs", 0)
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
