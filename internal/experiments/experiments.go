// Package experiments regenerates every table and figure in the paper's
// evaluation (Pope et al., MLSYS 2023): Figures 1, 3, 6, 7, 8, 9, B.1, C.1
// and Tables 1, 2, 3, D.2, D.3, D.4, plus the ablations the prose reports
// (serial vs parallel blocks, int8 vs bf16, head padding).
//
// Each generator returns typed data and can render itself as a plain-text
// table; cmd/estibench prints them and the root benchmarks time them.
package experiments

import (
	"fmt"
	"math"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/pareto"
	"esti/internal/perf"
	"esti/internal/planner"
	"esti/internal/tableio"
)

// ChipCounts is the chip-count sweep of Figure 1 (the paper uses up to 256
// TPU v4 chips).
var ChipCounts = []int{8, 16, 32, 64, 128, 256}

// Batches is the batch sweep of Figure 1.
var Batches = []int{1, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// CurvePoint is one costed configuration on a latency/cost/MFU plot.
type CurvePoint struct {
	Chips   int
	Batch   int
	Torus   hardware.Torus
	Latency float64 // seconds: per generated token (decode) or per pass (prefill)
	Cost    float64 // chip-seconds per token
	MFU     float64
	Label   string
}

// Curve is a named series of points (one model × dtype).
type Curve struct {
	Name   string
	Points []CurvePoint
}

// PalmFamily returns the model × weight-dtype combinations Figure 1 sweeps.
func PalmFamily() []struct {
	Model model.Config
	DType model.DType
} {
	var out []struct {
		Model model.Config
		DType model.DType
	}
	for _, m := range []model.Config{model.PaLM8B(), model.PaLM62B(), model.PaLM540BPadded()} {
		for _, d := range []model.DType{model.BF16, model.Int8} {
			out = append(out, struct {
				Model model.Config
				DType model.DType
			}{m, d})
		}
	}
	return out
}

// best costs a workload on the best torus shape and layouts for a chip
// count: a workload that generates tokens is a decode, priced per step, and
// one that does not is a prefill, priced per pass.
func best(cfg model.Config, chips int, dt model.DType, w planner.Workload, k perf.Knobs) (CurvePoint, bool) {
	choose := planner.ChoosePrefill
	if w.Gen > 0 {
		choose = planner.ChooseDecode
	}
	pt := CurvePoint{Latency: math.Inf(1), Cost: math.Inf(1)}
	found := false
	for _, shape := range hardware.SliceShapes(chips) {
		c, ok := choose(cfg, hardware.NewSystem(hardware.TPUv4(), shape), dt, w, planner.MinLatency, k)
		if !ok {
			continue
		}
		lat := c.Result.Time
		if w.Gen > 0 {
			lat = c.Result.StepTime
		}
		if lat < pt.Latency {
			pt = CurvePoint{
				Chips: chips, Batch: w.Batch, Torus: shape,
				Latency: lat, Cost: c.Result.Cost, MFU: c.Result.MFU,
			}
			found = true
		}
	}
	return pt, found
}

// sweep costs each workload at its best on every chip count, for each
// model × dtype of the PaLM family, labels the points, and keeps each
// curve's frontier.
func sweep(k perf.Knobs, workloads []planner.Workload, label func(chips int, w planner.Workload) string,
	frontier func([]CurvePoint) []CurvePoint) []Curve {
	var curves []Curve
	for _, md := range PalmFamily() {
		var pts []CurvePoint
		for _, chips := range ChipCounts {
			for _, w := range workloads {
				if p, ok := best(md.Model, chips, md.DType, w, k); ok {
					p.Label = label(chips, w)
					pts = append(pts, p)
				}
			}
		}
		curves = append(curves, Curve{
			Name:   fmt.Sprintf("%s-%s", md.Model.Name, md.DType),
			Points: frontier(pts),
		})
	}
	return curves
}

// batchSweep is Figure 1's batch sweep at context 2048, generating gen
// tokens (0 for the prefill panels).
func batchSweep(gen int) []planner.Workload {
	out := make([]planner.Workload, len(Batches))
	for i, b := range Batches {
		out[i] = planner.Workload{Batch: b, Context: 2048, Gen: gen}
	}
	return out
}

func batchLabel(chips int, w planner.Workload) string {
	return fmt.Sprintf("C:%d, B:%d", chips, w.Batch)
}

func frontierMinMin(points []CurvePoint) []CurvePoint {
	return fromPareto(points, pareto.MinMin(toPareto(points, func(p CurvePoint) float64 { return p.Cost })))
}

func frontierMinMaxMFU(points []CurvePoint) []CurvePoint {
	return fromPareto(points, pareto.MinMax(toPareto(points, func(p CurvePoint) float64 { return p.MFU })))
}

func toPareto(points []CurvePoint, y func(CurvePoint) float64) []pareto.Point {
	out := make([]pareto.Point, len(points))
	for i, p := range points {
		out[i] = pareto.Point{X: p.Latency, Y: y(p), Label: p.Label}
	}
	return out
}

func fromPareto(points []CurvePoint, frontier []pareto.Point) []CurvePoint {
	byLabel := map[string]CurvePoint{}
	for _, p := range points {
		key := fmt.Sprintf("%s|%g", p.Label, p.Latency)
		if _, seen := byLabel[key]; !seen {
			byLabel[key] = p
		}
	}
	var out []CurvePoint
	for _, f := range frontier {
		key := fmt.Sprintf("%s|%g", f.Label, f.X)
		if p, ok := byLabel[key]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Fig1Decode regenerates Figure 1 (left): the cost-vs-latency Pareto
// frontier of the decode phase for the PaLM family at context 2048,
// generating 64 tokens, sweeping batch size and chip count.
func Fig1Decode(k perf.Knobs) []Curve {
	return sweep(k, batchSweep(64), batchLabel, frontierMinMin)
}

// Fig1Prefill regenerates Figure 1 (right): prefill of 2048 input tokens.
func Fig1Prefill(k perf.Knobs) []Curve {
	return sweep(k, batchSweep(0), batchLabel, frontierMinMin)
}

// FigC1Decode regenerates Figure C.1 (left): the MFU-vs-latency dual of
// Figure 1's decode panel.
func FigC1Decode(k perf.Knobs) []Curve {
	return sweep(k, batchSweep(64), batchLabel, frontierMinMaxMFU)
}

// FigC1Prefill regenerates Figure C.1 (right).
func FigC1Prefill(k perf.Knobs) []Curve {
	return sweep(k, batchSweep(0), batchLabel, frontierMinMaxMFU)
}

// FigB1 regenerates Figure B.1: minimum prefill latency — batch 1, sequence
// length swept 32..1024, cost vs latency frontier.
func FigB1(k perf.Knobs) []Curve {
	var seqs []planner.Workload
	for _, s := range []int{32, 64, 128, 256, 512, 1024} {
		seqs = append(seqs, planner.Workload{Batch: 1, Context: s})
	}
	return sweep(k, seqs, func(chips int, w planner.Workload) string {
		return fmt.Sprintf("C=%d, S=%d", chips, w.Context)
	}, frontierMinMin)
}

// CurvesTable renders frontier curves as a table.
func CurvesTable(title string, curves []Curve, decode bool) tableio.Table {
	latHeader := "latency/pass (s)"
	if decode {
		latHeader = "latency/token (ms)"
	}
	t := tableio.Table{
		Title:  title,
		Header: []string{"series", "config", "torus", latHeader, "cost (chip-ms/token)", "MFU"},
	}
	for _, c := range curves {
		for _, p := range c.Points {
			lat := fmt.Sprintf("%.3f", p.Latency)
			if decode {
				lat = tableio.Ms(p.Latency)
			}
			t.AddRow(c.Name, p.Label, p.Torus.String(), lat,
				fmt.Sprintf("%.3f", p.Cost*1000), tableio.Pct1(p.MFU))
		}
	}
	return t
}
