// Command esticalib calibrates the perf-model knob constants against the
// paper's published operating points (Tables 2 and 3 of Pope et al., MLSYS
// 2023) by grid search, and prints the residuals of both the best-found and
// the shipped default knobs. The shipped defaults in perf.DefaultKnobs were
// produced by this tool; re-run it after changing the cost model.
//
// Usage:
//
//	esticalib [-grid]
//
// Without -grid only the residual table for the current defaults is printed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
)

type anchor struct {
	name string
	req  perf.Request
	dec  bool
	time float64 // paper-reported seconds
	mfu  float64 // paper-reported MFU
}

// anchors returns the eight published operating points of Tables 2 and 3.
func anchors() []anchor {
	s64 := hardware.TPUv4Slice(4, 4, 4)
	p540 := model.PaLM540BPadded()
	p62 := model.PaLM62B()
	ws := partition.FFN2DWeightStationary
	wg := partition.FFNWeightGatheredXYZ
	return []anchor{
		{"540B dec i8 B64", perf.Request{Model: p540, System: s64, Weights: model.Int8, FFN: ws, Attn: partition.AttnShardBatch, Batch: 64, Context: 2048, Gen: 64}, true, 1.82, 0.14},
		{"540B dec bf B512", perf.Request{Model: p540, System: s64, Weights: model.BF16, FFN: ws, Attn: partition.AttnShardBatch, Batch: 512, Context: 2048, Gen: 64}, true, 6.0, 0.33},
		{"540B pre i8 B1", perf.Request{Model: p540, System: s64, Weights: model.Int8, FFN: ws, Attn: partition.AttnShardHeads, Batch: 1, Context: 2048}, false, 0.29, 0.43},
		{"540B pre bf B512", perf.Request{Model: p540, System: s64, Weights: model.BF16, FFN: wg, Attn: partition.AttnShardBatch, Batch: 512, Context: 2048}, false, 85.2, 0.76},
		{"62B dec bf B512 C8", perf.Request{Model: p62, System: hardware.TPUv4Slice(2, 2, 2), Weights: model.BF16, FFN: ws, Attn: partition.AttnShardBatch, Batch: 512, Context: 2048, Gen: 64}, true, 5.1, 0.37},
		{"62B dec i8 B32 C16", perf.Request{Model: p62, System: hardware.TPUv4Slice(4, 2, 2), Weights: model.Int8, FFN: ws, Attn: partition.AttnShardBatch, Batch: 32, Context: 2048, Gen: 64}, true, 0.73, 0.08},
		{"62B pre bf B512 C32", perf.Request{Model: p62, System: hardware.TPUv4Slice(4, 4, 2), Weights: model.BF16, FFN: wg, Attn: partition.AttnShardBatch, Batch: 512, Context: 2048}, false, 20.2, 0.73},
		{"62B pre i8 B1 C16", perf.Request{Model: p62, System: hardware.TPUv4Slice(4, 2, 2), Weights: model.Int8, FFN: ws, Attn: partition.AttnShardHeads, Batch: 1, Context: 2048}, false, 0.16, 0.36},
	}
}

// score is the calibration loss: squared relative time error plus squared
// MFU error scaled so 5 MFU points weigh like a 50% time error (MFU is the
// paper's headline metric). Each anchor's residual line goes to w.
func score(k perf.Knobs, w io.Writer) float64 {
	tot := 0.0
	for _, a := range anchors() {
		var r perf.Result
		if a.dec {
			r = perf.Decode(a.req, k)
		} else {
			r = perf.Prefill(a.req, k)
		}
		if !r.Feasible {
			fmt.Fprintf(w, "  %-22s INFEASIBLE: %s\n", a.name, r.Reason)
			tot += 100
			continue
		}
		relT := (r.Time - a.time) / a.time
		dMFU := r.MFU - a.mfu
		tot += relT*relT + (dMFU/0.05)*(dMFU/0.05)*0.25
		fmt.Fprintf(w, "  %-22s time %7.3fs (paper %7.3fs, %+5.1f%%)  MFU %5.1f%% (paper %4.0f%%)\n",
			a.name, r.Time, a.time, relT*100, r.MFU*100, a.mfu*100)
	}
	return tot
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the residuals to stdout and
// errors to stderr, and returns the exit status (2 for a bad flag).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("esticalib", flag.ContinueOnError)
	fs.SetOutput(stderr)
	grid := fs.Bool("grid", false, "grid-search knob constants instead of only reporting defaults")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *grid {
		best := perf.DefaultKnobs()
		bestS := score(best, io.Discard)
		for _, e0 := range []float64{0.76, 0.78, 0.8, 0.82, 0.85, 0.88, 0.9} {
			for _, ms := range []float64{80, 100, 120, 150} {
				for _, ks := range []float64{500, 700, 900, 1100, 1400, 1700} {
					for _, ae := range []float64{0.35, 0.5, 0.7} {
						k := perf.DefaultKnobs()
						k.MatmulEffMax, k.MSat, k.KSat, k.NSat, k.AttnEff = e0, ms, ks, ks, ae
						if s := score(k, io.Discard); s < bestS {
							best, bestS = k, s
						}
					}
				}
			}
		}
		fmt.Fprintf(stdout, "grid best: e0=%.2f MSat=%.0f KSat=%.0f NSat=%.0f AttnEff=%.2f (loss %.3f)\n",
			best.MatmulEffMax, best.MSat, best.KSat, best.NSat, best.AttnEff, bestS)
		score(best, stdout)
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "shipped defaults (loss %.3f):\n", score(perf.DefaultKnobs(), io.Discard))
	score(perf.DefaultKnobs(), stdout)
	return 0
}
