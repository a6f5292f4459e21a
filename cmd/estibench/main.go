// Command estibench regenerates the paper's tables and figures (Pope et
// al., "Efficiently Scaling Transformer Inference", MLSYS 2023) from the
// analytical model, printing each artifact as a plain-text table.
//
// Usage:
//
//	estibench [-exp <id>]
//
// where <id> is one of the experiment ids in the registry (fig1-decode,
// fig3, table1, tableD2, ablation-gpu, validate, ...) or "all" (default).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"esti/internal/experiments"
	"esti/internal/perf"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the artifacts to stdout and
// errors to stderr, and returns the exit status (2 for a bad flag).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("estibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id to regenerate (or 'all')")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	k := perf.DefaultKnobs()
	gens := experiments.Registry(k)

	if *exp == "all" {
		for _, id := range experiments.RegistryIDs(k) {
			fmt.Fprintln(stdout, gens[id]())
			fmt.Fprintln(stdout)
		}
		return 0
	}
	gen, ok := gens[*exp]
	if !ok {
		fmt.Fprintf(stderr, "unknown experiment %q; known:\n", *exp)
		for _, id := range experiments.RegistryIDs(k) {
			fmt.Fprintf(stderr, "  %s\n", id)
		}
		return 2
	}
	fmt.Fprintln(stdout, gen())
	return 0
}
