package main

import (
	"testing"

	"esti/internal/golden"
)

// The plans CI has always run, a misspelt objective, and a workload with no
// token to plan, which must be refused rather than planned as empty.
func TestGolden(t *testing.T) {
	golden.Run(t, run, []golden.Case{
		{Name: "defaults", Args: nil},
		{Name: "cost-256", Args: []string{"-objective", "cost", "-chips", "256", "-batch", "512"}},
		{Name: "objective-costt", Args: []string{"-objective", "costt"}},
		{Name: "no-tokens", Args: []string{"-context", "0", "-gen", "0"}},
	})
}
