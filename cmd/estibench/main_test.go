package main

import (
	"testing"

	"esti/internal/golden"
)

// Every table and figure the command regenerates, byte for byte.
func TestGolden(t *testing.T) {
	golden.Run(t, run, []golden.Case{
		{Name: "exp-all", Args: []string{"-exp", "all"}},
	})
}
