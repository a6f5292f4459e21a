package main

import (
	"testing"

	"esti/internal/golden"
)

// The tour's every number, the sharded run's largest logit difference
// from the reference among them, byte for byte.
func TestGolden(t *testing.T) {
	golden.Run(t, run, []golden.Case{{Name: "tour", Args: nil}})
}
