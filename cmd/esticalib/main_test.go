package main

import (
	"testing"

	"esti/internal/golden"
)

// The shipped knobs' residuals against Tables 2 and 3, byte for byte.
func TestGolden(t *testing.T) {
	golden.Run(t, run, []golden.Case{
		{Name: "defaults", Args: nil},
	})
}
