//go:build exhaustive

package simd

import "testing"

// Every float32 bit pattern: the AVX2 body and its hand-off to the scalar
// Exp32 agree with Exp32 on all 2^32 inputs. Over two minutes (a quarter of
// the inputs are so small that g*g underflows, and both sides pay the
// subnormal penalty), so it runs only under the exhaustive build tag:
//
//	go test -tags exhaustive -run TestAsmExp32RowsExhaustive ./internal/simd
//
// TestAsmExp32RowsBands keeps the sweep's hard bands in every run.
func TestAsmExp32RowsExhaustive(t *testing.T) {
	forceASM(t)
	sweepExp32Rows(t, 0, 1<<32)
}
