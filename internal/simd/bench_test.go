package simd

import (
	"math/rand"
	"testing"
)

// Package-local microbenchmarks of the dispatched kernels against their
// scalar twins. The root package's microkernel benchmarks
// (bench_micro_test.go) time the engine's shapes and hold them to zero
// allocations; these exist for quick in-package iteration:
// go test ./internal/simd -bench=. -run='^$'

const benchN = 256 // a typical head-dim×2 / row-block length

func benchVectors() (a, b []float32, q []int8) {
	rng := rand.New(rand.NewSource(1))
	a = randFloats(rng, benchN, false)
	b = randFloats(rng, benchN, false)
	q = randInt8s(rng, benchN)
	return
}

func BenchmarkPkgDotF32(b *testing.B) {
	a, x, _ := benchVectors()
	b.Run("dispatch", func(b *testing.B) {
		var s float32
		for i := 0; i < b.N; i++ {
			s += DotF32(a, x)
		}
		sink = s
	})
	b.Run("scalar", func(b *testing.B) {
		var s float32
		for i := 0; i < b.N; i++ {
			s += ScalarDot(a, x)
		}
		sink = s
	})
}

func BenchmarkPkgDotF32I8(b *testing.B) {
	a, _, q := benchVectors()
	b.Run("dispatch", func(b *testing.B) {
		var s float32
		for i := 0; i < b.N; i++ {
			s += DotF32I8(a, q)
		}
		sink = s
	})
	b.Run("scalar", func(b *testing.B) {
		var s float32
		for i := 0; i < b.N; i++ {
			s += ScalarDot(a, q)
		}
		sink = s
	})
}

func BenchmarkPkgAxpyF32I8(b *testing.B) {
	a, _, q := benchVectors()
	b.Run("dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AxpyF32I8(a, 0.5, q)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScalarAxpy(a, 0.5, q)
		}
	})
}

func BenchmarkPkgMulAdd4F32(b *testing.B) {
	a, x, _ := benchVectors()
	b.Run("dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulAdd4F32(a, x, x, x, x, 0.1, 0.2, 0.3, 0.4)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScalarMulAdd4(a, x, x, x, x, 0.1, 0.2, 0.3, 0.4)
		}
	})
}

// sink defeats dead-code elimination of the benchmarked dots.
var sink float32
