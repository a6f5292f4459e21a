package tensor

import (
	"testing"
	"unsafe"
)

// Kernel-facing allocations must start on a cache-line boundary so the
// simd layer's 32-byte vector loads never split lines. This is the
// regression test for the vectorAlign contract on New, Reshape growth, and
// the Arena — the buffers the engine's zero-alloc decode loop actually
// hands to the kernels.

func addrOf(data []float32) uintptr {
	if len(data) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(data)))
}

func requireAligned(t *testing.T, label string, data []float32) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	if a := addrOf(data); a%vectorAlign != 0 {
		t.Errorf("%s: base address %#x not %d-byte aligned", label, a, vectorAlign)
	}
}

func TestNewIsCacheLineAligned(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {3, 7}, {8, 8}, {17, 129}, {64, 1024}} {
		m := New(shape[0], shape[1])
		requireAligned(t, "New", m.Data)
	}
}

func TestReshapeGrowthStaysAligned(t *testing.T) {
	m := New(2, 2)
	m.Reshape(8, 64) // forces reallocation
	requireAligned(t, "Reshape grow", m.Data)
	base := addrOf(m.Data)
	m.Reshape(4, 32) // shrink within capacity must keep the same base
	if addrOf(m.Data) != base {
		t.Error("shrinking reshape moved the buffer")
	}
	requireAligned(t, "Reshape shrink", m.Data)
}

func TestArenaMatsAligned(t *testing.T) {
	var ar Arena
	for cycle := 0; cycle < 2; cycle++ {
		ar.Reset()
		for _, shape := range [][2]int{{1, 5}, {4, 96}, {16, 256}} {
			m := ar.Mat(shape[0], shape[1])
			requireAligned(t, "Arena.Mat", m.Data)
		}
	}
	// Growth replaces the buffer; the replacement must be aligned too.
	ar.Reset()
	requireAligned(t, "Arena grown", ar.Mat(64, 256).Data)
}
