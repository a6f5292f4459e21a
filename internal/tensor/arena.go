package tensor

import "unsafe"

// vectorAlign is the byte alignment of every kernel-facing float32
// allocation: one cache line, so AVX2 vector loads in the simd layer never
// split across cache-line boundaries. Alignment is a performance contract
// only — the kernels use unaligned loads and are bit-exact either way.
const vectorAlign = 64

// alignedFloats allocates a length-n float32 slice whose first element
// sits on a vectorAlign boundary. It over-allocates by one cache line and
// reslices to the aligned offset; the padding stays reachable as capacity
// beyond index 0's alignment, so Reshape growth within capacity preserves
// alignment.
func alignedFloats(n int) []float32 {
	buf := make([]float32, n+vectorAlign/4)
	off := 0
	if r := uintptr(unsafe.Pointer(unsafe.SliceData(buf))) % vectorAlign; r != 0 {
		off = int((vectorAlign - r) / 4)
	}
	return buf[off : off+n]
}

// Arena is a bump allocator of reusable matrices for hot loops with a
// repeating allocation pattern, such as one decode iteration of the
// sharded engine: call Reset at the top of each pass, then take every
// temporary with Mat. On the first pass each request allocates; on every
// later pass with the same request sequence (and non-growing sizes) the
// same buffers are handed out again in order, so a steady-state pass
// performs zero heap allocations.
//
// Matrices stay valid until the Reset that recycles them — callers must
// not retain one across passes. Contents on reuse are stale; kernels are
// expected to fully overwrite (or Zero) their output. An Arena is not safe
// for concurrent use; give each goroutine its own.
type Arena struct {
	mats []*Mat
	next int
}

// Reset recycles all matrices taken since the previous Reset.
func (a *Arena) Reset() { a.next = 0 }

// Mark is the arena's position, for Release.
func (a *Arena) Mark() int { return a.next }

// Release recycles the matrices taken since Mark returned m, as Reset does
// all of them: a loop whose iterations each take the same temporaries,
// such as the layers of a pass, then holds one iteration's worth.
func (a *Arena) Release(m int) { a.next = m }

// Mat returns a rows×cols matrix with unspecified contents. The backing
// buffer is reused from the previous cycle when its capacity suffices and
// replaced (grown) otherwise. Buffers are cache-line aligned
// (alignedFloats) so the simd layer's vector loads never split lines.
func (a *Arena) Mat(rows, cols int) *Mat {
	n := rows * cols
	if a.next < len(a.mats) {
		m := a.mats[a.next]
		a.next++
		if cap(m.Data) < n {
			m.Data = alignedFloats(n)
		}
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
		return m
	}
	m := &Mat{Rows: rows, Cols: cols, Data: alignedFloats(n)}
	a.mats = append(a.mats, m)
	a.next++
	return m
}
