// Package hardware models the accelerator system the paper's analysis is
// parameterized over: a set of identical chips connected in a 3D torus.
//
// Every quantity in the paper's analytical model (Pope et al., MLSYS 2023,
// Sections 2-3 and Appendix A) is a function of five hardware constants:
// peak matmul FLOP/s, HBM capacity, HBM bandwidth, per-chip interconnect
// bandwidth, and the torus shape. The TPUv4 preset carries the constants the
// paper states for Google TPU v4 chips.
package hardware

import (
	"fmt"
	"sort"
)

// Chip describes a single accelerator chip.
type Chip struct {
	// PeakFLOPS is the peak dense-matmul throughput in FLOP/s
	// (bfloat16 multiply-accumulate counted as 2 FLOPs).
	PeakFLOPS float64
	// HBMBytes is the high-bandwidth-memory capacity in bytes.
	HBMBytes float64
	// HBMBandwidth is the HBM read bandwidth in bytes/s.
	HBMBandwidth float64
	// NetworkBandwidth is the interconnect bandwidth in bytes/s available
	// to a chip for collective communication (aggregate over its torus
	// links, as used by the paper's cost formulas).
	NetworkBandwidth float64
}

// TPUv4 returns the chip constants the paper reports for a TPU v4 chip:
// 275 TFLOPS bf16, 32 GiB HBM at 1200 GB/s, and 270 GB/s interconnect
// bandwidth in a 3D torus topology.
func TPUv4() Chip {
	return Chip{
		PeakFLOPS:        275e12,
		HBMBytes:         32 * (1 << 30),
		HBMBandwidth:     1200e9,
		NetworkBandwidth: 270e9,
	}
}

// A100SXM returns constants for an NVIDIA A100-SXM4-80GB, the chip behind
// the FasterTransformer baseline: 312 TFLOPS bf16, 80 GB HBM2e at ~2 TB/s,
// and 300 GB/s of NVLink bandwidth per GPU (600 GB/s bidirectional). The
// paper notes its partitioning strategies "generalize to single- and
// multi-node NVLink networks in GPU systems"; modeling an NVSwitch island
// as a flat 1D ring torus approximates its all-to-all fabric for the
// collective formulas.
func A100SXM() Chip {
	return Chip{
		PeakFLOPS:        312e12,
		HBMBytes:         80e9,
		HBMBandwidth:     2039e9,
		NetworkBandwidth: 300e9,
	}
}

// Torus is a 3D torus slice shape X×Y×Z. The paper's partitioning notation
// assigns tensor dimensions to subsets of these three physical axes.
type Torus struct {
	X, Y, Z int
}

// Chips returns the number of chips in the slice.
func (t Torus) Chips() int { return t.X * t.Y * t.Z }

// String renders the slice shape as "XxYxZ".
func (t Torus) String() string { return fmt.Sprintf("%dx%dx%d", t.X, t.Y, t.Z) }

// Valid reports whether all axes are positive.
func (t Torus) Valid() bool { return t.X >= 1 && t.Y >= 1 && t.Z >= 1 }

// Axis identifies one of the three physical torus axes.
type Axis int

// The three torus axes.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	case AxisZ:
		return "z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Size returns the extent of axis a in the torus.
func (t Torus) Size(a Axis) int {
	switch a {
	case AxisX:
		return t.X
	case AxisY:
		return t.Y
	case AxisZ:
		return t.Z
	}
	panic(fmt.Sprintf("hardware: invalid axis %d", int(a)))
}

// AxisGroup is an ordered set of distinct torus axes, e.g. the "yz" in
// all-gather(yz). The product of the member axis sizes is the group size.
type AxisGroup []Axis

// Size returns the number of chips a collective over this group spans.
func (g AxisGroup) Size(t Torus) int {
	n := 1
	for _, a := range g {
		n *= t.Size(a)
	}
	return n
}

func (g AxisGroup) String() string {
	s := ""
	for _, a := range g {
		s += a.String()
	}
	if s == "" {
		return "none"
	}
	return s
}

// Convenient named groups used throughout the layouts.
var (
	GroupX   = AxisGroup{AxisX}
	GroupY   = AxisGroup{AxisY}
	GroupZ   = AxisGroup{AxisZ}
	GroupXY  = AxisGroup{AxisX, AxisY}
	GroupYZ  = AxisGroup{AxisY, AxisZ}
	GroupXYZ = AxisGroup{AxisX, AxisY, AxisZ}
)

// System is a slice of identical chips arranged in a torus. It is the
// hardware argument to every cost model in this repository.
type System struct {
	Chip  Chip
	Torus Torus
}

// NewSystem builds a system from a chip spec and slice shape.
func NewSystem(c Chip, t Torus) System {
	if !t.Valid() {
		panic(fmt.Sprintf("hardware: invalid torus %v", t))
	}
	return System{Chip: c, Torus: t}
}

// TPUv4Slice returns a TPU v4 system with the given slice shape.
func TPUv4Slice(x, y, z int) System {
	return NewSystem(TPUv4(), Torus{X: x, Y: y, Z: z})
}

// Chips returns the chip count of the slice.
func (s System) Chips() int { return s.Torus.Chips() }

// PeakSystemFLOPS is the aggregate peak FLOP/s of the slice.
func (s System) PeakSystemFLOPS() float64 {
	return s.Chip.PeakFLOPS * float64(s.Chips())
}

// SliceShapes enumerates plausible X×Y×Z decompositions for a chip count,
// mirroring the shapes available on TPU v4 (axes are powers of two and at
// least 1; the paper notes the minimum torus axis size that matters for
// batch-sharded attention is 4). Shapes are returned sorted by descending
// "squareness" (smaller max/min axis ratio first) so callers that just need
// a reasonable slice can take the first element.
func SliceShapes(chips int) []Torus {
	if chips < 1 {
		return nil
	}
	var out []Torus
	for x := 1; x <= chips; x *= 2 {
		if chips%x != 0 {
			continue
		}
		rem := chips / x
		for y := 1; y <= rem; y *= 2 {
			if rem%y != 0 {
				continue
			}
			z := rem / y
			if !isPow2(z) {
				continue
			}
			out = append(out, Torus{X: x, Y: y, Z: z})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := aspect(out[i]), aspect(out[j])
		if ri != rj {
			return ri < rj
		}
		// Tie-break deterministically by coordinates.
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].Z < out[j].Z
	})
	return out
}

// BestSlice returns the most cube-like torus for a chip count. It panics if
// chips is not a power of two (the only shapes this model enumerates).
func BestSlice(chips int) Torus {
	shapes := SliceShapes(chips)
	if len(shapes) == 0 {
		panic(fmt.Sprintf("hardware: no slice shapes for %d chips", chips))
	}
	return shapes[0]
}

func aspect(t Torus) float64 {
	lo, hi := t.X, t.X
	for _, v := range []int{t.Y, t.Z} {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return float64(hi) / float64(lo)
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
