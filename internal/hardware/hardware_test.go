package hardware

import (
	"testing"
	"testing/quick"
)

func TestTPUv4Constants(t *testing.T) {
	c := TPUv4()
	if c.PeakFLOPS != 275e12 {
		t.Errorf("PeakFLOPS = %g, want 275e12", c.PeakFLOPS)
	}
	if c.HBMBytes != 32*(1<<30) {
		t.Errorf("HBMBytes = %g, want 32 GiB", c.HBMBytes)
	}
	if c.HBMBandwidth != 1200e9 {
		t.Errorf("HBMBandwidth = %g, want 1200e9", c.HBMBandwidth)
	}
	if c.NetworkBandwidth != 270e9 {
		t.Errorf("NetworkBandwidth = %g, want 270e9", c.NetworkBandwidth)
	}
}

func TestTorusChips(t *testing.T) {
	cases := []struct {
		torus Torus
		want  int
	}{
		{Torus{1, 1, 1}, 1},
		{Torus{2, 2, 2}, 8},
		{Torus{4, 4, 4}, 64},
		{Torus{8, 4, 2}, 64},
		{Torus{4, 8, 8}, 256},
	}
	for _, c := range cases {
		if got := c.torus.Chips(); got != c.want {
			t.Errorf("%v.Chips() = %d, want %d", c.torus, got, c.want)
		}
	}
}

func TestTorusString(t *testing.T) {
	if got := (Torus{4, 8, 2}).String(); got != "4x8x2" {
		t.Errorf("String() = %q, want 4x8x2", got)
	}
}

func TestAxisSize(t *testing.T) {
	tr := Torus{2, 4, 8}
	if tr.Size(AxisX) != 2 || tr.Size(AxisY) != 4 || tr.Size(AxisZ) != 8 {
		t.Errorf("axis sizes = %d,%d,%d want 2,4,8",
			tr.Size(AxisX), tr.Size(AxisY), tr.Size(AxisZ))
	}
}

func TestAxisSizePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Size(invalid axis) did not panic")
		}
	}()
	(Torus{1, 1, 1}).Size(Axis(9))
}

func TestAxisGroupSize(t *testing.T) {
	tr := Torus{2, 4, 8}
	cases := []struct {
		g    AxisGroup
		want int
	}{
		{GroupX, 2},
		{GroupY, 4},
		{GroupZ, 8},
		{GroupXY, 8},
		{GroupYZ, 32},
		{GroupXYZ, 64},
		{AxisGroup{}, 1},
	}
	for _, c := range cases {
		if got := c.g.Size(tr); got != c.want {
			t.Errorf("group %v size = %d, want %d", c.g, got, c.want)
		}
	}
}

func TestAxisGroupString(t *testing.T) {
	if got := GroupYZ.String(); got != "yz" {
		t.Errorf("GroupYZ.String() = %q, want yz", got)
	}
	if got := (AxisGroup{}).String(); got != "none" {
		t.Errorf("empty group String() = %q, want none", got)
	}
}

// Over coprime axis sizes a group's size names its member axes: GroupXY
// spans X and Y and not Z.
func TestAxisGroupContains(t *testing.T) {
	if got := GroupXY.Size(Torus{X: 2, Y: 3, Z: 5}); got != 6 {
		t.Errorf("GroupXY size over 2x3x5 = %d, want 6 (X and Y, not Z)", got)
	}
}

func TestSystemAggregates(t *testing.T) {
	s := TPUv4Slice(4, 4, 4)
	if s.Chips() != 64 {
		t.Fatalf("Chips() = %d, want 64", s.Chips())
	}
	if got, want := s.PeakSystemFLOPS(), 64*275e12; got != want {
		t.Errorf("PeakSystemFLOPS = %g, want %g", got, want)
	}
}

func TestNewSystemPanicsOnInvalidTorus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSystem with invalid torus did not panic")
		}
	}()
	NewSystem(TPUv4(), Torus{0, 1, 1})
}

func TestSliceShapesCoverAllFactorizations(t *testing.T) {
	shapes := SliceShapes(64)
	if len(shapes) == 0 {
		t.Fatal("no shapes for 64 chips")
	}
	seen := map[Torus]bool{}
	for _, s := range shapes {
		if s.Chips() != 64 {
			t.Errorf("shape %v has %d chips, want 64", s, s.Chips())
		}
		if seen[s] {
			t.Errorf("duplicate shape %v", s)
		}
		seen[s] = true
	}
	// 64 = 2^6; number of (a,b,c) with a+b+c=6, a,b,c>=0 is C(8,2)=28.
	if len(shapes) != 28 {
		t.Errorf("got %d shapes for 64 chips, want 28", len(shapes))
	}
	if !seen[Torus{4, 4, 4}] {
		t.Error("missing 4x4x4 shape")
	}
}

func TestBestSliceIsMostCubeLike(t *testing.T) {
	cases := []struct {
		chips int
		want  Torus
	}{
		{1, Torus{1, 1, 1}},
		{8, Torus{2, 2, 2}},
		{64, Torus{4, 4, 4}},
	}
	for _, c := range cases {
		if got := BestSlice(c.chips); got != c.want {
			t.Errorf("BestSlice(%d) = %v, want %v", c.chips, got, c.want)
		}
	}
	// Non-cube counts still give a minimal-aspect shape.
	b := BestSlice(16)
	if aspect(b) > 2 {
		t.Errorf("BestSlice(16) = %v with aspect %g, want aspect <= 2", b, aspect(b))
	}
	b = BestSlice(128)
	if aspect(b) > 2 {
		t.Errorf("BestSlice(128) = %v with aspect %g, want aspect <= 2", b, aspect(b))
	}
}

func TestBestSlicePanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BestSlice(12) did not panic")
		}
	}()
	BestSlice(12)
}

// Property: every enumerated shape multiplies back to the chip count and all
// axes are powers of two.
func TestSliceShapesProperty(t *testing.T) {
	f := func(exp uint8) bool {
		chips := 1 << (exp % 9) // 1..256
		for _, s := range SliceShapes(chips) {
			if s.Chips() != chips {
				return false
			}
			if !isPow2(s.X) || !isPow2(s.Y) || !isPow2(s.Z) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSliceShapesZeroAndNegative(t *testing.T) {
	if SliceShapes(0) != nil {
		t.Error("SliceShapes(0) should be nil")
	}
	if SliceShapes(-4) != nil {
		t.Error("SliceShapes(-4) should be nil")
	}
}
