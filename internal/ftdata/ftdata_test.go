package ftdata

import "testing"

func TestBenchmarksComplete(t *testing.T) {
	for _, b := range All() {
		for _, cfg := range Configs {
			pts, ok := b.Results[cfg]
			if !ok {
				t.Errorf("%s: missing config %s", b.Name, cfg)
				continue
			}
			if len(pts) != 9 {
				t.Errorf("%s %s: %d points, want 9 (batch 1..256)", b.Name, cfg, len(pts))
			}
			prevBatch := 0
			for _, p := range pts {
				if p.Batch <= prevBatch {
					t.Errorf("%s %s: batches not increasing at %d", b.Name, cfg, p.Batch)
				}
				prevBatch = p.Batch
				if !p.OOM && (p.TimeMS <= 0 || p.MFU < 0 || p.MFU > 1) {
					t.Errorf("%s %s b=%d: bad point %+v", b.Name, cfg, p.Batch, p)
				}
			}
		}
	}
}

// Spot-check transcribed cells against the paper.
func TestSpotValues(t *testing.T) {
	d2 := Bench20In8Out()
	if p := d2.Results[TP16][8]; p.Batch != 256 || p.TimeMS != 3341 || p.MFU != 0.46 {
		t.Errorf("D.2 TP16 b=256 = %+v", p)
	}
	d3 := Bench60In20Out()
	if p := d3.Results[TP16][8]; !p.OOM {
		t.Error("D.3 TP16 b=256 should be OOM")
	}
	if p := d3.Results[PP3TP8][0]; p.TimeMS != 2085 {
		t.Errorf("D.3 PP3/TP8 b=1 = %+v", p)
	}
	d4 := Bench128In8Out()
	if p := d4.Results[TP32][8]; p.TimeMS != 11232 || p.MFU != 0.33 {
		t.Errorf("D.4 TP32 b=256 = %+v", p)
	}
}

// Section 5: FasterTransformer TP32 tops out at 33% MFU; TP16 reaches 46%.
func TestPublishedMFUCeilings(t *testing.T) {
	maxMFU := func(cfg Config) float64 {
		best := 0.0
		for _, b := range All() {
			for _, p := range b.Results[cfg] {
				if !p.OOM && p.MFU > best {
					best = p.MFU
				}
			}
		}
		return best
	}
	if got := maxMFU(TP32); got != 0.33 {
		t.Errorf("TP32 ceiling = %.2f, want 0.33", got)
	}
	if got := maxMFU(TP16); got != 0.46 {
		t.Errorf("TP16 ceiling = %.2f, want 0.46", got)
	}
}
