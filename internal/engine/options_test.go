package engine

import (
	"strings"
	"testing"

	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
)

// FP32 and the zero value (BF16) both select the engine's float path; the
// session must not report int8 for either, and an out-of-range dtype is
// rejected at construction.
func TestDTypeNormalization(t *testing.T) {
	cfg := ciConfig()
	w := reference.NewWeights(cfg, 5)
	base := Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}

	fp := base
	fp.KVDType = model.FP32
	e, err := New(w, torus222(), fp, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if e.chips[0].cache.Int8() || e.KVDType() != model.FP32 {
		t.Errorf("FP32 session reports int8 cache %v, KVDType %v", e.chips[0].cache.Int8(), e.KVDType())
	}

	bad := base
	bad.WireDType = model.DType(99)
	if _, err := New(w, torus222(), bad, 8, 16); err == nil {
		t.Error("unknown dtype should be rejected")
	}
}

// A session needs at least one slot and one position; New says so instead
// of returning an engine that cannot hold a token or dying in an allocator.
func TestNewRejectsNonPositiveBatchAndMaxLen(t *testing.T) {
	w := reference.NewWeights(ciConfig(), 5)
	opts := Options{FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads}
	one := hardware.Torus{X: 1, Y: 1, Z: 1}
	for _, c := range []struct{ batch, maxLen int }{{0, 8}, {1, 0}, {-1, 8}, {1, -3}} {
		e, err := New(w, one, opts, c.batch, c.maxLen)
		if err == nil || e != nil || !strings.HasPrefix(err.Error(), "engine:") {
			t.Errorf("New(batch %d, maxLen %d) = %v, %v; want an engine: error", c.batch, c.maxLen, e, err)
		}
	}
}
