package engine

import (
	"testing"

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
