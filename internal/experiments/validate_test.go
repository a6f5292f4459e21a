package experiments

import "testing"

// Every functional-vs-analytic check must pass — this is the bridge between
// the mesh-measured reality and the closed-form model everything else uses.
func TestValidationAllPass(t *testing.T) {
	rows := Validate()
	if len(rows) != 6 {
		t.Fatalf("got %d validation rows, want 6", len(rows))
	}
	for _, r := range rows {
		if !r.Pass {
			t.Errorf("%s: measured %g vs predicted %g", r.Check, r.Measured, r.Predicted)
		}
	}
}

func TestValidateTableRenders(t *testing.T) {
	s := ValidateTable().String()
	if len(s) < 100 {
		t.Errorf("validation table too short:\n%s", s)
	}
}
