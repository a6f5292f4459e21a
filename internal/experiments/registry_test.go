package experiments

import (
	"strings"
	"testing"
)

// Every registry entry must render a non-trivial table, and the id set must
// be exactly the paper artifacts listed here, the ones cmd/estibench -exp
// all prints (cmd/estibench/testdata/exp-all.golden).
func TestRegistryComplete(t *testing.T) {
	k := knobs()
	reg := Registry(k)
	want := []string{
		"fig1-decode", "fig1-prefill", "fig3", "fig6", "fig7", "fig8", "fig9",
		"figB1", "figC1-decode", "figC1-prefill",
		"table1", "table2", "table3", "tableD2", "tableD3", "tableD4",
		"ablations", "ablation-gpu", "ablation-longctx", "validate",
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(reg), len(want))
	}
	for _, id := range want {
		gen, ok := reg[id]
		if !ok {
			t.Errorf("missing experiment %q", id)
			continue
		}
		out := gen()
		if lines := strings.Count(out, "\n"); lines < 4 {
			t.Errorf("%s renders only %d lines", id, lines)
		}
	}
}

func TestRegistryIDsSorted(t *testing.T) {
	ids := RegistryIDs(knobs())
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not sorted at %d: %q <= %q", i, ids[i], ids[i-1])
		}
	}
}
