package experiments

import (
	"sort"

	"esti/internal/ftdata"
	"esti/internal/perf"
)

// Registry maps every experiment id to a renderer, the single source of
// truth for cmd/estibench, whose -exp all output is the artifact index
// (cmd/estibench/testdata/exp-all.golden).
func Registry(k perf.Knobs) map[string]func() string {
	return map[string]func() string{
		"fig1-decode": func() string {
			return CurvesTable(
				"Figure 1 (left): decode cost vs latency Pareto frontier (ctx 2048, 64 generated tokens)",
				Fig1Decode(k), true).String()
		},
		"fig1-prefill": func() string {
			return CurvesTable(
				"Figure 1 (right): prefill cost vs latency Pareto frontier (2048 input tokens)",
				Fig1Prefill(k), false).String()
		},
		"fig3": func() string { return Fig3Table().String() },
		"fig6": func() string { return Fig6Table(k).String() },
		"fig7": func() string { return Fig7Table(k).String() },
		"fig8": func() string { return Fig8Table(k).String() },
		"fig9": func() string { return Fig9Table(k).String() },
		"figB1": func() string {
			return CurvesTable(
				"Figure B.1: batch-1 prefill cost vs latency (seq 32..1024)",
				FigB1(k), false).String()
		},
		"figC1-decode": func() string {
			return CurvesTable(
				"Figure C.1 (left): decode MFU vs latency frontier",
				FigC1Decode(k), true).String()
		},
		"figC1-prefill": func() string {
			return CurvesTable(
				"Figure C.1 (right): prefill MFU vs latency frontier",
				FigC1Prefill(k), false).String()
		},
		"table1": func() string { return Table1Table().String() },
		"table2": func() string {
			return ConfigsTable("Table 2: PaLM 540B example configurations", Table2(k)).String()
		},
		"table3": func() string {
			return ConfigsTable("Table 3: PaLM 62B example configurations", Table3(k)).String()
		},
		"tableD2":          func() string { return FTTable(ftdata.Bench20In8Out(), k).String() },
		"tableD3":          func() string { return FTTable(ftdata.Bench60In20Out(), k).String() },
		"tableD4":          func() string { return FTTable(ftdata.Bench128In8Out(), k).String() },
		"ablations":        func() string { return AblationsTable(k).String() },
		"ablation-gpu":     func() string { return AblationGPUTable(k).String() },
		"ablation-longctx": func() string { return AblationLongContextTable(k).String() },
		"validate":         func() string { return ValidateTable().String() },
	}
}

// RegistryIDs returns the experiment ids in sorted order.
func RegistryIDs(k perf.Knobs) []string {
	reg := Registry(k)
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
