// Package ftdata embeds the FasterTransformer Megatron-Turing NLG 530B
// benchmark results the paper compares against (Appendix D, Tables D.2-D.4).
// FasterTransformer ran on 16-32 NVIDIA A100-80GB GPUs; the paper (and this
// reproduction) compares in MFU terms, which normalizes for chip count and
// peak FLOPS. These numbers are published constants — the A100 side cannot
// be re-measured here — while the TPU side of each table is regenerated by
// the analytical model.
package ftdata

// Config identifies a FasterTransformer parallelism configuration.
type Config string

// The three published FasterTransformer configurations.
const (
	TP16   Config = "TP16"    // 16-way tensor parallel
	TP32   Config = "TP32"    // 32-way tensor parallel
	PP3TP8 Config = "PP3/TP8" // 3-stage pipeline x 8-way tensor parallel
)

// Configs lists the published configurations in presentation order.
var Configs = []Config{TP16, TP32, PP3TP8}

// Point is one published benchmark measurement: end-to-end time for the
// whole request (prefill + all decode steps) and the resulting MFU.
type Point struct {
	Batch  int
	TimeMS float64
	MFU    float64 // 0..1
	OOM    bool    // true where the paper reports OOM
}

// Benchmark is one of the paper's three request shapes.
type Benchmark struct {
	Name      string
	InputLen  int
	OutputLen int
	// Results maps configuration to measurements ordered by batch.
	Results map[Config][]Point
}

// Table D.2: 20 input tokens, 8 output tokens.
func Bench20In8Out() Benchmark {
	return Benchmark{
		Name: "20-input-token, 8-output-token", InputLen: 20, OutputLen: 8,
		Results: map[Config][]Point{
			TP16: {
				{Batch: 1, TimeMS: 565, MFU: 0.01}, {Batch: 2, TimeMS: 598, MFU: 0.02},
				{Batch: 4, TimeMS: 616, MFU: 0.04}, {Batch: 8, TimeMS: 660, MFU: 0.07},
				{Batch: 16, TimeMS: 730, MFU: 0.13}, {Batch: 32, TimeMS: 865, MFU: 0.22},
				{Batch: 64, TimeMS: 1191, MFU: 0.32}, {Batch: 128, TimeMS: 1862, MFU: 0.41},
				{Batch: 256, TimeMS: 3341, MFU: 0.46},
			},
			TP32: {
				{Batch: 1, TimeMS: 431, MFU: 0.01}, {Batch: 2, TimeMS: 455, MFU: 0.01},
				{Batch: 4, TimeMS: 493, MFU: 0.02}, {Batch: 8, TimeMS: 523, MFU: 0.05},
				{Batch: 16, TimeMS: 575, MFU: 0.08}, {Batch: 32, TimeMS: 672, MFU: 0.14},
				{Batch: 64, TimeMS: 942, MFU: 0.20}, {Batch: 128, TimeMS: 1431, MFU: 0.27},
				{Batch: 256, TimeMS: 2483, MFU: 0.31},
			},
			PP3TP8: {
				{Batch: 1, TimeMS: 842, MFU: 0.00}, {Batch: 2, TimeMS: 860, MFU: 0.01},
				{Batch: 4, TimeMS: 867, MFU: 0.02}, {Batch: 8, TimeMS: 929, MFU: 0.03},
				{Batch: 16, TimeMS: 1049, MFU: 0.06}, {Batch: 32, TimeMS: 1283, MFU: 0.10},
				{Batch: 64, TimeMS: 1722, MFU: 0.15}, {Batch: 128, TimeMS: 2124, MFU: 0.24},
				{Batch: 256, TimeMS: 3140, MFU: 0.32},
			},
		},
	}
}

// Table D.3: 60 input tokens, 20 output tokens (also Figure 9).
func Bench60In20Out() Benchmark {
	return Benchmark{
		Name: "60-input-token, 20-output-token", InputLen: 60, OutputLen: 20,
		Results: map[Config][]Point{
			TP16: {
				{Batch: 1, TimeMS: 1379, MFU: 0.01}, {Batch: 2, TimeMS: 1515, MFU: 0.02},
				{Batch: 4, TimeMS: 1512, MFU: 0.04}, {Batch: 8, TimeMS: 1631, MFU: 0.08},
				{Batch: 16, TimeMS: 1868, MFU: 0.15}, {Batch: 32, TimeMS: 2361, MFU: 0.23},
				{Batch: 64, TimeMS: 3383, MFU: 0.32}, {Batch: 128, TimeMS: 5406, MFU: 0.40},
				{Batch: 256, TimeMS: 0, MFU: 0, OOM: true},
			},
			TP32: {
				{Batch: 1, TimeMS: 1037, MFU: 0.01}, {Batch: 2, TimeMS: 1110, MFU: 0.02},
				{Batch: 4, TimeMS: 1198, MFU: 0.03}, {Batch: 8, TimeMS: 1295, MFU: 0.05},
				{Batch: 16, TimeMS: 1454, MFU: 0.09}, {Batch: 32, TimeMS: 1804, MFU: 0.15},
				{Batch: 64, TimeMS: 2646, MFU: 0.21}, {Batch: 128, TimeMS: 4099, MFU: 0.27},
				{Batch: 256, TimeMS: 7203, MFU: 0.30},
			},
			PP3TP8: {
				{Batch: 1, TimeMS: 2085, MFU: 0.01}, {Batch: 2, TimeMS: 2122, MFU: 0.01},
				{Batch: 4, TimeMS: 2184, MFU: 0.02}, {Batch: 8, TimeMS: 2367, MFU: 0.04},
				{Batch: 16, TimeMS: 2753, MFU: 0.07}, {Batch: 32, TimeMS: 3543, MFU: 0.10},
				{Batch: 64, TimeMS: 4117, MFU: 0.18}, {Batch: 128, TimeMS: 5319, MFU: 0.27},
				{Batch: 256, TimeMS: 8318, MFU: 0.35},
			},
		},
	}
}

// Table D.4: 128 input tokens, 8 output tokens.
func Bench128In8Out() Benchmark {
	return Benchmark{
		Name: "128-input-token, 8-output-token", InputLen: 128, OutputLen: 8,
		Results: map[Config][]Point{
			TP16: {
				{Batch: 1, TimeMS: 585, MFU: 0.05}, {Batch: 2, TimeMS: 667, MFU: 0.09},
				{Batch: 4, TimeMS: 765, MFU: 0.15}, {Batch: 8, TimeMS: 990, MFU: 0.23},
				{Batch: 16, TimeMS: 1377, MFU: 0.34}, {Batch: 32, TimeMS: 2251, MFU: 0.41},
				{Batch: 64, TimeMS: 4002, MFU: 0.46},
				{Batch: 128, TimeMS: 0, MFU: 0, OOM: true},
				{Batch: 256, TimeMS: 0, MFU: 0, OOM: true},
			},
			TP32: {
				{Batch: 1, TimeMS: 451, MFU: 0.03}, {Batch: 2, TimeMS: 508, MFU: 0.06},
				{Batch: 4, TimeMS: 606, MFU: 0.10}, {Batch: 8, TimeMS: 766, MFU: 0.15},
				{Batch: 16, TimeMS: 1074, MFU: 0.22}, {Batch: 32, TimeMS: 1741, MFU: 0.27},
				{Batch: 64, TimeMS: 3114, MFU: 0.30}, {Batch: 128, TimeMS: 5784, MFU: 0.32},
				{Batch: 256, TimeMS: 11232, MFU: 0.33},
			},
			PP3TP8: {
				{Batch: 1, TimeMS: 866, MFU: 0.02}, {Batch: 2, TimeMS: 932, MFU: 0.04},
				{Batch: 4, TimeMS: 1097, MFU: 0.07}, {Batch: 8, TimeMS: 1434, MFU: 0.11},
				{Batch: 16, TimeMS: 2104, MFU: 0.15}, {Batch: 32, TimeMS: 2623, MFU: 0.23},
				{Batch: 64, TimeMS: 3578, MFU: 0.34}, {Batch: 128, TimeMS: 5512, MFU: 0.45},
				{Batch: 256, TimeMS: 9614, MFU: 0.51},
			},
		},
	}
}

// All returns the three published benchmarks.
func All() []Benchmark {
	return []Benchmark{Bench20In8Out(), Bench60In20Out(), Bench128In8Out()}
}
