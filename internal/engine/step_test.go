package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
)

// One pass shape: a ragged Step — per-slot counts of 0, 1 or a prompt
// chunk, drawn at random — computes each slot's rows exactly as separate
// PrefillSlot and DecodeSlotsInto calls on the same slots do. Generated
// over every functional layout with each attention sharding New accepts,
// parallel and serial blocks, float and int8 weights and KV, and barrier
// and streamed modes, on the fp32 wire: every row is bit-equal, the slot
// calls' idle rows are zero, and the float-weight float-KV runs' greedy
// tokens equal the batch-1 reference's.
func TestStepRaggedMatchesSlotCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	layouts := []struct {
		ffn  partition.FFNLayout
		attn partition.AttnLayout
	}{
		{partition.FFN1DWeightStationary, partition.AttnShardHeads},
		{partition.FFN1DWeightStationary, partition.AttnShardBatch},
		{partition.FFN2DWeightStationary, partition.AttnShardHeads},
		{partition.FFN2DWeightStationary, partition.AttnShardBatch},
		{partition.FFNWeightGatheredXYZ, partition.AttnShardBatch},
	}
	const batch, gen, maxLen = 8, 5, 16
	for i := 0; i < 2*len(layouts); i++ {
		lay := layouts[i/2]
		cfg := tinyMQA()
		if i%2 == 1 {
			cfg = tinyMHA() // serial block, GELU, multihead
		}
		opts := Options{FFN: lay.ffn, Attn: lay.attn, Streamed: i%3 == 0}
		opts.Int8Weights = (i+i/2)%2 == 0 && lay.ffn != partition.FFNWeightGatheredXYZ
		if (i+1)%3 == 0 {
			opts.KVDType = model.Int8
		}
		name := fmt.Sprintf("%v-%v-%s-int8w=%v-kv=%v-streamed=%v", lay.ffn, lay.attn, cfg.Name,
			opts.Int8Weights, opts.KVDType, opts.Streamed)
		t.Run(name, func(t *testing.T) {
			w := reference.NewWeights(cfg, int64(200+i))
			ragged, err := New(w, torus222(), opts, batch, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			slots, err := New(w, torus222(), opts, batch, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			prompts := make([][]int, batch)
			for s := range prompts {
				for n := 2 + rng.Intn(5); n > 0; n-- {
					prompts[s] = append(prompts[s], rng.Intn(cfg.Vocab))
				}
			}
			fed := make([]int, batch)   // prompt tokens fed so far
			out := make([][]int, batch) // greedy tokens generated so far
			counts := make([]int, batch)
			for pass := 0; ; pass++ {
				// Draw the pass: a chunk of the rest of a prompt, the next
				// decode, or nothing.
				var toks []int
				done := true
				for s := range counts {
					counts[s] = 0
					switch rest := len(prompts[s]) - fed[s]; {
					case len(out[s]) == gen:
					case rng.Intn(4) == 0:
						done = false
					case rest > 0:
						counts[s] = 1 + rng.Intn(rest)
						toks = append(toks, prompts[s][fed[s]:fed[s]+counts[s]]...)
					default:
						counts[s] = 1
						toks = append(toks, out[s][len(out[s])-1])
					}
					done = done && counts[s] == 0
				}
				if done {
					break
				}
				got := step(t, ragged, nil, toks, counts)
				if got.Rows != len(toks) {
					t.Fatalf("pass %d: %d rows for %d tokens", pass, got.Rows, len(toks))
				}

				// The same slots through the slot calls: one PrefillSlot
				// per chunk, one DecodeSlotsInto for the decodes.
				last := make([]int, batch)
				active := make([]bool, batch)
				row := 0
				for s, n := range counts {
					if n > 0 && fed[s] < len(prompts[s]) {
						want := slots.PrefillSlot(s, prompts[s][fed[s]:fed[s]+n])
						sameRows(t, fmt.Sprintf("pass %d slot %d chunk", pass, s), got.Data[row*cfg.Vocab:(row+n)*cfg.Vocab], want.Data)
						fed[s] += n
						if fed[s] == len(prompts[s]) {
							out[s] = append(out[s], sampling.Greedy(got.Row(row+n-1)))
						}
					} else if n > 0 {
						active[s], last[s] = true, toks[row]
					}
					row += n
				}
				dec := slots.DecodeSlotsInto(nil, last, active)
				row = 0
				for s, n := range counts {
					want := dec.Row(s)
					if active[s] {
						sameRows(t, fmt.Sprintf("pass %d slot %d decode", pass, s), got.Row(row), want)
						out[s] = append(out[s], sampling.Greedy(got.Row(row)))
					} else {
						sameRows(t, fmt.Sprintf("pass %d idle slot %d", pass, s), make([]float32, cfg.Vocab), want)
					}
					row += n
				}
			}

			if opts.Int8Weights || opts.KVDType == model.Int8 {
				return
			}
			for s, p := range prompts {
				want := reference.New(w, 1, maxLen).Generate(p, len(p), gen)[0]
				for g := range want {
					if out[s][g] != want[g] {
						t.Fatalf("slot %d: tokens %v, batch-1 reference %v", s, out[s], want)
					}
				}
			}
		})
	}
}

// sameRows fails unless got and want hold the same float32 bits.
func sameRows(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for j, v := range want {
		if math.Float32bits(got[j]) != math.Float32bits(v) {
			t.Fatalf("%s: value %d is %g, want %g", what, j, got[j], v)
		}
	}
}
