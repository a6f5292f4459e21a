package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"esti/internal/hardware"
	"esti/internal/kvcache"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// The attention walk split over the pool is bit-identical to the serial
// walk: each slot's walk is the same arithmetic whichever part runs it, in
// whichever part's scratch. Generated shards mix query heads per KV head
// (g of 1, 8 and 16: the one-head path and the heads-in-lanes path), head
// dims that are not multiples of 8, float and int8 storage, a shared prefix
// attached to some slots and counts mixing idle slots, decodes and prefill
// chunks; each is walked serially, then split across 1–3 workers whatever
// its size.
func TestSplitWalkBitIdentical(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	rng := rand.New(rand.NewSource(45))
	const maxLen = 64
	for c := 0; c < 60; c++ {
		g := []int{1, 8, 16}[rng.Intn(3)]
		dh := []int{4, 8, 12, 20, 32}[rng.Intn(5)]
		kvHeads, int8KV, slots := 1+rng.Intn(2), rng.Intn(2) == 1, 2+rng.Intn(5)
		width := kvHeads * dh
		cache, store := kvcache.New(1, slots, maxLen, width), kvcache.NewPrefixStore(1, width, 0)
		if int8KV {
			cache, store = kvcache.NewInt8(1, slots, maxLen, width), kvcache.NewPrefixStoreInt8(1, width, 0)
		}
		pl := 1 + rng.Intn(24)
		pfx, err := store.Insert(make([]int, pl),
			[]*tensor.Mat{shardActs(rng, pl, width)}, []*tensor.Mat{shardActs(rng, pl, width)})
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, slots)
		for s := range counts {
			if rng.Intn(3) == 0 {
				if err := cache.AttachPrefix(s, pfx.Block(0)); err != nil {
					t.Fatal(err)
				}
			}
			if past := rng.Intn(16); past > 0 {
				cache.AppendSeq(0, s, shardActs(rng, past, width), shardActs(rng, past, width), past)
				cache.AdvanceSeq(s, past)
			}
			counts[s] = []int{0, 1, 2 + rng.Intn(12)}[rng.Intn(3)]
		}
		rows := 0
		for _, n := range counts {
			rows += n
		}
		q := shardActs(rng, rows, kvHeads*g*dh)
		w := newWalk(cache, g, dh)

		tensor.SetWorkers(1)
		want := w.appendAndAttendInto(tensor.New(rows, q.Cols), q, 0, counts, shardActs(rng, rows, width), shardActs(rng, rows, width))
		for workers := 1; workers <= 3; workers++ {
			tensor.SetWorkers(workers)
			w.out = tensor.New(rows, q.Cols)
			tensor.Split(&w, len(w.slots), 0, 0)
			sameShardBits(t, "split walk", w.out, want)
		}
		if t.Failed() {
			t.Fatalf("case %d: g %d, dh %d, %d KV heads, int8 %v, counts %v", c, g, dh, kvHeads, int8KV, counts)
		}
	}
}

// longContextEngine is a one-chip engine shaped like bench/'s
// longctx_int8kv (int8 weights and KV, multiquery, eight heads of 32) at two
// layers, with every slot attached to one cached 1,024-token document plus a
// short suffix of its own: a decode walks about 1,030 positions per slot, so
// the walk clears the pool's split threshold. It returns the engine and each
// slot's first greedy token.
func longContextEngine(t *testing.T) (*Engine, []int) {
	t.Helper()
	cfg := model.Config{
		Name: "longctx", Layers: 2, DModel: 256, DFF: 1024,
		Heads: 8, HeadDim: 32, KVHeads: 1, Attn: model.Multiquery,
		FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 256,
	}
	const batch, doc, maxLen = 4, 1024, 1152
	e, err := New(reference.NewWeights(cfg, 13), hardware.Torus{X: 1, Y: 1, Z: 1}, Options{
		FFN: partition.FFN1DWeightStationary, Attn: partition.AttnShardHeads,
		Int8Weights: true, KVDType: model.Int8,
	}, batch, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	e.EnablePrefixCache(0)
	prompt := make([]int, doc+8)
	for i := range prompt {
		prompt[i] = (i*29 + 7) % cfg.Vocab
	}
	e.PrefillSlot(0, prompt[:doc])
	if err := e.CachePrefix(0, prompt[:doc]); err != nil {
		t.Fatal(err)
	}
	e.ReleaseSlot(0)
	last := make([]int, batch)
	for s := range last {
		for i := doc; i < len(prompt); i++ {
			prompt[i] = (i*s + 3*s + 1) % cfg.Vocab
		}
		logits, cached := e.PrefillSlotCached(s, prompt[:doc+1+s], 0)
		if cached != doc {
			t.Fatalf("slot %d: %d prompt tokens from the cache, want %d", s, cached, doc)
		}
		last[s] = sampling.Greedy(logits.Row(logits.Rows - 1))
	}
	return e, last
}

// A long-context decode, whose walk splits across the pool under two
// workers, yields the same logits, bit for bit, and so the same greedy
// tokens as under one worker.
func TestSplitWalkGreedyLongContext(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	const gen = 6
	run := func(workers int) ([]int, []float32) {
		tensor.SetWorkers(workers)
		e, last := longContextEngine(t)
		var toks []int
		var logits []float32
		dst := new(tensor.Mat)
		for i := 0; i < gen; i++ {
			e.DecodeSlotsInto(dst, last, nil)
			logits = append(logits, dst.Data...)
			for s := range last {
				last[s] = sampling.Greedy(dst.Row(s))
				toks = append(toks, last[s])
			}
		}
		return toks, logits
	}
	wantToks, wantLogits := run(1)
	gotToks, gotLogits := run(2)
	for i := range wantToks {
		if gotToks[i] != wantToks[i] {
			t.Fatalf("token %d (step %d, slot %d) is %d under two workers, %d under one", i, i/4, i%4, gotToks[i], wantToks[i])
		}
	}
	for i := range wantLogits {
		if math.Float32bits(gotLogits[i]) != math.Float32bits(wantLogits[i]) {
			t.Fatalf("logit %d is %g under two workers, %g under one", i, gotLogits[i], wantLogits[i])
		}
	}
}

// BenchmarkWalkSplit times one decode walk of eight slots in bench/'s
// one-chip geometry (one KV head, eight query heads of 32) at a range of
// cached depths, float and int8 KV, run serially in the caller and split
// across two workers whatever its size. Each line reports the walk's
// multiply-add count as appendAndAttendInto counts it, so where split starts
// to beat serial is the walk's break-even: walkMinFlops.
func BenchmarkWalkSplit(b *testing.B) {
	const slots, g, dh = 8, 8, 32
	for _, int8KV := range []bool{false, true} {
		for _, depth := range []int{16, 32, 64, 96, 128, 256, 1024} {
			rng := rand.New(rand.NewSource(int64(depth)))
			cache, kind := kvcache.New(1, slots, depth, dh), "f32"
			if int8KV {
				cache, kind = kvcache.NewInt8(1, slots, depth, dh), "int8"
			}
			counts := make([]int, slots)
			for s := range counts {
				if past := depth - 1; past > 0 {
					cache.AppendSeq(0, s, shardActs(rng, past, dh), shardActs(rng, past, dh), past)
					cache.AdvanceSeq(s, past)
				}
				counts[s] = 1
			}
			q := shardActs(rng, slots, g*dh)
			w := newWalk(cache, g, dh)
			w.appendAndAttendInto(tensor.New(slots, q.Cols), q, 0, counts, shardActs(rng, slots, dh), shardActs(rng, slots, dh))
			flops := 2 * slots * depth * g * dh
			for _, mode := range []struct {
				name    string
				workers int
			}{{"serial", 1}, {"split", 2}} {
				b.Run(fmt.Sprintf("%s/depth=%d/%s", kind, depth, mode.name), func(b *testing.B) {
					defer tensor.SetWorkers(tensor.SetWorkers(mode.workers))
					tensor.Split(&w, slots, 0, 0) // size every part's scratch
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						tensor.Split(&w, slots, 0, 0)
					}
					b.ReportMetric(float64(flops), "madds")
				})
			}
		}
	}
}
