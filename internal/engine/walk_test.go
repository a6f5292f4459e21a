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
// walk: each query row's walk is the same arithmetic whichever part runs it,
// in whichever part's scratch, and wherever its range cuts its slot's chunk.
// Generated shards mix query heads per KV head (g of 1, 8 and 16: the
// one-head path and the heads-in-lanes path), head dims that are not
// multiples of 8, float and int8 storage, a shared prefix attached to some
// slots and counts mixing idle slots, decodes and prefill chunks; every
// fourth shard is one slot with a chunk, behind the prefix on every other
// one, so the split has more parts than the shard has slots. Each is walked
// serially, then split across 1–3 workers whatever its size, and the draws
// must put a range boundary inside a chunk.
func TestSplitWalkBitIdentical(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	rng := rand.New(rand.NewSource(45))
	const maxLen = 64
	cuts := 0 // range boundaries drawn inside a slot's chunk
	for c := 0; c < 80; c++ {
		g := []int{1, 8, 16}[rng.Intn(3)]
		dh := []int{4, 8, 12, 20, 32}[rng.Intn(5)]
		kvHeads, int8KV, slots := 1+rng.Intn(2), rng.Intn(2) == 1, 2+rng.Intn(5)
		oneSlot := c%4 == 0
		if oneSlot {
			slots = 1
		}
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
			if rng.Intn(3) == 0 || oneSlot && c%8 == 0 {
				if err := cache.AttachPrefix(s, pfx.Block(0)); err != nil {
					t.Fatal(err)
				}
			}
			if past := rng.Intn(16); past > 0 {
				cache.AppendSeq(0, s, shardActs(rng, past, width), shardActs(rng, past, width), past)
				cache.AdvanceSeq(s, past)
			}
			counts[s] = []int{0, 1, 2 + rng.Intn(12)}[rng.Intn(3)]
			if oneSlot {
				counts[s] = 2 + rng.Intn(12)
			}
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
			w.split(0)
			sameShardBits(t, "split walk", w.out, want)
			if workers > 1 && rows > 1 {
				cuts += chunkCuts(w.off, (rows+workers-1)/workers)
			}
		}
		if t.Failed() {
			t.Fatalf("case %d: g %d, dh %d, %d KV heads, int8 %v, counts %v", c, g, dh, kvHeads, int8KV, counts)
		}
	}
	if cuts == 0 {
		t.Fatal("no split range started inside a slot's chunk")
	}
}

// chunkCuts counts the boundaries of a split into ranges of size rows that
// fall strictly inside a slot's rows [off[i], off[i+1]).
func chunkCuts(off []int, size int) int {
	n := 0
	for i := 0; i+1 < len(off); i++ {
		for b := size; b < off[len(off)-1]; b += size {
			if off[i] < b && b < off[i+1] {
				n++
			}
		}
	}
	return n
}

// longContextEngine is a one-chip engine shaped like bench/'s
// longctx_int8kv (int8 weights and KV, multiquery, eight heads of 32) at two
// layers, with every slot attached to one cached 1,024-token document plus a
// short suffix of its own: a decode walks about 1,030 positions per slot, so
// the walk clears the pool's split threshold, and so does each admission's
// 1–4-row tail over the document. It returns the engine, each slot's first
// greedy token and the admissions' logits, slot after slot.
func longContextEngine(t *testing.T) (*Engine, []int, []float32) {
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
	var admitted []float32
	for s := range last {
		for i := doc; i < len(prompt); i++ {
			prompt[i] = (i*s + 3*s + 1) % cfg.Vocab
		}
		logits, cached := e.PrefillSlotCached(s, prompt[:doc+1+s], 0)
		if cached != doc {
			t.Fatalf("slot %d: %d prompt tokens from the cache, want %d", s, cached, doc)
		}
		last[s] = sampling.Greedy(logits.Row(logits.Rows - 1))
		admitted = append(admitted, logits.Data...)
	}
	return e, last, admitted
}

// A long-context admission and decode, whose walks split across the pool
// under two workers — an admission's tail rows cut between the parts —
// yield the same logits, bit for bit, and so the same greedy tokens as
// under one worker.
func TestSplitWalkGreedyLongContext(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	const gen = 6
	run := func(workers int) ([]int, []float32, []float32) {
		tensor.SetWorkers(workers)
		e, last, admitted := longContextEngine(t)
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
		return toks, admitted, logits
	}
	wantToks, wantAdmitted, wantLogits := run(1)
	gotToks, gotAdmitted, gotLogits := run(2)
	for i := range wantAdmitted {
		if math.Float32bits(gotAdmitted[i]) != math.Float32bits(wantAdmitted[i]) {
			t.Fatalf("admission logit %d is %g under two workers, %g under one", i, gotAdmitted[i], wantAdmitted[i])
		}
	}
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

// BenchmarkWalkSplit times one attention walk in bench/'s one-chip geometry
// (one KV head, eight query heads of 32), float and int8 KV, run serially
// in the caller and split by rows across two workers whatever its size. The
// shapes are a decode of eight slots at a range of cached depths, one
// slot's 4–16-row tail over a 1,024-token document (an admission behind a
// cached prefix), and one slot's cold 32–1,024-row chunk (a prompt or a
// template prefilled from nothing). Each line reports the walk's
// multiply-add count as appendAndAttendInto counts it, so where split
// starts to beat serial is the walk's break-even: walkMinFlops.
func BenchmarkWalkSplit(b *testing.B) {
	const g, dh = 8, 32
	type shape struct {
		name             string
		slots, past, add int // add rows per slot onto past cached positions
	}
	var shapes []shape
	for _, depth := range []int{16, 32, 64, 96, 128, 256, 1024} {
		shapes = append(shapes, shape{fmt.Sprintf("depth=%d", depth), 8, depth - 1, 1})
	}
	for _, rows := range []int{4, 8, 16} {
		shapes = append(shapes, shape{fmt.Sprintf("tail=%d", rows), 1, 1024, rows})
	}
	for _, rows := range []int{32, 48, 64, 128, 256, 512, 1024} {
		shapes = append(shapes, shape{fmt.Sprintf("cold=%d", rows), 1, 0, rows})
	}
	for _, int8KV := range []bool{false, true} {
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(int64(sh.past + sh.add)))
			maxLen := sh.past + sh.add
			cache, kind := kvcache.New(1, sh.slots, maxLen, dh), "f32"
			if int8KV {
				cache, kind = kvcache.NewInt8(1, sh.slots, maxLen, dh), "int8"
			}
			counts := make([]int, sh.slots)
			for s := range counts {
				if sh.past > 0 {
					cache.AppendSeq(0, s, shardActs(rng, sh.past, dh), shardActs(rng, sh.past, dh), sh.past)
					cache.AdvanceSeq(s, sh.past)
				}
				counts[s] = sh.add
			}
			rows := sh.slots * sh.add
			q := shardActs(rng, rows, g*dh)
			w := newWalk(cache, g, dh)
			w.appendAndAttendInto(tensor.New(rows, q.Cols), q, 0, counts, shardActs(rng, rows, dh), shardActs(rng, rows, dh))
			for _, mode := range []struct {
				name    string
				workers int
			}{{"serial", 1}, {"split", 2}} {
				b.Run(fmt.Sprintf("%s/%s/%s", kind, sh.name, mode.name), func(b *testing.B) {
					defer tensor.SetWorkers(tensor.SetWorkers(mode.workers))
					w.split(0) // size every part's scratch
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						w.split(0)
					}
					b.ReportMetric(float64(w.madds), "madds")
				})
			}
		}
	}
}
