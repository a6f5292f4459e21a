package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// serially, then split into 1–4 parts whatever its size, some draws more
// than the pass has rows, and the draws must put a part boundary inside a
// chunk.
func TestSplitWalkBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const maxLen = 64
	cuts, over := 0, 0 // part boundaries drawn inside a slot's chunk; draws past the rows
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

		// The pass's own walk appends the K/V rows; the serial walk of the
		// same rows is the reference.
		w.appendAndAttendInto(tensor.New(rows, q.Cols), q, 0, counts, shardActs(rng, rows, width), shardActs(rng, rows, width))
		want := tensor.New(rows, q.Cols)
		w.out = want
		w.split(1)
		parts := 1 + rng.Intn(4)
		w.out = tensor.New(rows, q.Cols)
		w.split(parts)
		sameShardBits(t, "split walk", w.out, want)
		cuts += chunkCuts(w)
		if parts > rows && rows > 0 {
			over++
		}
		if t.Failed() {
			t.Fatalf("case %d: g %d, dh %d, %d KV heads, int8 %v, counts %v, %d parts", c, g, dh, kvHeads, int8KV, counts, parts)
		}
	}
	if cuts == 0 {
		t.Fatal("no part started inside a slot's chunk")
	}
	if over == 0 {
		t.Fatal("no draw asked for more parts than the pass has rows")
	}
}

// chunkCuts counts the part boundaries of w's last split that fall
// strictly inside a slot's rows [off[i], off[i+1]).
func chunkCuts(w *walk) int {
	n := 0
	for _, b := range w.first[1 : len(w.first)-1] {
		for i := 0; i+1 < len(w.off); i++ {
			if w.off[i] < b && b < w.off[i+1] {
				n++
			}
		}
	}
	return n
}

// rowPositions is how many positions each of the pass's rows walks: row t
// of a chunk from depth p walks p + t + 1.
func rowPositions(w *walk) []int {
	var n []int
	for i, p := range w.depth {
		for t := 0; t < w.off[i+1]-w.off[i]; t++ {
			n = append(n, p+t+1)
		}
	}
	return n
}

// A split walk cuts its rows where the positions they walk even out, not
// where the rows do: a cold 1,024-row chunk's two parts, whose later rows
// walk up to 1,024 positions against its first's one, differ by at most
// one row's positions (cut equal in rows they walked 1:3), and so do the
// parts of a chunk behind a cached prefix and of a decode batch of unequal
// depths. Every row is walked by exactly one part, the part its middle
// position falls in when the positions are cut into two halves.
func TestSplitWalkEvensPositions(t *testing.T) {
	const dh = 4
	for _, c := range []struct {
		name         string
		past, counts []int
	}{
		{"cold 1,024-row chunk", []int{0}, []int{1024}},
		{"64 rows behind 512", []int{512}, []int{64}},
		{"decodes at unequal depths", []int{900, 10, 30, 300, 5, 700, 60, 2}, []int{1, 1, 1, 1, 1, 1, 1, 1}},
	} {
		rng := rand.New(rand.NewSource(47))
		rows, maxLen := 0, 0
		for s := range c.counts {
			rows += c.counts[s]
			maxLen = max(maxLen, c.past[s]+c.counts[s])
		}
		cache := kvcache.New(1, len(c.counts), maxLen, dh)
		for s, p := range c.past {
			if p > 0 {
				cache.AppendSeq(0, s, shardActs(rng, p, dh), shardActs(rng, p, dh), p)
				cache.AdvanceSeq(s, p)
			}
		}
		w := newWalk(cache, 1, dh)
		w.appendAndAttendInto(tensor.New(rows, dh), shardActs(rng, rows, dh), 0, c.counts, shardActs(rng, rows, dh), shardActs(rng, rows, dh))
		w.split(2)
		if len(w.first) != 3 || w.first[0] != 0 || w.first[2] != rows {
			t.Errorf("%s: part bounds %v, want [0 b %d]", c.name, w.first, rows)
			continue
		}
		half := (w.positions + 1) / 2
		walked, longest, before := [2]int{}, 0, 0
		for r, n := range rowPositions(w) {
			part := 0
			if r >= w.first[1] {
				part = 1
			}
			if mid := 2*before + n; (mid >= 2*half) != (part == 1) {
				t.Errorf("%s: row %d, middle position %g, walks in part %d; the parts cut at %d", c.name, r, float64(mid)/2, part, half)
			}
			walked[part] += n
			longest = max(longest, n)
			before += n
		}
		if d := walked[0] - walked[1]; d > longest || -d > longest {
			t.Errorf("%s: parts walk %d and %d positions, want within one row's (at most %d)", c.name, walked[0], walked[1], longest)
		}
		if walked[0]+walked[1] != w.positions {
			t.Errorf("%s: parts walk %d positions in all, the pass %d", c.name, walked[0]+walked[1], w.positions)
		}
	}
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

// A long-context admission and decode, whose walks split in two across the
// pool at GOMAXPROCS 2 — an admission's tail rows cut between the parts —
// yield the same logits, bit for bit, and so the same greedy tokens as at
// GOMAXPROCS 1, where every walk is serial.
func TestSplitWalkGreedyLongContext(t *testing.T) {
	noLeaks(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const gen = 6
	run := func(procs int) ([]int, []float32, []float32) {
		runtime.GOMAXPROCS(procs)
		e, last, admitted := longContextEngine(t)
		if p := walkParts(e); p != procs {
			t.Fatalf("GOMAXPROCS %d: the last admission walked in %d parts", procs, p)
		}
		var toks []int
		var logits []float32
		dst := new(tensor.Mat)
		for i := 0; i < gen; i++ {
			e.DecodeSlotsInto(dst, last, nil)
			if p := walkParts(e); p != procs {
				t.Fatalf("GOMAXPROCS %d: decode %d walked in %d parts", procs, i, p)
			}
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
			t.Fatalf("admission logit %d is %g split, %g serial", i, gotAdmitted[i], wantAdmitted[i])
		}
	}
	for i := range wantToks {
		if gotToks[i] != wantToks[i] {
			t.Fatalf("token %d (step %d, slot %d) is %d split, %d serial", i, i/4, i%4, gotToks[i], wantToks[i])
		}
	}
	for i := range wantLogits {
		if math.Float32bits(gotLogits[i]) != math.Float32bits(wantLogits[i]) {
			t.Fatalf("logit %d is %g split, %g serial", i, gotLogits[i], wantLogits[i])
		}
	}
}

// BenchmarkWalkSplit times one attention walk in bench/'s one-chip geometry
// (one KV head, eight query heads of 32), float and int8 KV, in one part,
// in the caller, and in two, whatever its size. The shapes are a decode of
// eight slots at a range of cached depths, one slot's 4–16-row tail over a
// 1,024-token document (an admission behind a cached prefix), and one
// slot's cold 32–1,024-row chunk (a prompt or a template prefilled from
// nothing). Each line reports the walk's multiply-adds as walkMinFlops
// counts them, so where split starts to beat serial is the walk's
// break-even.
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
			// Each slot's add causal rows over past positions walk
			// add·past + add(add+1)/2, a score and a weigh per head dim.
			madds := 2 * sh.slots * (sh.add*sh.past + sh.add*(sh.add+1)/2) * g * dh
			for _, mode := range []struct {
				name  string
				parts int
			}{{"serial", 1}, {"split", 2}} {
				b.Run(fmt.Sprintf("%s/%s/%s", kind, sh.name, mode.name), func(b *testing.B) {
					w.split(mode.parts) // size every part's scratch
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						w.split(mode.parts)
					}
					b.ReportMetric(float64(madds), "madds")
				})
			}
		}
	}
}
