package main

import (
	"fmt"

	"esti/internal/engine"
	"esti/internal/reference"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// oracle fills in every request's expected tokens by serving it alone: a
// fresh engine with the same Options and an empty, unlimited prefix store,
// one slot live, the whole prompt admitted at once. The first request of a
// template therefore runs cold and the rest attach what it left, so the
// timed run's batching, chunking, warmed store and evictions are all
// checked against a path that has none of them.
func (s spec) oracle(w *reference.Weights, reqs []request) error {
	eng, err := engine.New(w, s.torus, s.opts, s.slots, s.maxLen())
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if s.templates > 0 {
		eng.EnablePrefixCache(0)
	}
	last := make([]int, s.slots)
	active := make([]bool, s.slots)
	active[0] = true
	logits := tensor.New(s.slots, s.cfg.Vocab)
	for i := range reqs {
		r := &reqs[i]
		first, _ := eng.PrefillSlotCached(0, r.prompt, r.remember)
		r.expect = make([]int, r.out)
		r.expect[0] = sampling.Greedy(first.Row(first.Rows - 1))
		for g := 1; g < r.out; g++ {
			last[0] = r.expect[g-1]
			eng.DecodeSlotsInto(logits, last, active)
			r.expect[g] = sampling.Greedy(logits.Row(0))
		}
		eng.ReleaseSlot(0)
	}
	return nil
}

// checkReference replays every request through reference.Model, feeding it
// the expected tokens, and requires each expected token to be the
// reference's argmax or within tol (spec.refTolerance) of it.
func checkReference(w *reference.Weights, maxLen int, reqs []request, tol float64) error {
	for _, r := range reqs {
		m := reference.New(w, 1, maxLen)
		logits := m.Prefill(r.prompt, len(r.prompt))
		row := logits.Row(logits.Rows - 1)
		for g, tok := range r.expect {
			if g > 0 {
				row = m.Decode([]int{r.expect[g-1]}).Row(0)
			}
			best := row[sampling.Greedy(row)]
			scale := float64(best)
			if scale < 1 {
				scale = 1
			}
			if gap := float64(best - row[tok]); gap > tol*scale {
				return fmt.Errorf("request %d token %d: engine chose %d, %.3g below the reference's best logit %.3g",
					r.id, g, tok, gap, best)
			}
		}
	}
	return nil
}
