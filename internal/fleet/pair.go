package fleet

import (
	"fmt"

	"esti/internal/engine"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// EnginePair is the executable counterpart of the disaggregated simulation:
// a prefill engine and a decode engine coupled through the KV handoff path.
// Generate prefills the prompt on one engine, exports the slot's cache
// blocks (engine.ExportSlotKV), imports them into the other engine, and
// decodes there — the token stream is identical to one engine doing both
// phases itself, which TestEnginePairTokenExact asserts.
type EnginePair struct {
	Prefill *engine.Engine
	Decode  *engine.Engine
	// HandoffBytes accumulates the wire bytes of every KV snapshot moved
	// between the engines (a post-crash re-send counts again).
	HandoffBytes int
	// Failures counts injected decode-side failures survived
	// (GenerateWithFailure), RecoveredTokens the already-emitted tokens
	// replayed through decode steps to rebuild the lost KV.
	Failures        int
	RecoveredTokens int
}

// Generate runs one request through the pair: prefill `prompt` on
// prefillSlot, hand the KV to decodeSlot on the decode engine, and greedily
// decode until `gen` tokens exist (the first comes from the prefill
// engine's logits). Both slots are released before returning.
func (p *EnginePair) Generate(prefillSlot, decodeSlot int, prompt []int, gen int) ([]int, error) {
	if err := checkRequest(prompt, gen); err != nil {
		return nil, err
	}
	first, kv, err := p.handoff(prefillSlot, prompt)
	if err != nil {
		return nil, err
	}
	if err := p.Decode.ImportSlotKV(decodeSlot, kv); err != nil {
		return nil, err
	}
	out, err := p.decode(decodeSlot, append(make([]int, 0, gen), first), gen)
	p.Decode.ReleaseSlot(decodeSlot)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GenerateWithFailure runs one request through the pair with a decode-side
// failure injected: the decode replica dies after emitting failAfter decode
// tokens beyond the first (failAfter 0 = mid-handoff, before any decode
// step), losing its copy of the slot's KV. Recovery re-sends the retained
// prefill checkpoint (SlotKV snapshots are deep copies, so the export
// outlives the consumer), restores it into recoverSlot, replays the
// already-emitted tokens through decode steps to rebuild the generated
// positions' KV — greedy decoding makes the replay deterministic, and any
// divergence from the recorded stream is reported as an error — and then
// continues to gen tokens. The full stream is identical to a failure-free
// run, which TestEnginePairRecoveryTokenExact asserts in float and int8 KV
// modes.
func (p *EnginePair) GenerateWithFailure(prefillSlot, decodeSlot, recoverSlot int, prompt []int, gen, failAfter int) ([]int, error) {
	if err := checkRequest(prompt, gen); err != nil {
		return nil, err
	}
	if failAfter < 0 || failAfter >= gen-1 {
		return nil, fmt.Errorf("fleet: failAfter %d outside [0, gen-1)", failAfter)
	}
	first, ckpt, err := p.handoff(prefillSlot, prompt)
	if err != nil {
		return nil, err
	}

	// First attempt: the decode replica imports the KV, produces failAfter
	// tokens, then crashes — its cache copy is gone.
	if err := p.Decode.ImportSlotKV(decodeSlot, ckpt); err != nil {
		return nil, err
	}
	out, err := p.decode(decodeSlot, append(make([]int, 0, gen), first), 1+failAfter)
	p.Decode.ReleaseSlot(decodeSlot)
	if err != nil {
		return nil, err
	}
	p.Failures++

	// Recovery: re-send the checkpoint, restore it into a fresh slot, and
	// replay the tokens emitted so far to rebuild their KV positions.
	p.HandoffBytes += ckpt.Bytes()
	if err := p.Decode.RestoreSlotKV(recoverSlot, ckpt); err != nil {
		return nil, err
	}
	replay, err := p.decode(recoverSlot, []int{first}, len(out))
	if err != nil {
		return nil, err
	}
	p.RecoveredTokens += len(replay) - 1
	for i := 1; i < len(out); i++ {
		if replay[i] != out[i] {
			return nil, fmt.Errorf("fleet: recovery replay diverged at token %d: got %d, recorded %d", i, replay[i], out[i])
		}
	}
	out, err = p.decode(recoverSlot, out, gen)
	p.Decode.ReleaseSlot(recoverSlot)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkRequest rejects a request the pair cannot serve.
func checkRequest(prompt []int, gen int) error {
	if gen < 1 {
		return fmt.Errorf("fleet: gen %d < 1", gen)
	}
	if len(prompt) == 0 {
		return fmt.Errorf("fleet: empty prompt")
	}
	return nil
}

// slotCounts is the counts of a pass that feeds n tokens to slot alone.
func slotCounts(e *engine.Engine, slot, n int) ([]int, error) {
	if slot < 0 || slot >= e.Batch() {
		return nil, fmt.Errorf("fleet: slot %d out of batch %d", slot, e.Batch())
	}
	counts := make([]int, e.Batch())
	counts[slot] = n
	return counts, nil
}

// handoff prefills prompt on prefillSlot and exports the slot's KV,
// releasing the slot and charging the export to HandoffBytes. It returns the
// first token, from the prefill logits, and the export: a deep copy, which
// a failed decode replica's recovery can re-send.
func (p *EnginePair) handoff(prefillSlot int, prompt []int) (int, *engine.SlotKV, error) {
	counts, err := slotCounts(p.Prefill, prefillSlot, len(prompt))
	if err != nil {
		return 0, nil, err
	}
	logits, err := p.Prefill.Step(nil, prompt, counts)
	if err != nil {
		return 0, nil, err
	}
	first := sampling.Greedy(logits.Row(logits.Rows - 1))
	kv, err := p.Prefill.ExportSlotKV(prefillSlot)
	if err != nil {
		return 0, nil, err
	}
	p.Prefill.ReleaseSlot(prefillSlot)
	p.HandoffBytes += kv.Bytes()
	return first, kv, nil
}

// decode runs greedy decode steps on slot alone, each feeding the last
// token of out and appending the argmax, until out holds n tokens.
func (p *EnginePair) decode(slot int, out []int, n int) ([]int, error) {
	counts, err := slotCounts(p.Decode, slot, 1)
	if err != nil {
		return nil, err
	}
	var lg *tensor.Mat
	for len(out) < n {
		if lg, err = p.Decode.Step(lg, out[len(out)-1:], counts); err != nil {
			return nil, err
		}
		out = append(out, sampling.Greedy(lg.Row(0)))
	}
	return out, nil
}
