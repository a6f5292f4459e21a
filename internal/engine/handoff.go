package engine

// Slot KV handoff between engine replicas — the executable core of
// disaggregated prefill/decode serving (the deployment §4/Table 2 sizes
// analytically and internal/fleet simulates): a prefill replica fills a
// slot's KV cache, ExportSlotKV snapshots that slot's state across the
// mesh, the blocks travel over the interconnect, and ImportSlotKV installs
// them into a free slot on a decode replica, which then continues the
// sequence with DecodeSlots exactly as if it had prefilled the prompt
// itself. Blocks are exported in the cache's native storage format (raw
// int8 values + scales under an int8 KVDType), so the handoff is bit-exact and the
// decode replica's tokens are identical to a single-replica run.

import (
	"fmt"

	"esti/internal/kvcache"
)

// SlotKV is one slot's KV state snapshotted across the mesh: the owner
// chip's single block when attention is batch-sharded (the slot lives on
// one chip), or one block per chip when head-sharded (each chip holds its
// head-column shard of every position). It is self-contained — the source
// slot may be released immediately after export.
type SlotKV struct {
	batchSharded bool
	blocks       []*kvcache.KVBlock
}

// Len is the number of cached positions the snapshot carries.
func (kv *SlotKV) Len() int { return kv.blocks[0].Len }

// Bytes is the total wire footprint of the handoff: the sum of every
// chip-block's K+V backing bytes. Under batch sharding this is one shard's
// bytes; under head sharding the per-chip head columns sum to the full KV
// width per position (multiquery replication makes it n× — the Figure 4(b)
// pathology, now visible as handoff traffic).
func (kv *SlotKV) Bytes() int {
	total := 0
	for _, b := range kv.blocks {
		total += b.Bytes()
	}
	return total
}

// ExportSlotKV deep-copies slot's cached positions — any attached shared
// prefix included — into a SlotKV that another replica with the same model,
// mesh geometry, attention sharding, and KV storage mode can import.
// Exporting an empty slot is an error.
func (e *Engine) ExportSlotKV(slot int) (*SlotKV, error) {
	e.checkSlot(slot)
	owner, local := e.slotOwner(slot)
	if owner >= 0 {
		b, err := e.chips[owner].cache.ExportSeq(local)
		if err != nil {
			return nil, err
		}
		return &SlotKV{batchSharded: true, blocks: []*kvcache.KVBlock{b}}, nil
	}
	blocks := make([]*kvcache.KVBlock, len(e.chips))
	for r, st := range e.chips {
		b, err := st.cache.ExportSeq(local)
		if err != nil {
			return nil, err
		}
		blocks[r] = b
	}
	return &SlotKV{blocks: blocks}, nil
}

// ImportSlotKV installs an exported snapshot into the empty slot, after
// which DecodeSlots continues the sequence token-exactly. The receiving
// session must shard attention the same way (batch- vs head-sharded KV),
// span the same number of chips when head-sharded, and match the blocks'
// storage mode, layer count, and per-chip KV width — re-sharding KV between
// different layouts is a transform this engine does not perform. On error
// the slot is left empty on every chip.
func (e *Engine) ImportSlotKV(slot int, kv *SlotKV) error {
	e.checkSlot(slot)
	if kv == nil || len(kv.blocks) == 0 {
		return fmt.Errorf("engine: import of empty slot snapshot")
	}
	if kv.batchSharded != e.batchShardedCache() {
		return fmt.Errorf("engine: snapshot from a %s cache into a %s session (cross-layout KV handoff is not supported)",
			shardingName(kv.batchSharded), shardingName(e.batchShardedCache()))
	}
	owner, local := e.slotOwner(slot)
	if owner >= 0 {
		return e.chips[owner].cache.ImportSeq(local, kv.blocks[0])
	}
	if len(kv.blocks) != len(e.chips) {
		return fmt.Errorf("engine: snapshot spans %d chips, session has %d", len(kv.blocks), len(e.chips))
	}
	for r, st := range e.chips {
		if err := st.cache.ImportSeq(local, kv.blocks[r]); err != nil {
			for rr := 0; rr < r; rr++ {
				e.chips[rr].cache.ResetSeq(local)
			}
			return err
		}
	}
	return nil
}

// RestoreSlotKV reinstalls a snapshot into a slot regardless of what the
// slot currently holds: the crash-recovery form of ImportSlotKV. The slot
// is released first (stale KV zeroed, any attached shared prefix detached),
// then the snapshot imports as usual. Because exported blocks are deep
// copies, the same SlotKV can be imported once for the normal handoff and
// again after the consumer dies — the checkpoint outlives the replica.
func (e *Engine) RestoreSlotKV(slot int, kv *SlotKV) error {
	e.checkSlot(slot)
	e.ReleaseSlot(slot)
	return e.ImportSlotKV(slot, kv)
}

func shardingName(batchSharded bool) string {
	if batchSharded {
		return "batch-sharded"
	}
	return "head-sharded"
}
