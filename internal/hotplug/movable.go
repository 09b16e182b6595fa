package hotplug

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
)

// Linux places hotplugged memory in ZONE_MOVABLE precisely so it can be
// removed again: offlining a block must migrate its live pages away, and
// a single pinned (unmovable) page blocks removal forever. This file
// models that behaviour: blocks track how many bytes are populated and
// whether something pinned them; Offline pays a per-byte migration cost
// and refuses pinned blocks.

// PopulateBlock records that the allocator placed live data on the block
// at base. Population is capped at the block size.
func (k *Kernel) PopulateBlock(base uint64, bytes brick.Bytes) error {
	blk := k.block(base)
	if blk == nil {
		return fmt.Errorf("hotplug: populate of absent block %#x", base)
	}
	if blk.State != StateOnline {
		return fmt.Errorf("hotplug: populate of offline block %#x", base)
	}
	if blk.Populated+bytes > k.cfg.BlockSize {
		return fmt.Errorf("hotplug: populating %v would exceed block size %v (already %v)",
			bytes, k.cfg.BlockSize, blk.Populated)
	}
	blk.Populated += bytes
	return nil
}

// DepopulateBlock records that data was freed from the block.
func (k *Kernel) DepopulateBlock(base uint64, bytes brick.Bytes) error {
	blk := k.block(base)
	if blk == nil {
		return fmt.Errorf("hotplug: depopulate of absent block %#x", base)
	}
	if bytes > blk.Populated {
		return fmt.Errorf("hotplug: depopulating %v with only %v populated", bytes, blk.Populated)
	}
	blk.Populated -= bytes
	return nil
}

// PinBlock marks the block as holding unmovable allocations (e.g. a
// long-lived DMA buffer). A pinned block cannot be offlined until
// UnpinBlock — the failure mode ZONE_MOVABLE exists to prevent.
func (k *Kernel) PinBlock(base uint64) error {
	blk := k.block(base)
	if blk == nil {
		return fmt.Errorf("hotplug: pin of absent block %#x", base)
	}
	if blk.State != StateOnline {
		return fmt.Errorf("hotplug: pin of offline block %#x", base)
	}
	blk.Pinned = true
	return nil
}

// UnpinBlock clears the pin.
func (k *Kernel) UnpinBlock(base uint64) error {
	blk := k.block(base)
	if blk == nil {
		return fmt.Errorf("hotplug: unpin of absent block %#x", base)
	}
	if !blk.Pinned {
		return fmt.Errorf("hotplug: block %#x is not pinned", base)
	}
	blk.Pinned = false
	return nil
}

// PopulatedBytes returns the total live data across online blocks.
func (k *Kernel) PopulatedBytes() brick.Bytes {
	var n brick.Bytes
	for i := range k.blocks {
		n += k.blocks[i].Populated
	}
	return n
}

// offlineMigrationCost returns the page-migration cost of vacating the
// populated bytes of a run of blocks, or an error if any block is
// pinned.
func (k *Kernel) offlineMigrationCost(run []Block) (sim.Duration, error) {
	var populated brick.Bytes
	for i := range run {
		if run[i].Pinned {
			return 0, fmt.Errorf("hotplug: block %#x holds pinned pages; offline impossible", run[i].Base)
		}
		populated += run[i].Populated
	}
	gib := float64(populated) / float64(brick.GiB)
	return sim.Duration(gib * float64(k.cfg.MigratePerGiB)), nil
}
