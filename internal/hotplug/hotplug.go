// Package hotplug models the baremetal OS layer of the dReDBox software
// stack: Linux memory hotplug for arm64, which the project contributed
// upstream (paper §IV-A, ref. [12]).
//
// After the orchestrator physically attaches a remote memory segment and
// configures the TGL window, the kernel makes the new physical range
// usable by hot-adding memory blocks — expanding the page table pool and
// initializing struct pages — and then onlining each block. The model
// tracks the per-block state machine (absent → offline → online) and
// charges realistic latencies for each step, because those latencies are
// a visible component of the scale-up agility that Figure 10 measures.
package hotplug

import (
	"fmt"
	"slices"

	"repro/internal/brick"
	"repro/internal/sim"
)

// BlockState is the hotplug state of one memory block.
type BlockState int

const (
	// StateOffline means the block is hot-added (page tables and struct
	// pages exist) but its pages are not yet usable by the allocator.
	StateOffline BlockState = iota
	// StateOnline means the block's pages are in the buddy allocator.
	StateOnline
)

func (s BlockState) String() string {
	if s == StateOnline {
		return "online"
	}
	return "offline"
}

// Config holds the latency model and the section geometry.
type Config struct {
	// BlockSize is the hotplug granularity. arm64 with 4 KiB pages and
	// SECTION_SIZE_BITS=30 (the configuration of the project's kernel
	// patches) uses 1 GiB sections.
	BlockSize brick.Bytes
	// AddOverhead is the fixed cost of a hot-add operation: ACPI/device
	// tree notification plus page-table pool expansion.
	AddOverhead sim.Duration
	// InitPerGiB is the struct-page initialization cost per GiB added.
	InitPerGiB sim.Duration
	// OnlinePerBlock is the cost of onlining one block (zone rebuild,
	// buddy insertion, kswapd/watermark updates).
	OnlinePerBlock sim.Duration
	// OfflinePerBlock is the fixed cost of offlining one empty block.
	OfflinePerBlock sim.Duration
	// MigratePerGiB is the additional page-migration cost of offlining
	// populated (ZONE_MOVABLE) memory.
	MigratePerGiB sim.Duration
	// RemoveOverhead is the fixed cost of hot-remove.
	RemoveOverhead sim.Duration
}

// DefaultConfig reflects measurements of arm64 memory hotplug at the
// prototype's scale: tens of milliseconds per GiB, a few ms per block op.
var DefaultConfig = Config{
	BlockSize:       brick.GiB,
	AddOverhead:     2 * sim.Millisecond,
	InitPerGiB:      45 * sim.Millisecond,
	OnlinePerBlock:  6 * sim.Millisecond,
	OfflinePerBlock: 9 * sim.Millisecond,
	MigratePerGiB:   60 * sim.Millisecond,
	RemoveOverhead:  3 * sim.Millisecond,
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.BlockSize == 0 {
		return fmt.Errorf("hotplug: block size must be positive")
	}
	if c.AddOverhead < 0 || c.InitPerGiB < 0 || c.OnlinePerBlock < 0 ||
		c.OfflinePerBlock < 0 || c.MigratePerGiB < 0 || c.RemoveOverhead < 0 {
		return fmt.Errorf("hotplug: negative latency in config")
	}
	return nil
}

// Block is one hotplug block.
type Block struct {
	Base  uint64
	State BlockState
	// Populated is the live data resident on the block; offlining pays a
	// migration cost proportional to it.
	Populated brick.Bytes
	// Pinned marks unmovable allocations that block offlining entirely.
	Pinned bool
}

// inlineBlocks is how many blocks a kernel holds before its block
// slice moves to the heap: enough for a guest kernel's few hot-added
// DIMMs, so a VM's guest kernel lives entirely inside the VM object.
const inlineBlocks = 4

// Kernel is the hotplug state of one baremetal OS instance.
//
// The blocks live in one slice sorted by base address, stored by value.
// Every operation names a contiguous aligned range, which maps onto a
// contiguous run of the slice found by binary search, so hot-adding and
// removing memory allocates nothing once the slice has grown to the
// kernel's high-water mark. A Kernel points into itself and must not be
// copied after NewKernel or InitKernel.
type Kernel struct {
	cfg    Config
	blocks []Block // sorted by Base; backed by inline until it outgrows it
	inline [inlineBlocks]Block

	adds, removes, onlines, offlines uint64
}

// NewKernel returns a kernel with no hot-added memory.
func NewKernel(cfg Config) (*Kernel, error) {
	k := new(Kernel)
	if err := InitKernel(k, cfg); err != nil {
		return nil, err
	}
	return k, nil
}

// InitKernel resets k in place to a kernel with no hot-added memory —
// NewKernel for a Kernel embedded in a larger object, such as a VM's
// guest kernel.
func InitKernel(k *Kernel, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	*k = Kernel{cfg: cfg}
	k.blocks = k.inline[:0]
	return nil
}

// Config returns the kernel's hotplug configuration.
func (k *Kernel) Config() Config { return k.cfg }

func (k *Kernel) checkRange(base uint64, size brick.Bytes) (nblocks int, err error) {
	bs := uint64(k.cfg.BlockSize)
	if size == 0 {
		return 0, fmt.Errorf("hotplug: zero-size range")
	}
	if base%bs != 0 {
		return 0, fmt.Errorf("hotplug: base %#x not aligned to %v block", base, k.cfg.BlockSize)
	}
	if uint64(size)%bs != 0 {
		return 0, fmt.Errorf("hotplug: size %v not a multiple of %v block", size, k.cfg.BlockSize)
	}
	return int(uint64(size) / bs), nil
}

// search returns the index of the first block whose base is at least
// base.
func (k *Kernel) search(base uint64) int {
	i, j := 0, len(k.blocks)
	for i < j {
		h := int(uint(i+j) >> 1)
		if k.blocks[h].Base < base {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// block returns the block at base, or nil if none is present.
func (k *Kernel) block(base uint64) *Block {
	if i := k.search(base); i < len(k.blocks) && k.blocks[i].Base == base {
		return &k.blocks[i]
	}
	return nil
}

// run returns the index of the first of the n blocks of the range
// starting at base. It checks the blocks in address order and fails on
// the first one that is absent or in the refused state, reporting the
// latter with refusal (a format taking the block's base).
func (k *Kernel) run(base uint64, n int, verb string, refused BlockState, refusal string) (lo int, err error) {
	bs := uint64(k.cfg.BlockSize)
	lo = k.search(base)
	for j := 0; j < n; j++ {
		want := base + uint64(j)*bs
		if lo+j >= len(k.blocks) || k.blocks[lo+j].Base != want {
			return 0, fmt.Errorf("hotplug: %s of absent block %#x", verb, want)
		}
		if k.blocks[lo+j].State == refused {
			return 0, fmt.Errorf(refusal, want)
		}
	}
	return lo, nil
}

// HotAdd registers the physical range [base, base+size) with the kernel,
// leaving every block offline. It returns the virtual-time cost.
func (k *Kernel) HotAdd(base uint64, size brick.Bytes) (sim.Duration, error) {
	n, err := k.checkRange(base, size)
	if err != nil {
		return 0, err
	}
	bs := uint64(k.cfg.BlockSize)
	i := k.search(base)
	if i < len(k.blocks) && k.blocks[i].Base-base < uint64(size) {
		return 0, fmt.Errorf("hotplug: block at %#x already present", k.blocks[i].Base)
	}
	old := len(k.blocks)
	k.blocks = slices.Grow(k.blocks, n)[:old+n]
	copy(k.blocks[i+n:], k.blocks[i:old])
	for j := 0; j < n; j++ {
		k.blocks[i+j] = Block{Base: base + uint64(j)*bs, State: StateOffline}
	}
	k.adds++
	gib := float64(size) / float64(brick.GiB)
	return k.cfg.AddOverhead + sim.Duration(gib*float64(k.cfg.InitPerGiB)), nil
}

// Online brings every offline block in [base, base+size) online.
func (k *Kernel) Online(base uint64, size brick.Bytes) (sim.Duration, error) {
	n, err := k.checkRange(base, size)
	if err != nil {
		return 0, err
	}
	// Validate first: partial onlining on error would corrupt accounting.
	lo, err := k.run(base, n, "online", StateOnline, "hotplug: block %#x already online")
	if err != nil {
		return 0, err
	}
	run := k.blocks[lo : lo+n]
	for i := range run {
		run[i].State = StateOnline
	}
	k.onlines += uint64(n)
	return sim.Duration(n) * k.cfg.OnlinePerBlock, nil
}

// Offline takes every online block in [base, base+size) offline, the
// precondition for hot-remove during scale-down. Populated blocks pay a
// page-migration cost (their data moves elsewhere); pinned blocks refuse.
func (k *Kernel) Offline(base uint64, size brick.Bytes) (sim.Duration, error) {
	n, err := k.checkRange(base, size)
	if err != nil {
		return 0, err
	}
	lo, err := k.run(base, n, "offline", StateOffline, "hotplug: block %#x already offline")
	if err != nil {
		return 0, err
	}
	run := k.blocks[lo : lo+n]
	migrate, err := k.offlineMigrationCost(run)
	if err != nil {
		return 0, err
	}
	for i := range run {
		run[i].State = StateOffline
		run[i].Populated = 0 // pages migrated away
	}
	k.offlines += uint64(n)
	return sim.Duration(n)*k.cfg.OfflinePerBlock + migrate, nil
}

// HotRemove unregisters [base, base+size); every block must be offline.
func (k *Kernel) HotRemove(base uint64, size brick.Bytes) (sim.Duration, error) {
	n, err := k.checkRange(base, size)
	if err != nil {
		return 0, err
	}
	lo, err := k.run(base, n, "remove", StateOnline, "hotplug: remove of online block %#x (offline it first)")
	if err != nil {
		return 0, err
	}
	k.blocks = append(k.blocks[:lo], k.blocks[lo+n:]...)
	k.removes++
	return k.cfg.RemoveOverhead, nil
}

// ManagedBytes returns the total hot-added capacity (online + offline).
func (k *Kernel) ManagedBytes() brick.Bytes {
	return brick.Bytes(len(k.blocks)) * k.cfg.BlockSize
}

// OnlineBytes returns the capacity currently online.
func (k *Kernel) OnlineBytes() brick.Bytes {
	var n brick.Bytes
	for i := range k.blocks {
		if k.blocks[i].State == StateOnline {
			n += k.cfg.BlockSize
		}
	}
	return n
}

// Blocks returns all blocks sorted by base address (copies).
func (k *Kernel) Blocks() []Block {
	return append(make([]Block, 0, len(k.blocks)), k.blocks...)
}

// Stats returns cumulative operation counters.
func (k *Kernel) Stats() (adds, removes, onlines, offlines uint64) {
	return k.adds, k.removes, k.onlines, k.offlines
}
