package hotplug

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/brick"
	"repro/internal/sim"
)

// refKernel is the map-of-*Block kernel the sorted-slice Kernel
// replaced, kept as a reference model: one heap Block per hot-added
// block, looked up block by block. TestKernelMatchesReference drives
// both through the same random operations.
type refKernel struct {
	cfg    Config
	blocks map[uint64]*Block

	adds, removes, onlines, offlines uint64
}

func newRefKernel(cfg Config) *refKernel {
	return &refKernel{cfg: cfg, blocks: make(map[uint64]*Block)}
}

func (k *refKernel) checkRange(base uint64, size brick.Bytes) (int, error) {
	return (&Kernel{cfg: k.cfg}).checkRange(base, size)
}

func (k *refKernel) HotAdd(base uint64, size brick.Bytes) (sim.Duration, error) {
	n, err := k.checkRange(base, size)
	if err != nil {
		return 0, err
	}
	bs := uint64(k.cfg.BlockSize)
	for i := 0; i < n; i++ {
		if _, dup := k.blocks[base+uint64(i)*bs]; dup {
			return 0, fmt.Errorf("hotplug: block at %#x already present", base+uint64(i)*bs)
		}
	}
	for i := 0; i < n; i++ {
		b := base + uint64(i)*bs
		k.blocks[b] = &Block{Base: b, State: StateOffline}
	}
	k.adds++
	gib := float64(size) / float64(brick.GiB)
	return k.cfg.AddOverhead + sim.Duration(gib*float64(k.cfg.InitPerGiB)), nil
}

func (k *refKernel) Online(base uint64, size brick.Bytes) (sim.Duration, error) {
	n, err := k.checkRange(base, size)
	if err != nil {
		return 0, err
	}
	bs := uint64(k.cfg.BlockSize)
	for i := 0; i < n; i++ {
		blk, ok := k.blocks[base+uint64(i)*bs]
		if !ok {
			return 0, fmt.Errorf("hotplug: online of absent block %#x", base+uint64(i)*bs)
		}
		if blk.State == StateOnline {
			return 0, fmt.Errorf("hotplug: block %#x already online", blk.Base)
		}
	}
	for i := 0; i < n; i++ {
		k.blocks[base+uint64(i)*bs].State = StateOnline
	}
	k.onlines += uint64(n)
	return sim.Duration(n) * k.cfg.OnlinePerBlock, nil
}

func (k *refKernel) Offline(base uint64, size brick.Bytes) (sim.Duration, error) {
	n, err := k.checkRange(base, size)
	if err != nil {
		return 0, err
	}
	bs := uint64(k.cfg.BlockSize)
	for i := 0; i < n; i++ {
		blk, ok := k.blocks[base+uint64(i)*bs]
		if !ok {
			return 0, fmt.Errorf("hotplug: offline of absent block %#x", base+uint64(i)*bs)
		}
		if blk.State == StateOffline {
			return 0, fmt.Errorf("hotplug: block %#x already offline", blk.Base)
		}
	}
	var populated brick.Bytes
	for i := 0; i < n; i++ {
		blk := k.blocks[base+uint64(i)*bs]
		if blk.Pinned {
			return 0, fmt.Errorf("hotplug: block %#x holds pinned pages; offline impossible", blk.Base)
		}
		populated += blk.Populated
	}
	migrate := sim.Duration(float64(populated) / float64(brick.GiB) * float64(k.cfg.MigratePerGiB))
	for i := 0; i < n; i++ {
		blk := k.blocks[base+uint64(i)*bs]
		blk.State = StateOffline
		blk.Populated = 0
	}
	k.offlines += uint64(n)
	return sim.Duration(n)*k.cfg.OfflinePerBlock + migrate, nil
}

func (k *refKernel) HotRemove(base uint64, size brick.Bytes) (sim.Duration, error) {
	n, err := k.checkRange(base, size)
	if err != nil {
		return 0, err
	}
	bs := uint64(k.cfg.BlockSize)
	for i := 0; i < n; i++ {
		blk, ok := k.blocks[base+uint64(i)*bs]
		if !ok {
			return 0, fmt.Errorf("hotplug: remove of absent block %#x", base+uint64(i)*bs)
		}
		if blk.State == StateOnline {
			return 0, fmt.Errorf("hotplug: remove of online block %#x (offline it first)", blk.Base)
		}
	}
	for i := 0; i < n; i++ {
		delete(k.blocks, base+uint64(i)*bs)
	}
	k.removes++
	return k.cfg.RemoveOverhead, nil
}

func (k *refKernel) PopulateBlock(base uint64, bytes brick.Bytes) error {
	blk, ok := k.blocks[base]
	if !ok {
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

func (k *refKernel) DepopulateBlock(base uint64, bytes brick.Bytes) error {
	blk, ok := k.blocks[base]
	if !ok {
		return fmt.Errorf("hotplug: depopulate of absent block %#x", base)
	}
	if bytes > blk.Populated {
		return fmt.Errorf("hotplug: depopulating %v with only %v populated", bytes, blk.Populated)
	}
	blk.Populated -= bytes
	return nil
}

func (k *refKernel) PinBlock(base uint64) error {
	blk, ok := k.blocks[base]
	if !ok {
		return fmt.Errorf("hotplug: pin of absent block %#x", base)
	}
	if blk.State != StateOnline {
		return fmt.Errorf("hotplug: pin of offline block %#x", base)
	}
	blk.Pinned = true
	return nil
}

func (k *refKernel) UnpinBlock(base uint64) error {
	blk, ok := k.blocks[base]
	if !ok {
		return fmt.Errorf("hotplug: unpin of absent block %#x", base)
	}
	if !blk.Pinned {
		return fmt.Errorf("hotplug: block %#x is not pinned", base)
	}
	blk.Pinned = false
	return nil
}

func (k *refKernel) Blocks() []Block {
	out := make([]Block, 0, len(k.blocks))
	for _, b := range k.blocks {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

func (k *refKernel) Stats() (adds, removes, onlines, offlines uint64) {
	return k.adds, k.removes, k.onlines, k.offlines
}

func (k *refKernel) bytes() (managed, online, populated brick.Bytes) {
	for _, b := range k.blocks {
		managed += k.cfg.BlockSize
		if b.State == StateOnline {
			online += k.cfg.BlockSize
		}
		populated += b.Populated
	}
	return managed, online, populated
}

// TestKernelMatchesReference drives the sorted-slice Kernel and the
// map-of-*Block reference with the same seeded random operations —
// overlapping, partially present, misaligned and zero-size ranges
// included — and requires identical errors, latencies, blocks, byte
// totals and counters after every step. The address space is small
// enough that the kernels repeatedly fill past their inline blocks and
// drain again.
func TestKernelMatchesReference(t *testing.T) {
	const (
		steps  = 10000
		blocks = 24 // address space, in blocks
	)
	gib := uint64(brick.GiB)
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRand(seed)
			got := newKernel(t)
			want := newRefKernel(DefaultConfig)
			for step := 0; step < steps; step++ {
				base := uint64(rng.Intn(blocks)) * gib
				size := brick.Bytes(rng.IntBetween(1, 6)) * brick.GiB
				switch rng.Intn(40) {
				case 0:
					base += gib / 2 // misaligned
				case 1:
					size = 0
				case 2:
					size += brick.GiB / 4 // not a block multiple
				}
				bytes := brick.Bytes(rng.Intn(5)) * brick.GiB / 4
				var op string
				var gotLat, wantLat sim.Duration
				var gotErr, wantErr error
				switch rng.Intn(10) {
				case 0, 1:
					op = "HotAdd"
					gotLat, gotErr = got.HotAdd(base, size)
					wantLat, wantErr = want.HotAdd(base, size)
				case 2, 3:
					op = "Online"
					gotLat, gotErr = got.Online(base, size)
					wantLat, wantErr = want.Online(base, size)
				case 4:
					op = "Offline"
					gotLat, gotErr = got.Offline(base, size)
					wantLat, wantErr = want.Offline(base, size)
				case 5:
					op = "HotRemove"
					gotLat, gotErr = got.HotRemove(base, size)
					wantLat, wantErr = want.HotRemove(base, size)
				case 6, 7:
					op = "PopulateBlock"
					gotErr, wantErr = got.PopulateBlock(base, bytes), want.PopulateBlock(base, bytes)
				case 8:
					op = "DepopulateBlock"
					gotErr, wantErr = got.DepopulateBlock(base, bytes), want.DepopulateBlock(base, bytes)
				default:
					if rng.Intn(2) == 0 {
						op = "PinBlock"
						gotErr, wantErr = got.PinBlock(base), want.PinBlock(base)
					} else {
						op = "UnpinBlock"
						gotErr, wantErr = got.UnpinBlock(base), want.UnpinBlock(base)
					}
				}
				where := fmt.Sprintf("step %d: %s(%#x, %v)", step, op, base, size)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: error %v, reference %v", where, gotErr, wantErr)
				}
				if gotLat != wantLat {
					t.Fatalf("%s: latency %v, reference %v", where, gotLat, wantLat)
				}
				if g, w := got.Blocks(), want.Blocks(); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: blocks\n%+v\nreference\n%+v", where, g, w)
				}
				ga, gr, gon, goff := got.Stats()
				wa, wr, won, woff := want.Stats()
				if ga != wa || gr != wr || gon != won || goff != woff {
					t.Fatalf("%s: stats %d/%d/%d/%d, reference %d/%d/%d/%d", where, ga, gr, gon, goff, wa, wr, won, woff)
				}
				managed, online, populated := want.bytes()
				if got.ManagedBytes() != managed || got.OnlineBytes() != online || got.PopulatedBytes() != populated {
					t.Fatalf("%s: managed/online/populated %v/%v/%v, reference %v/%v/%v", where,
						got.ManagedBytes(), got.OnlineBytes(), got.PopulatedBytes(), managed, online, populated)
				}
			}
		})
	}
}

// TestKernelHotplugAllocFree pins the layout's point: once the block
// slice has grown to its high-water mark, a hot-add, online, offline,
// remove cycle allocates nothing, and a kernel within its inline blocks
// never allocates at all.
func TestKernelHotplugAllocFree(t *testing.T) {
	k := newKernel(t)
	cycle := func(base uint64, size brick.Bytes) {
		if _, err := k.HotAdd(base, size); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Online(base, size); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Offline(base, size); err != nil {
			t.Fatal(err)
		}
		if _, err := k.HotRemove(base, size); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { cycle(0, inlineBlocks*brick.GiB) }); n != 0 {
		t.Fatalf("inline cycle allocates %.1f/op, want 0", n)
	}
	// Grow past the inline blocks, then cycle below the high-water mark.
	if _, err := k.HotAdd(0, 4*inlineBlocks*brick.GiB); err != nil {
		t.Fatal(err)
	}
	if _, err := k.HotRemove(0, 4*inlineBlocks*brick.GiB); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { cycle(uint64(3*brick.GiB), 2*inlineBlocks*brick.GiB) }); n != 0 {
		t.Fatalf("warmed cycle allocates %.1f/op, want 0", n)
	}
}
