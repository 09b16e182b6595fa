package scaleup

import (
	"testing"

	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestMigratePreservesMemoryLayout(t *testing.T) {
	c := testController(t)
	c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 2, Memory: 2 * brick.GiB})
	c.SDM().PowerOnAll()
	c.ScaleUp(0, "vm1", 4*brick.GiB)
	c.ScaleUp(0, "vm1", 2*brick.GiB)
	src, _ := c.VMHost("vm1")
	before, _ := c.VM("vm1")

	res, err := c.Migrate(sim.Time(sim.Hour), "vm1")
	if err != nil {
		t.Fatal(err)
	}
	if res.From != src || res.To == src {
		t.Fatalf("migration %v -> %v (src %v)", res.From, res.To, src)
	}
	dst, _ := c.VMHost("vm1")
	if dst != res.To {
		t.Fatal("vmHost not updated")
	}
	vm, ok := c.VM("vm1")
	if !ok {
		t.Fatal("VM lost in migration")
	}
	if vm.TotalMemory() != 8*brick.GiB {
		t.Fatalf("memory = %v after migration, want 8GiB", vm.TotalMemory())
	}
	if vm != before {
		t.Fatal("migration replaced the VM object instead of moving it")
	}
	// Attachments re-homed to the destination brick.
	for _, att := range c.SDM().Attachments("vm1") {
		if att.CPU != res.To {
			t.Fatalf("attachment still on %v", att.CPU)
		}
	}
	// The VM keeps working: scale up again on the new host.
	if _, err := c.ScaleUp(sim.Time(2*sim.Hour), "vm1", brick.GiB); err != nil {
		t.Fatalf("scale-up after migration: %v", err)
	}
	// And the old host's hypervisor no longer accepts the VM.
	if _, _, err := c.nodeAt(src).hv.AttachDIMM(vm, brick.GiB); err == nil {
		t.Fatal("VM still hosted by the source hypervisor")
	}
}

func TestMigrateDowntimeIndependentOfRemoteMemory(t *testing.T) {
	// The disaggregated migration win: downtime tracks local state, not
	// total memory. A VM with 16 GiB remote should migrate in about the
	// same downtime as one with 2 GiB remote, while the full-copy
	// baseline grows with total memory.
	delays := map[string]MigrationResult{}
	for name, remote := range map[string]brick.Bytes{"small": 2 * brick.GiB, "big": 16 * brick.GiB} {
		c := testController(t)
		c.CreateVM(0, "vm", hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB})
		c.SDM().PowerOnAll()
		for attached := brick.Bytes(0); attached < remote; attached += 2 * brick.GiB {
			if _, err := c.ScaleUp(0, "vm", 2*brick.GiB); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Migrate(sim.Time(sim.Hour), "vm")
		if err != nil {
			t.Fatal(err)
		}
		delays[name] = res
	}
	small, big := delays["small"], delays["big"]
	if big.FullCopyBaseline <= small.FullCopyBaseline {
		t.Fatal("full-copy baseline did not grow with memory")
	}
	// Downtime grows only via per-segment control work (ms-scale), never
	// via data volume: the big VM's downtime must stay well under its
	// full-copy baseline while the small VM's may not even benefit.
	if big.Downtime >= big.FullCopyBaseline {
		t.Fatalf("big VM downtime %v not below full copy %v", big.Downtime, big.FullCopyBaseline)
	}
	if big.LocalCopy != small.LocalCopy {
		t.Fatal("local copy should depend only on boot memory")
	}
}

func TestMigrateDataPathWorksAfterMove(t *testing.T) {
	c := testController(t)
	c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB})
	c.SDM().PowerOnAll()
	c.ScaleUp(0, "vm1", 2*brick.GiB)
	att := c.SDM().Attachments("vm1")[0]
	segBrick := att.Segment.Brick
	segOffset := att.Segment.Offset

	if _, err := c.Migrate(sim.Time(sim.Hour), "vm1"); err != nil {
		t.Fatal(err)
	}
	att = c.SDM().Attachments("vm1")[0]
	// Segment identity unchanged: the data never moved.
	if att.Segment.Brick != segBrick || att.Segment.Offset != segOffset {
		t.Fatal("segment moved during migration")
	}
	// Translation works through the new window on the new brick.
	node, _ := c.SDM().Compute(att.CPU)
	route, err := node.Agent.Glue.TranslateRange(att.Window.Base+4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	if route.Remote.Brick != segBrick || route.Remote.Offset != uint64(segOffset)+4096 {
		t.Fatalf("route = %+v", route)
	}
	_ = mem.OpRead // datapath exercised end-to-end in core tests
}

func TestMigrateErrors(t *testing.T) {
	c := testController(t)
	if _, err := c.Migrate(0, "ghost"); err == nil {
		t.Fatal("migration of absent VM succeeded")
	}
	c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB})
	src, _ := c.VMHost("vm1")
	// Exhaust every other compute brick so no destination exists.
	for _, b := range c.SDM().Attachments("none") {
		_ = b
	}
	filled := 0
	for i := 0; ; i++ {
		id := hypervisor.VMID(rune('A' + i))
		host, _, err := c.CreateVM(0, id, hypervisor.VMSpec{VCPUs: 8, Memory: brick.GiB})
		if err != nil {
			break
		}
		if host != src {
			filled++
		}
	}
	if _, err := c.Migrate(0, "vm1"); err == nil {
		t.Fatal("migration with no destination capacity succeeded")
	}
	// A stopped VM cannot migrate.
	host, _ := c.VMHost("vm1")
	vm, _ := c.VM("vm1")
	c.nodeAt(host).hv.Stop(vm)
	if _, err := c.Migrate(0, "vm1"); err == nil {
		t.Fatal("migration of stopped VM succeeded")
	}
}

func TestEvictAdoptSemantics(t *testing.T) {
	hv, _ := hypervisor.New(hypervisor.DefaultConfig)
	if err := hv.Evict(new(hypervisor.VM)); err == nil {
		t.Fatal("evict of absent VM succeeded")
	}
	vm := new(hypervisor.VM)
	if _, err := hv.Spawn(vm, "vm", hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB}); err != nil {
		t.Fatal(err)
	}
	if err := hv.Evict(vm); err != nil {
		t.Fatalf("evict = %v", err)
	}
	if err := hv.Stop(vm); err == nil {
		t.Fatal("VM present after evict")
	}
	hv2, _ := hypervisor.New(hypervisor.DefaultConfig)
	if err := hv2.Adopt(nil); err == nil {
		t.Fatal("adopt of nil succeeded")
	}
	if err := hv2.Adopt(vm); err != nil {
		t.Fatal(err)
	}
	if err := hv2.Adopt(vm); err == nil {
		t.Fatal("double adopt succeeded")
	}
	if _, _, err := hv2.AttachDIMM(vm, brick.GiB); err != nil {
		t.Fatalf("VM absent after adopt: %v", err)
	}
}
