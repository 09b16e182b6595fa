package scaleup

import (
	"testing"

	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/optical"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/topo"
)

func testController(t *testing.T) *Controller {
	t.Helper()
	rack, err := topo.Build(topo.BuildSpec{
		Trays: 2, ComputePerTray: 2, MemoryPerTray: 2, PortsPerBrick: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := optical.NewSwitch(optical.PolatisNextGen) // 96 ports for 64 brick ports
	if err != nil {
		t.Fatal(err)
	}
	fabric := optical.NewFabric(sw)
	sdmc, err := sdm.NewController(rack, fabric, sdm.BrickConfigs{
		Compute: brick.ComputeConfig{Cores: 8, LocalMemory: 16 * brick.GiB},
		Memory:  brick.MemoryConfig{Capacity: 64 * brick.GiB},
	}, sdm.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(sdmc, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// nodeAt returns the software stack of a compute brick that hosts or
// hosted a VM.
func (c *Controller) nodeAt(id topo.BrickID) *node { return c.nodes[c.sdmc.ComputeOrdinal(id)] }

func TestCreateVM(t *testing.T) {
	c := testController(t)
	host, res, err := c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 2, Memory: 2 * brick.GiB})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.VM("vm1"); !ok {
		t.Fatal("VM not registered")
	}
	if got, ok := c.VMHost("vm1"); !ok || got != host {
		t.Fatal("VMHost mismatch")
	}
	// Creation pays VM spawn time: tens of seconds.
	if res.Delay() < 30*sim.Second {
		t.Fatalf("creation delay %v implausibly low", res.Delay())
	}
	if _, _, err := c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB}); err == nil {
		t.Fatal("duplicate VM accepted")
	}
}

func TestScaleUpEndToEnd(t *testing.T) {
	c := testController(t)
	c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 2, Memory: 2 * brick.GiB})
	// Warm rack: bricks powered, SDM queue idle again.
	c.SDM().PowerOnAll()
	res, err := c.ScaleUp(sim.Time(10*sim.Minute), "vm1", 2*brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	// The VM sees the memory.
	vm, _ := c.VM("vm1")
	if vm.TotalMemory() != 4*brick.GiB {
		t.Fatalf("VM memory = %v after scale-up", vm.TotalMemory())
	}
	// Delay decomposition: all three phases present, total consistent.
	if res.Orchestration <= 0 || res.Baremetal <= 0 || res.Virtual <= 0 {
		t.Fatalf("decomposition %+v has empty phase", res)
	}
	if res.Delay() < res.Orchestration {
		t.Fatal("delay smaller than orchestration component")
	}
	// Scale-up must be orders of magnitude faster than VM spawn: this is
	// the paper's headline agility claim.
	if res.Delay() > 2*sim.Second {
		t.Fatalf("scale-up delay %v too slow", res.Delay())
	}
	// The SDM side attached exactly one segment for the VM.
	if got := len(c.SDM().Attachments("vm1")); got != 1 {
		t.Fatalf("attachments = %d", got)
	}
}

func TestScaleUpValidation(t *testing.T) {
	c := testController(t)
	if _, err := c.ScaleUp(0, "ghost", brick.GiB); err == nil {
		t.Fatal("scale-up of absent VM succeeded")
	}
	c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB})
	if _, err := c.ScaleUp(0, "vm1", 0); err == nil {
		t.Fatal("zero-size scale-up succeeded")
	}
}

func TestScaleDownReleasesEverything(t *testing.T) {
	c := testController(t)
	c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 1, Memory: 2 * brick.GiB})
	c.ScaleUp(0, "vm1", 2*brick.GiB)
	res, err := c.ScaleDown(1000, "vm1", 2*brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay() <= 0 {
		t.Fatal("scale-down delay not positive")
	}
	vm, _ := c.VM("vm1")
	if vm.TotalMemory() != 2*brick.GiB {
		t.Fatalf("VM memory = %v after scale-down", vm.TotalMemory())
	}
	if got := len(c.SDM().Attachments("vm1")); got != 0 {
		t.Fatalf("attachments = %d after scale-down", got)
	}
	ups, downs := c.Stats()
	if ups != 1 || downs != 1 {
		t.Fatalf("stats = %d/%d", ups, downs)
	}
	if _, err := c.ScaleDown(0, "vm1", brick.GiB); err == nil {
		t.Fatal("scale-down with nothing attached succeeded")
	}
	if _, err := c.ScaleDown(0, "ghost", brick.GiB); err == nil {
		t.Fatal("scale-down of absent VM succeeded")
	}
}

// TestScaleDownRefusesOversizeRelease: with the balloon holding most of
// the guest, releasing a DIMM larger than the available memory must be
// refused before any layer moves — available-size must not wrap around
// and slip past the usage pre-check.
func TestScaleDownRefusesOversizeRelease(t *testing.T) {
	c := testController(t)
	host, _, err := c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 1, Memory: 2 * brick.GiB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleUp(0, "vm1", brick.GiB); err != nil {
		t.Fatal(err)
	}
	vm, _ := c.VM("vm1")
	if _, err := c.nodeAt(host).hv.BalloonInflate(vm, 5*brick.GiB/2); err != nil {
		t.Fatal(err)
	}
	vm.SetUsage(brick.GiB / 4)
	managed := c.nodeAt(host).kernel.ManagedBytes()
	if _, err := c.ScaleDown(0, "vm1", brick.GiB); err == nil {
		t.Fatalf("scale-down of 1 GiB with %v available succeeded", vm.AvailableMemory())
	}
	if vm.TotalMemory() != 3*brick.GiB || c.Bindings("vm1") != 1 || c.nodeAt(host).kernel.ManagedBytes() != managed {
		t.Fatalf("refused scale-down moved state: total %v, bindings %d, baremetal %v (was %v)",
			vm.TotalMemory(), c.Bindings("vm1"), c.nodeAt(host).kernel.ManagedBytes(), managed)
	}
	if got := len(c.SDM().Attachments("vm1")); got != 1 {
		t.Fatalf("attachments = %d after refused scale-down", got)
	}
}

func TestConcurrentScaleUpsQueueAtSDM(t *testing.T) {
	c := testController(t)
	for i, id := range []hypervisor.VMID{"a", "b", "c"} {
		if _, _, err := c.CreateVM(sim.Time(i), id, hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB}); err != nil {
			t.Fatal(err)
		}
	}
	// Creations already used the queue; record its horizon by issuing at
	// a much later time so the queue is idle again.
	base := sim.Time(10 * sim.Minute)
	r1, err := c.ScaleUp(base, "a", brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.ScaleUp(base, "b", brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := c.ScaleUp(base, "c", brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Queueing() >= r2.Queueing() || r2.Queueing() >= r3.Queueing() {
		t.Fatalf("queueing not increasing: %v, %v, %v", r1.Queueing(), r2.Queueing(), r3.Queueing())
	}
	if r3.Delay() <= r1.Delay() {
		t.Fatal("concurrency did not increase observed delay")
	}
}

func TestScaleUpStillBeatsScaleOutUnderConcurrency(t *testing.T) {
	c := testController(t)
	const n = 8
	for i := 0; i < n; i++ {
		id := hypervisor.VMID(rune('a' + i))
		if _, _, err := c.CreateVM(0, id, hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB}); err != nil {
			t.Fatal(err)
		}
	}
	base := sim.Time(10 * sim.Minute)
	var worst sim.Duration
	for i := 0; i < n; i++ {
		id := hypervisor.VMID(rune('a' + i))
		r, err := c.ScaleUp(base, id, brick.GiB)
		if err != nil {
			t.Fatal(err)
		}
		if r.Delay() > worst {
			worst = r.Delay()
		}
	}
	// Even the worst queued scale-up beats a single VM spawn.
	spawn := DefaultConfig.Hypervisor.SpawnBase
	if worst >= spawn {
		t.Fatalf("worst scale-up %v not faster than spawn %v", worst, spawn)
	}
}

func TestScaleOutBaseline(t *testing.T) {
	c := testController(t)
	res, err := c.ScaleOutBaseline(0, "extra", hypervisor.VMSpec{VCPUs: 1, Memory: 4 * brick.GiB})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay() < 30*sim.Second {
		t.Fatalf("scale-out delay %v missing spawn cost", res.Delay())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig
	bad.APIOverhead = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative API overhead accepted")
	}
}
