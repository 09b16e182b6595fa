package scaleup

import (
	"testing"

	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// TestEvictVMIgnoresWorkingSet: teardown of a VM whose working set
// needs its remote memory still succeeds — the VM is going away and the
// SDM teardown behind EvictVM has already committed — while ScaleDown
// keeps refusing the same release.
func TestEvictVMIgnoresWorkingSet(t *testing.T) {
	c := testController(t)
	c.SDM().PowerOnAll()
	if _, _, err := c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleUp(0, "vm1", 2*brick.GiB); err != nil {
		t.Fatal(err)
	}
	vm, _ := c.Lookup("vm1")
	vm.SetUsage(2 * brick.GiB)
	if _, err := c.ScaleDown(0, "vm1", 2*brick.GiB); err == nil {
		t.Fatal("scale-down below the working set succeeded")
	}

	req, _, ok := c.EvictRequest(vm, nil)
	if !ok || len(req.Atts) != 1 {
		t.Fatalf("evict request = %+v, %v", req, ok)
	}
	for _, att := range req.Atts {
		if _, err := c.SDM().DetachRemoteMemory(att); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SDM().ReleaseCompute(req.CPU, req.VCPUs, req.LocalMem); err != nil {
		t.Fatal(err)
	}
	res, err := c.EvictVM(sim.Time(sim.Hour), vm, 0)
	if err != nil {
		t.Fatalf("teardown below the working set: %v", err)
	}
	if res.Size != 3*brick.GiB || res.Virtual <= 0 || res.Baremetal <= 0 {
		t.Fatalf("teardown result %+v", res)
	}
	if _, ok := c.Lookup("vm1"); ok {
		t.Fatal("VM still registered after teardown")
	}
	if vm.AvailableMemory() > vm.TotalMemory() {
		t.Fatalf("available %v exceeds total %v after teardown", vm.AvailableMemory(), vm.TotalMemory())
	}
}

// TestHandleMethodsRefuseForeignVMs: the handle-taking entry points
// refuse a handle from another rack's controller and a stale handle of
// a retired VM — even once its ID is reused — without touching either
// controller; a duplicate ID is refused here, before the hypervisor
// spawns anything.
func TestHandleMethodsRefuseForeignVMs(t *testing.T) {
	a, b := testController(t), testController(t)
	spec := hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB}
	for _, c := range []*Controller{a, b} {
		if _, _, err := c.CreateVM(0, "vm1", spec); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(t *testing.T, c *Controller, vm *VM) {
		t.Helper()
		if _, err := c.Bind(0, vm, nil, 0); err == nil {
			t.Error("Bind accepted the handle")
		}
		if _, _, ok := c.EvictRequest(vm, nil); ok {
			t.Error("EvictRequest accepted the handle")
		}
		if _, err := c.EvictVM(0, vm, 0); err == nil {
			t.Error("EvictVM accepted the handle")
		}
		if err := c.DiscardVM(vm); err == nil {
			t.Error("DiscardVM accepted the handle")
		}
		other := a
		if c == a {
			other = b
		}
		if _, err := c.MigrateTo(0, vm, other, nil); err == nil {
			t.Error("MigrateTo accepted the handle")
		}
	}

	foreign, _ := b.Lookup("vm1")
	own, _ := a.Lookup("vm1")
	refused(t, a, foreign)
	refused(t, a, nil)
	if got, ok := b.Lookup("vm1"); !ok || got != foreign || foreign.State() != hypervisor.StateRunning {
		t.Fatal("refused calls disturbed the foreign VM")
	}
	if got, ok := a.Lookup("vm1"); !ok || got != own {
		t.Fatal("refused calls disturbed the local VM of the same ID")
	}

	if err := a.DiscardVM(own); err != nil {
		t.Fatal(err)
	}
	refused(t, a, own)
	if _, _, err := a.CreateVM(0, "vm1", spec); err != nil {
		t.Fatal(err)
	}
	refused(t, a, own)
	fresh, ok := a.Lookup("vm1")
	if !ok || fresh == own {
		t.Fatal("stale handle disturbed the VM that reused its ID")
	}

	host, _ := a.VMHost("vm1")
	if _, _, err := a.AdoptVM(0, "vm1", spec, host, 0); err == nil {
		t.Fatal("duplicate VM ID adopted")
	}
	if got, _ := a.Lookup("vm1"); got != fresh {
		t.Fatal("refused adoption replaced the registered VM")
	}
}

// TestAppendVMsListsInIDOrder: the controller's VM listing is sorted by
// ID and appends after whatever dst already holds.
func TestAppendVMsListsInIDOrder(t *testing.T) {
	c := testController(t)
	for _, id := range []hypervisor.VMID{"c", "a", "b"} {
		if _, _, err := c.CreateVM(0, id, hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB}); err != nil {
			t.Fatal(err)
		}
	}
	got := c.AppendVMs([]*VM{nil})
	if len(got) != 4 || got[0] != nil || got[1].ID != "a" || got[2].ID != "b" || got[3].ID != "c" {
		t.Fatalf("AppendVMs = %v", got)
	}
}

// TestLiveListAfterEvictAndMigrate: evicting a VM from the middle of a
// controller's live list and migrating another to a second controller
// keeps both lists exact — every lookup, host query, listing and
// duplicate refusal agrees on both sides, and the handles of the
// evicted and the emigrated VM are refused where they no longer live.
func TestLiveListAfterEvictAndMigrate(t *testing.T) {
	a, b := testController(t), testController(t)
	spec := hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB}
	handles := map[hypervisor.VMID]*VM{}
	create := func(c *Controller, id hypervisor.VMID) {
		t.Helper()
		if _, _, err := c.CreateVM(0, id, spec); err != nil {
			t.Fatal(err)
		}
		handles[id], _ = c.Lookup(id)
	}
	for _, id := range []hypervisor.VMID{"vm1", "vm2", "vm3", "vm4"} {
		create(a, id)
	}
	create(b, "b1")

	// Evict vm2, the second of four: the last VM moves into its slot.
	gone := handles["vm2"]
	req, _, ok := a.EvictRequest(gone, nil)
	if !ok {
		t.Fatal("EvictRequest refused a live VM")
	}
	if err := a.SDM().ReleaseCompute(req.CPU, req.VCPUs, req.LocalMem); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EvictVM(0, gone, 0); err != nil {
		t.Fatal(err)
	}
	moved := handles["vm3"]
	res, err := a.MigrateTo(0, moved, b, nil)
	if err != nil {
		t.Fatal(err)
	}

	expect := func(c *Controller, name string, ids ...hypervisor.VMID) {
		t.Helper()
		for i, vm := range c.live {
			if vm.slot != i {
				t.Fatalf("%s: VM %q in slot %d records slot %d", name, vm.ID, i, vm.slot)
			}
		}
		got := c.AppendVMs(nil)
		if len(got) != len(ids) {
			t.Fatalf("%s: AppendVMs lists %d VMs, want %v", name, len(got), ids)
		}
		for i, id := range ids {
			vm, ok := c.Lookup(id)
			if !ok || vm != handles[id] || got[i] != vm {
				t.Fatalf("%s: VM %q: Lookup = %p, %v; listed %p; want %p", name, id, vm, ok, got[i], handles[id])
			}
			if host, ok := c.VMHost(id); !ok || host != vm.host {
				t.Fatalf("%s: VMHost(%q) = %v, %v; want %v", name, id, host, ok, vm.host)
			}
			if _, _, err := c.CreateVM(0, id, spec); err == nil {
				t.Fatalf("%s: duplicate CreateVM of %q accepted", name, id)
			}
		}
	}
	expect(a, "source", "vm1", "vm4")
	expect(b, "destination", "b1", "vm3")
	if host, _ := b.VMHost("vm3"); host != res.To {
		t.Fatalf("migrated VM hosted on %v, migration reported %v", host, res.To)
	}
	for _, id := range []hypervisor.VMID{"vm2", "vm3"} {
		if _, ok := a.Lookup(id); ok {
			t.Fatalf("source still finds %q", id)
		}
		if _, ok := a.VMHost(id); ok {
			t.Fatalf("source still hosts %q", id)
		}
	}
	for _, stale := range []*VM{gone, moved} {
		if _, _, ok := a.EvictRequest(stale, nil); ok {
			t.Fatalf("source accepted the stale handle of %q", stale.ID)
		}
		if _, err := a.EvictVM(0, stale, 0); err == nil {
			t.Fatalf("source evicted the stale handle of %q", stale.ID)
		}
	}
	if _, err := b.EvictVM(0, gone, 0); err == nil {
		t.Fatal("destination evicted the retired VM's handle")
	}
	expect(a, "source after refusals", "vm1", "vm4")
	expect(b, "destination after refusals", "b1", "vm3")

	// The names freed on the source are free again there.
	create(a, "vm2")
	create(a, "vm3")
	expect(a, "source after reuse", "vm1", "vm2", "vm3", "vm4")
}

// TestAdoptIntoRetiredRecord: a record EvictVM retired — after its VM
// outgrew the inline DIMM and binding slots, set a working set and
// inflated its balloon — boots a new VM in place that shows only its
// own spec, and works like a fresh one. A record still live is refused
// on its own controller and on another, leaving both untouched.
func TestAdoptIntoRetiredRecord(t *testing.T) {
	c, other := testController(t), testController(t)
	c.SDM().PowerOnAll()
	spec := hypervisor.VMSpec{VCPUs: 2, Memory: 2 * brick.GiB}
	adopt := func(c *Controller, vm *VM, id hypervisor.VMID, spec hypervisor.VMSpec) error {
		t.Helper()
		host, lat, err := c.SDM().ReserveCompute(string(id), spec.VCPUs, spec.Memory)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AdoptInto(vm, 0, id, spec, host, sim.Duration(lat)); err != nil {
			c.SDM().ReleaseCompute(host, spec.VCPUs, spec.Memory)
			return err
		}
		return nil
	}

	vm := new(VM)
	if err := adopt(c, vm, "old", spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.ScaleUp(0, "old", brick.GiB); err != nil {
			t.Fatal(err)
		}
	}
	vm.SetUsage(3 * brick.GiB)
	if _, err := c.nodeAt(vm.host).hv.BalloonInflate(&vm.VM, brick.GiB); err != nil {
		t.Fatal(err)
	}
	if n := len(vm.DIMMs()); n != 3 || len(vm.bindings) != 3 {
		t.Fatalf("old VM holds %d DIMMs and %d bindings, want 3 of each", n, len(vm.bindings))
	}

	for _, rc := range []*Controller{c, other} {
		if err := adopt(rc, vm, "taken", spec); err == nil {
			t.Fatal("a live record was adopted")
		}
	}
	if got, ok := c.Lookup("old"); !ok || got != vm || vm.ID != "old" || len(vm.DIMMs()) != 3 {
		t.Fatal("refused adoption disturbed the live VM")
	}
	for _, rc := range []*Controller{c, other} {
		if _, ok := rc.Lookup("taken"); ok {
			t.Fatal("refused adoption registered a VM")
		}
	}

	req, _, _ := c.EvictRequest(vm, nil)
	for _, att := range req.Atts {
		if _, err := c.SDM().DetachRemoteMemory(att); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SDM().ReleaseCompute(req.CPU, req.VCPUs, req.LocalMem); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EvictVM(0, vm, 0); err != nil {
		t.Fatal(err)
	}

	next := hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB}
	if err := adopt(c, vm, "new", next); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Lookup("new"); !ok || got != vm {
		t.Fatal("the recycled record is not the new VM's handle")
	}
	if _, ok := c.Lookup("old"); ok {
		t.Fatal("the old VM is still registered")
	}
	if vm.ID != "new" || vm.Spec != next || vm.State() != hypervisor.StateRunning {
		t.Fatalf("recycled record shows %q %+v %v", vm.ID, vm.Spec, vm.State())
	}
	if vm.Usage() != 0 || vm.Ballooned() != 0 || len(vm.DIMMs()) != 0 || vm.TotalMemory() != next.Memory || c.Bindings("new") != 0 {
		t.Fatalf("recycled record keeps old state: usage %v, ballooned %v, DIMMs %v, total %v, bindings %d",
			vm.Usage(), vm.Ballooned(), vm.DIMMs(), vm.TotalMemory(), c.Bindings("new"))
	}
	if _, err := c.ScaleUp(0, "new", brick.GiB); err != nil {
		t.Fatal(err)
	}
	if len(vm.DIMMs()) != 1 || c.Bindings("new") != 1 || &vm.bindings[0] != &vm.bindBuf[0] {
		t.Fatal("the recycled record's first scale-up did not bind inline")
	}
}
