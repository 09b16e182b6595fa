package hypervisor

import (
	"testing"
	"testing/quick"

	"repro/internal/brick"
	"repro/internal/sim"
)

func newHV(t *testing.T) *Hypervisor {
	t.Helper()
	h, err := New(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func spawn(t *testing.T, h *Hypervisor, id VMID) *VM {
	t.Helper()
	vm, _, err := h.Spawn(id, VMSpec{VCPUs: 2, Memory: 2 * brick.GiB})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestSpawnLatencyModel(t *testing.T) {
	h := newHV(t)
	_, lat, err := h.Spawn("vm1", VMSpec{VCPUs: 2, Memory: 4 * brick.GiB})
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig.SpawnBase + 4*DefaultConfig.SpawnPerGiB
	if lat != want {
		t.Fatalf("spawn latency = %v, want %v", lat, want)
	}
	if lat < 30*sim.Second {
		t.Fatalf("spawn latency %v implausibly low for the scale-out baseline", lat)
	}
}

func TestSpawnValidation(t *testing.T) {
	h := newHV(t)
	if _, _, err := h.Spawn("x", VMSpec{VCPUs: 0, Memory: brick.GiB}); err == nil {
		t.Fatal("zero-vCPU spec accepted")
	}
	if _, _, err := h.Spawn("x", VMSpec{VCPUs: 1}); err == nil {
		t.Fatal("zero-memory spec accepted")
	}
	spawn(t, h, "dup")
	if _, _, err := h.Spawn("dup", VMSpec{VCPUs: 1, Memory: brick.GiB}); err == nil {
		t.Fatal("duplicate VM ID accepted")
	}
}

func TestAttachDIMMGrowsGuestMemory(t *testing.T) {
	h := newHV(t)
	vm := spawn(t, h, "vm1")
	if vm.TotalMemory() != 2*brick.GiB {
		t.Fatalf("boot memory = %v", vm.TotalMemory())
	}
	d, lat, err := h.AttachDIMM("vm1", 4*brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if vm.TotalMemory() != 6*brick.GiB || vm.AvailableMemory() != 6*brick.GiB {
		t.Fatalf("total=%v avail=%v after attach", vm.TotalMemory(), vm.AvailableMemory())
	}
	if d.Size != 4*brick.GiB || d.ID != 0 {
		t.Fatalf("DIMM = %+v", d)
	}
	// Attach latency: device_add + guest hot-add (with per-GiB init) +
	// per-block online. Must be well under a second — that is the whole
	// point of scale-up vs. scale-out.
	if lat <= DefaultConfig.DIMMAttach || lat > sim.Second {
		t.Fatalf("attach latency = %v, want (device_add, 1s)", lat)
	}
	// Second DIMM gets a distinct ID and non-overlapping guest base.
	d2, _, err := h.AttachDIMM("vm1", brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if d2.ID != 1 || d2.GuestBase < d.GuestBase+uint64(d.Size) {
		t.Fatalf("second DIMM = %+v (first %+v)", d2, d)
	}
}

func TestAttachDIMMValidation(t *testing.T) {
	h := newHV(t)
	spawn(t, h, "vm1")
	if _, _, err := h.AttachDIMM("ghost", brick.GiB); err == nil {
		t.Fatal("attach to absent VM succeeded")
	}
	if _, _, err := h.AttachDIMM("vm1", brick.GiB/2); err == nil {
		t.Fatal("sub-block DIMM accepted")
	}
	if _, _, err := h.AttachDIMM("vm1", 0); err == nil {
		t.Fatal("zero DIMM accepted")
	}
	h.Stop("vm1")
	if _, _, err := h.AttachDIMM("vm1", brick.GiB); err == nil {
		t.Fatal("attach to stopped VM succeeded")
	}
}

func TestDetachDIMM(t *testing.T) {
	h := newHV(t)
	vm := spawn(t, h, "vm1")
	d, _, _ := h.AttachDIMM("vm1", 2*brick.GiB)
	vm.SetUsage(3 * brick.GiB) // 2 boot + 2 DIMM = 4 total, usage 3
	if _, err := h.DetachDIMM("vm1", d.ID); err == nil {
		t.Fatal("detach below usage succeeded")
	}
	vm.SetUsage(brick.GiB)
	lat, err := h.DetachDIMM("vm1", d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("detach latency not positive")
	}
	if vm.TotalMemory() != 2*brick.GiB {
		t.Fatalf("total = %v after detach", vm.TotalMemory())
	}
	if _, err := h.DetachDIMM("vm1", d.ID); err == nil {
		t.Fatal("double detach succeeded")
	}
	if _, err := h.DetachDIMM("ghost", 0); err == nil {
		t.Fatal("detach on absent VM succeeded")
	}
}

func TestBalloon(t *testing.T) {
	h := newHV(t)
	vm := spawn(t, h, "vm1")
	vm.SetUsage(brick.GiB)
	if _, err := h.BalloonInflate("vm1", 2*brick.GiB); err == nil {
		t.Fatal("inflate below usage succeeded")
	}
	if _, err := h.BalloonInflate("vm1", brick.GiB); err != nil {
		t.Fatal(err)
	}
	if vm.AvailableMemory() != brick.GiB || vm.Ballooned() != brick.GiB {
		t.Fatalf("avail=%v ballooned=%v", vm.AvailableMemory(), vm.Ballooned())
	}
	if _, err := h.BalloonDeflate("vm1", 2*brick.GiB); err == nil {
		t.Fatal("over-deflate succeeded")
	}
	if _, err := h.BalloonDeflate("vm1", brick.GiB); err != nil {
		t.Fatal(err)
	}
	if vm.Ballooned() != 0 {
		t.Fatal("balloon not empty after deflate")
	}
	if _, err := h.BalloonInflate("vm1", 0); err == nil {
		t.Fatal("zero inflate succeeded")
	}
	if _, err := h.BalloonInflate("ghost", brick.GiB); err == nil {
		t.Fatal("inflate on absent VM succeeded")
	}
	if _, err := h.BalloonDeflate("ghost", brick.GiB); err == nil {
		t.Fatal("deflate on absent VM succeeded")
	}
}

// TestShrinkGuardsRefuseOversize covers the usage guards of the two
// shrink paths when the shrink is larger than the guest's available
// memory: available-size must not wrap around and let it through.
func TestShrinkGuardsRefuseOversize(t *testing.T) {
	cases := []struct {
		name      string
		boot      brick.Bytes
		dimm      brick.Bytes // hot-added before the shrink; 0 for none
		ballooned brick.Bytes
		usage     brick.Bytes
		detach    bool        // detach the DIMM instead of inflating
		inflate   brick.Bytes // balloon inflate size when !detach
		ok        bool
	}{
		{name: "inflate beyond total", boot: 4 * brick.GiB, inflate: 8 * brick.GiB},
		{name: "inflate beyond available", boot: 4 * brick.GiB, ballooned: 3 * brick.GiB, inflate: 2 * brick.GiB},
		{name: "inflate all available", boot: 4 * brick.GiB, inflate: 4 * brick.GiB, ok: true},
		{name: "inflate down to usage", boot: 4 * brick.GiB, usage: brick.GiB, inflate: 3 * brick.GiB, ok: true},
		{name: "inflate past usage", boot: 4 * brick.GiB, usage: brick.GiB, inflate: 4 * brick.GiB},
		{name: "detach beyond available", boot: 2 * brick.GiB, dimm: brick.GiB, ballooned: 5 * brick.GiB / 2,
			usage: brick.GiB / 4, detach: true},
		{name: "detach all available", boot: 2 * brick.GiB, dimm: brick.GiB, ballooned: 2 * brick.GiB, detach: true, ok: true},
		{name: "detach below usage", boot: 2 * brick.GiB, dimm: brick.GiB, ballooned: brick.GiB,
			usage: 3 * brick.GiB / 2, detach: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHV(t)
			vm, _, err := h.Spawn("vm", VMSpec{VCPUs: 1, Memory: tc.boot})
			if err != nil {
				t.Fatal(err)
			}
			var d DIMM
			if tc.dimm > 0 {
				if d, _, err = h.AttachDIMM("vm", tc.dimm); err != nil {
					t.Fatal(err)
				}
			}
			if tc.ballooned > 0 {
				if _, err := h.BalloonInflate("vm", tc.ballooned); err != nil {
					t.Fatal(err)
				}
			}
			vm.SetUsage(tc.usage)
			before := vm.AvailableMemory()
			if tc.detach {
				_, err = h.DetachDIMM("vm", d.ID)
			} else {
				_, err = h.BalloonInflate("vm", tc.inflate)
			}
			if (err == nil) != tc.ok {
				t.Fatalf("shrink err = %v, want ok=%v (available %v)", err, tc.ok, vm.AvailableMemory())
			}
			if !tc.ok && vm.AvailableMemory() != before {
				t.Fatalf("refused shrink moved available memory %v -> %v", before, vm.AvailableMemory())
			}
			if vm.AvailableMemory() > vm.TotalMemory() {
				t.Fatalf("available %v exceeds total %v", vm.AvailableMemory(), vm.TotalMemory())
			}
		})
	}
}

func TestStopAndLookup(t *testing.T) {
	h := newHV(t)
	spawn(t, h, "b")
	spawn(t, h, "a")
	ids := h.VMs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("VMs() = %v", ids)
	}
	if err := h.Stop("a"); err != nil {
		t.Fatal(err)
	}
	if err := h.Stop("a"); err == nil {
		t.Fatal("double stop succeeded")
	}
	if err := h.Stop("ghost"); err == nil {
		t.Fatal("stop of absent VM succeeded")
	}
	vm, ok := h.VM("a")
	if !ok || vm.State() != StateStopped {
		t.Fatal("stopped VM state wrong")
	}
	if StateRunning.String() != "running" || StateStopped.String() != "stopped" {
		t.Fatal("state strings wrong")
	}
}

func TestOOMGuard(t *testing.T) {
	h := newHV(t)
	vm := spawn(t, h, "vm1") // 2 GiB
	g := DefaultOOMGuard
	vm.SetUsage(brick.GiB)
	if got := g.Check(vm); got != 0 {
		t.Fatalf("guard fired at 50%% usage: %v", got)
	}
	vm.SetUsage(2 * brick.GiB * 95 / 100)
	if got := g.Check(vm); got != g.StepSize {
		t.Fatalf("guard did not fire at 95%% usage: %v", got)
	}
	// Misconfigured guard never fires.
	bad := OOMGuard{HeadroomFraction: 0, StepSize: brick.GiB}
	if bad.Check(vm) != 0 {
		t.Fatal("misconfigured guard fired")
	}
}

func TestConfigValidate(t *testing.T) {
	c := DefaultConfig
	c.SpawnBase = -1
	if _, err := New(c); err == nil {
		t.Fatal("negative spawn base accepted")
	}
	c = DefaultConfig
	c.Guest.BlockSize = 0
	if _, err := New(c); err == nil {
		t.Fatal("invalid guest config accepted")
	}
}

// Property: attach/detach sequences keep AvailableMemory equal to boot +
// live DIMMs − ballooned, and never below recorded usage after a
// successful operation.
func TestPropMemoryAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		h, _ := New(DefaultConfig)
		vm, _, err := h.Spawn("p", VMSpec{VCPUs: 1, Memory: 2 * brick.GiB})
		if err != nil {
			return false
		}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				h.AttachDIMM("p", brick.Bytes(op%3+1)*brick.GiB)
			case 1:
				ds := vm.DIMMs()
				if len(ds) > 0 {
					h.DetachDIMM("p", ds[int(op)%len(ds)].ID)
				}
			case 2:
				h.BalloonInflate("p", brick.Bytes(op%2+1)*brick.GiB)
			case 3:
				h.BalloonDeflate("p", brick.GiB)
			}
		}
		var dimmTotal brick.Bytes
		for _, d := range vm.DIMMs() {
			dimmTotal += d.Size
		}
		want := vm.Spec.Memory + dimmTotal - vm.Ballooned()
		return vm.AvailableMemory() == want && vm.AvailableMemory() >= vm.Usage()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
