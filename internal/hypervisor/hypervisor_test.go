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
	vm := new(VM)
	if _, err := h.Spawn(vm, id, VMSpec{VCPUs: 2, Memory: 2 * brick.GiB}); err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestSpawnLatencyModel(t *testing.T) {
	h := newHV(t)
	lat, err := h.Spawn(new(VM), "vm1", VMSpec{VCPUs: 2, Memory: 4 * brick.GiB})
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
	if _, err := h.Spawn(new(VM), "x", VMSpec{VCPUs: 0, Memory: brick.GiB}); err == nil {
		t.Fatal("zero-vCPU spec accepted")
	}
	if _, err := h.Spawn(new(VM), "x", VMSpec{VCPUs: 1}); err == nil {
		t.Fatal("zero-memory spec accepted")
	}
	// Re-spawning a VM still hosted — here or on another hypervisor —
	// is refused and leaves it untouched; duplicate IDs are the Scale-up
	// controller's to refuse.
	vm := spawn(t, h, "dup")
	vm.SetUsage(brick.GiB)
	if _, err := h.Spawn(vm, "dup", VMSpec{VCPUs: 1, Memory: brick.GiB}); err == nil {
		t.Fatal("re-spawn of a hosted VM accepted")
	}
	if _, err := newHV(t).Spawn(vm, "other", VMSpec{VCPUs: 1, Memory: brick.GiB}); err == nil {
		t.Fatal("spawn of a VM hosted elsewhere accepted")
	}
	if vm.ID != "dup" || vm.Spec.VCPUs != 2 || vm.Usage() != brick.GiB {
		t.Fatalf("refused spawn reset the VM: %+v", vm.Spec)
	}
}

func TestAttachDIMMGrowsGuestMemory(t *testing.T) {
	h := newHV(t)
	vm := spawn(t, h, "vm1")
	if vm.TotalMemory() != 2*brick.GiB {
		t.Fatalf("boot memory = %v", vm.TotalMemory())
	}
	d, lat, err := h.AttachDIMM(vm, 4*brick.GiB)
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
	d2, _, err := h.AttachDIMM(vm, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if d2.ID != 1 || d2.GuestBase < d.GuestBase+uint64(d.Size) {
		t.Fatalf("second DIMM = %+v (first %+v)", d2, d)
	}
}

func TestAttachDIMMValidation(t *testing.T) {
	h := newHV(t)
	vm := spawn(t, h, "vm1")
	if _, _, err := h.AttachDIMM(new(VM), brick.GiB); err == nil {
		t.Fatal("attach to absent VM succeeded")
	}
	if _, _, err := h.AttachDIMM(vm, brick.GiB/2); err == nil {
		t.Fatal("sub-block DIMM accepted")
	}
	if _, _, err := h.AttachDIMM(vm, 0); err == nil {
		t.Fatal("zero DIMM accepted")
	}
	h.Stop(vm)
	if _, _, err := h.AttachDIMM(vm, brick.GiB); err == nil {
		t.Fatal("attach to stopped VM succeeded")
	}
}

func TestDetachDIMM(t *testing.T) {
	h := newHV(t)
	vm := spawn(t, h, "vm1")
	d, _, _ := h.AttachDIMM(vm, 2*brick.GiB)
	vm.SetUsage(3 * brick.GiB) // 2 boot + 2 DIMM = 4 total, usage 3
	if _, err := h.DetachDIMM(vm, d.ID); err == nil {
		t.Fatal("detach below usage succeeded")
	}
	vm.SetUsage(brick.GiB)
	lat, err := h.DetachDIMM(vm, d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("detach latency not positive")
	}
	if vm.TotalMemory() != 2*brick.GiB {
		t.Fatalf("total = %v after detach", vm.TotalMemory())
	}
	if _, err := h.DetachDIMM(vm, d.ID); err == nil {
		t.Fatal("double detach succeeded")
	}
	if _, err := h.DetachDIMM(new(VM), 0); err == nil {
		t.Fatal("detach on absent VM succeeded")
	}
}

// TestTeardownDIMMSkipsUsageGuard: teardown of a VM being destroyed
// detaches a DIMM its working set still needs, at exactly DetachDIMM's
// latency, and clamps the balloon to what the guest keeps.
func TestTeardownDIMMSkipsUsageGuard(t *testing.T) {
	h := newHV(t)
	guarded := spawn(t, h, "guarded")
	gd, _, _ := h.AttachDIMM(guarded, 2*brick.GiB)
	want, err := h.DetachDIMM(guarded, gd.ID)
	if err != nil {
		t.Fatal(err)
	}

	vm := spawn(t, h, "vm1")
	d, _, _ := h.AttachDIMM(vm, 2*brick.GiB)
	if _, err := h.BalloonInflate(vm, 3*brick.GiB); err != nil {
		t.Fatal(err)
	}
	vm.SetUsage(brick.GiB) // 4 total, 3 ballooned, usage 1: no room to detach
	if _, err := h.DetachDIMM(vm, d.ID); err == nil {
		t.Fatal("guarded detach below usage succeeded")
	}
	lat, err := h.TeardownDIMM(vm, d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lat != want {
		t.Fatalf("teardown latency %v, want DetachDIMM's %v", lat, want)
	}
	if vm.TotalMemory() != 2*brick.GiB || vm.Ballooned() != 2*brick.GiB || vm.AvailableMemory() != 0 {
		t.Fatalf("after teardown: total %v ballooned %v available %v", vm.TotalMemory(), vm.Ballooned(), vm.AvailableMemory())
	}
	if _, err := h.TeardownDIMM(vm, d.ID); err == nil {
		t.Fatal("double teardown succeeded")
	}
}

// TestForeignAndEvictedVMsRefused: every method taking a VM refuses one
// this hypervisor does not host — never spawned, hosted by another
// hypervisor, or evicted — and leaves it untouched; Adopt refuses a VM
// that is still hosted anywhere.
func TestForeignAndEvictedVMsRefused(t *testing.T) {
	h, other := newHV(t), newHV(t)
	foreign := spawn(t, other, "foreign")
	fd, _, _ := other.AttachDIMM(foreign, brick.GiB)
	evicted := spawn(t, h, "evicted")
	ed, _, _ := h.AttachDIMM(evicted, brick.GiB)
	if err := h.Evict(evicted); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		vm   *VM
		dimm int
	}{
		{"never spawned", new(VM), 0},
		{"foreign", foreign, fd.ID},
		{"evicted", evicted, ed.ID},
		{"nil", nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before brick.Bytes
			if tc.vm != nil {
				before = tc.vm.TotalMemory()
			}
			calls := map[string]error{}
			_, _, calls["AttachDIMM"] = h.AttachDIMM(tc.vm, brick.GiB)
			_, calls["DetachDIMM"] = h.DetachDIMM(tc.vm, tc.dimm)
			_, calls["TeardownDIMM"] = h.TeardownDIMM(tc.vm, tc.dimm)
			_, calls["BalloonInflate"] = h.BalloonInflate(tc.vm, brick.GiB/2)
			_, calls["BalloonDeflate"] = h.BalloonDeflate(tc.vm, brick.GiB/2)
			calls["Stop"] = h.Stop(tc.vm)
			calls["Evict"] = h.Evict(tc.vm)
			for name, err := range calls {
				if err == nil {
					t.Errorf("%s accepted a %s VM", name, tc.name)
				}
			}
			if tc.vm != nil && (tc.vm.TotalMemory() != before || tc.vm.Ballooned() != 0 || tc.vm.State() != StateRunning) {
				t.Fatalf("refused calls moved the VM: total %v -> %v, ballooned %v, %v",
					before, tc.vm.TotalMemory(), tc.vm.Ballooned(), tc.vm.State())
			}
		})
	}
	if err := h.Adopt(foreign); err == nil {
		t.Fatal("adopt of a VM hosted elsewhere succeeded")
	}
	hosted := spawn(t, h, "hosted")
	if err := h.Adopt(hosted); err == nil {
		t.Fatal("adopt of a VM already hosted here succeeded")
	}
	// The evicted VM is adoptable, and then works on its new host only.
	if err := other.Adopt(evicted); err != nil {
		t.Fatal(err)
	}
	if _, err := other.DetachDIMM(evicted, ed.ID); err != nil {
		t.Fatalf("detach on the adopting host: %v", err)
	}
	if _, _, err := h.AttachDIMM(evicted, brick.GiB); err == nil {
		t.Fatal("former host accepted an adopted VM")
	}
}

func TestBalloon(t *testing.T) {
	h := newHV(t)
	vm := spawn(t, h, "vm1")
	vm.SetUsage(brick.GiB)
	if _, err := h.BalloonInflate(vm, 2*brick.GiB); err == nil {
		t.Fatal("inflate below usage succeeded")
	}
	if _, err := h.BalloonInflate(vm, brick.GiB); err != nil {
		t.Fatal(err)
	}
	if vm.AvailableMemory() != brick.GiB || vm.Ballooned() != brick.GiB {
		t.Fatalf("avail=%v ballooned=%v", vm.AvailableMemory(), vm.Ballooned())
	}
	if _, err := h.BalloonDeflate(vm, 2*brick.GiB); err == nil {
		t.Fatal("over-deflate succeeded")
	}
	if _, err := h.BalloonDeflate(vm, brick.GiB); err != nil {
		t.Fatal(err)
	}
	if vm.Ballooned() != 0 {
		t.Fatal("balloon not empty after deflate")
	}
	if _, err := h.BalloonInflate(vm, 0); err == nil {
		t.Fatal("zero inflate succeeded")
	}
	if _, err := h.BalloonInflate(new(VM), brick.GiB); err == nil {
		t.Fatal("inflate on absent VM succeeded")
	}
	if _, err := h.BalloonDeflate(new(VM), brick.GiB); err == nil {
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
			vm := new(VM)
			_, err := h.Spawn(vm, "vm", VMSpec{VCPUs: 1, Memory: tc.boot})
			if err != nil {
				t.Fatal(err)
			}
			var d DIMM
			if tc.dimm > 0 {
				if d, _, err = h.AttachDIMM(vm, tc.dimm); err != nil {
					t.Fatal(err)
				}
			}
			if tc.ballooned > 0 {
				if _, err := h.BalloonInflate(vm, tc.ballooned); err != nil {
					t.Fatal(err)
				}
			}
			vm.SetUsage(tc.usage)
			before := vm.AvailableMemory()
			if tc.detach {
				_, err = h.DetachDIMM(vm, d.ID)
			} else {
				_, err = h.BalloonInflate(vm, tc.inflate)
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
	b := spawn(t, h, "b")
	a := spawn(t, h, "a")
	if err := h.Stop(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Stop(a); err == nil {
		t.Fatal("double stop succeeded")
	}
	if err := h.Stop(new(VM)); err == nil {
		t.Fatal("stop of absent VM succeeded")
	}
	if a.State() != StateStopped || b.State() != StateRunning {
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
		vm := new(VM)
		if _, err := h.Spawn(vm, "p", VMSpec{VCPUs: 1, Memory: 2 * brick.GiB}); err != nil {
			return false
		}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				h.AttachDIMM(vm, brick.Bytes(op%3+1)*brick.GiB)
			case 1:
				ds := vm.DIMMs()
				if len(ds) > 0 {
					h.DetachDIMM(vm, ds[int(op)%len(ds)].ID)
				}
			case 2:
				h.BalloonInflate(vm, brick.Bytes(op%2+1)*brick.GiB)
			case 3:
				h.BalloonDeflate(vm, brick.GiB)
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
