// Package hypervisor models the dReDBox virtualization layer (paper
// §IV-B): a Type-1 hypervisor that hosts commodity VMs and supports
// QEMU-style memory hotplug — new RAM DIMMs are added at runtime and the
// guest kernel onlines them through the same hotplug machinery as the
// baremetal layer. A revisited balloon subsystem supports elastic
// scale-down, and an out-of-memory guard (the paper's stated future
// enhancement) can trigger automatic scale-up before the guest OOMs.
//
// The package also models conventional VM spawning, because Figure 10's
// baseline is "elasticity through conventional VM scale-out": spawning a
// whole new VM to add memory to an application, with startup times in the
// tens of seconds (ref. [13], Mao & Humphrey).
package hypervisor

import (
	"fmt"
	"sort"

	"repro/internal/brick"
	"repro/internal/hotplug"
	"repro/internal/sim"
)

// VMID identifies a virtual machine.
type VMID string

// VMState is the lifecycle state of a VM.
type VMState int

const (
	// StateRunning means the VM is executing.
	StateRunning VMState = iota
	// StateStopped means the VM has been shut down.
	StateStopped
)

func (s VMState) String() string {
	if s == StateRunning {
		return "running"
	}
	return "stopped"
}

// VMSpec is the initial resource allocation of a VM.
type VMSpec struct {
	VCPUs  int
	Memory brick.Bytes // boot-time RAM (backed by the host brick's local DDR)
}

// Validate rejects empty specs.
func (s VMSpec) Validate() error {
	if s.VCPUs <= 0 {
		return fmt.Errorf("hypervisor: VM needs at least one vCPU, got %d", s.VCPUs)
	}
	if s.Memory == 0 {
		return fmt.Errorf("hypervisor: VM needs boot memory")
	}
	return nil
}

// DIMM is one hot-added virtual DIMM, backed by a remote memory segment.
type DIMM struct {
	ID        int
	Size      brick.Bytes
	GuestBase uint64
}

// guestHotplugBase is where the guest physical address map places the
// hotplug region (above the boot RAM window).
const guestHotplugBase = 1 << 40

// inlineDIMMs is how many DIMMs a VM holds before its DIMM list moves
// to the heap.
const inlineDIMMs = 2

// VM is a hosted virtual machine. The guest kernel and the first few
// DIMMs live inside the VM object, and the object itself is owned by
// the caller (the Scale-up controller embeds it in its per-VM record),
// so spawning a VM allocates nothing here; a VM points into itself and
// is only ever handled by pointer.
type VM struct {
	ID    VMID
	Spec  VMSpec
	state VMState
	// host is the hypervisor running the VM: set by Spawn and Adopt,
	// cleared by Evict. Every hypervisor method refuses a VM whose host
	// is not itself, so a foreign, evicted or never-spawned VM is
	// caught without a name table.
	host *Hypervisor

	guest    hotplug.Kernel
	dimms    []DIMM
	dimmBuf  [inlineDIMMs]DIMM
	nextDIMM int
	nextBase uint64

	ballooned brick.Bytes // memory reclaimed from the guest by the balloon
	usage     brick.Bytes // application working set, set by SetUsage
}

// State returns the VM lifecycle state.
func (v *VM) State() VMState { return v.state }

// DIMMs returns the hot-added DIMMs in attach order (copies).
func (v *VM) DIMMs() []DIMM {
	out := append([]DIMM(nil), v.dimms...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalMemory returns boot RAM plus all hot-added DIMMs.
func (v *VM) TotalMemory() brick.Bytes {
	t := v.Spec.Memory
	for _, d := range v.dimms {
		t += d.Size
	}
	return t
}

// AvailableMemory returns memory usable by the guest: total minus what
// the balloon has reclaimed.
func (v *VM) AvailableMemory() brick.Bytes { return v.TotalMemory() - v.ballooned }

// CanShrink reports whether size bytes can leave the guest — by balloon
// or by DIMM detach — without dropping its available memory below the
// recorded usage. A size beyond the available memory never fits.
func (v *VM) CanShrink(size brick.Bytes) bool {
	avail := v.AvailableMemory()
	return size <= avail && avail-size >= v.usage
}

// Ballooned returns the amount currently held by the balloon.
func (v *VM) Ballooned() brick.Bytes { return v.ballooned }

// Usage returns the recorded application working set.
func (v *VM) Usage() brick.Bytes { return v.usage }

// SetUsage records the application working set (driven by workload
// models; the OOM guard compares it against available memory).
func (v *VM) SetUsage(b brick.Bytes) { v.usage = b }

// Config parameterizes the hypervisor's latency model.
type Config struct {
	// SpawnBase is the fixed VM startup cost: image provisioning, BIOS,
	// kernel boot, cloud-init. Mao & Humphrey report tens of seconds on
	// public clouds; 30 s is a mid-range figure.
	SpawnBase sim.Duration
	// SpawnPerGiB adds image/ballooning time proportional to VM memory.
	SpawnPerGiB sim.Duration
	// DIMMAttach is the QEMU control-plane cost of device_add of a DIMM
	// (monitor round trip plus guest ACPI/DT notification).
	DIMMAttach sim.Duration
	// DIMMDetach is the device_del counterpart.
	DIMMDetach sim.Duration
	// BalloonPerGiB is the balloon inflate/deflate cost per GiB moved.
	BalloonPerGiB sim.Duration
	// Guest is the guest kernel's hotplug latency model.
	Guest hotplug.Config
}

// DefaultConfig holds representative values.
var DefaultConfig = Config{
	SpawnBase:     30 * sim.Second,
	SpawnPerGiB:   1500 * sim.Millisecond,
	DIMMAttach:    15 * sim.Millisecond,
	DIMMDetach:    10 * sim.Millisecond,
	BalloonPerGiB: 8 * sim.Millisecond,
	Guest:         hotplug.DefaultConfig,
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.SpawnBase < 0 || c.SpawnPerGiB < 0 || c.DIMMAttach < 0 ||
		c.DIMMDetach < 0 || c.BalloonPerGiB < 0 {
		return fmt.Errorf("hypervisor: negative latency in config")
	}
	return c.Guest.Validate()
}

// Hypervisor hosts VMs on one dCOMPUBRICK. It keeps no VM table: each
// VM records its host, and callers hand the VM itself to every method.
type Hypervisor struct {
	cfg Config
}

// New returns an empty hypervisor.
func New(cfg Config) (*Hypervisor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Hypervisor{cfg: cfg}, nil
}

// Config returns the hypervisor configuration.
func (h *Hypervisor) Config() Config { return h.cfg }

// hosts refuses a VM this hypervisor does not run: nil, never spawned,
// evicted, or hosted by another hypervisor.
func (h *Hypervisor) hosts(vm *VM) error {
	if vm == nil {
		return fmt.Errorf("hypervisor: nil VM")
	}
	if vm.host != h {
		return fmt.Errorf("hypervisor: no VM %q", vm.ID)
	}
	return nil
}

// Spawn boots a new VM into the caller-owned vm, initialising it in
// place the way hotplug.InitKernel does, and returns the startup
// latency — the cost the conventional scale-out baseline pays for
// every elasticity event. A VM still hosted by a hypervisor is refused.
// The hypervisor keeps no VM table, so callers keep VM IDs unique: the
// Scale-up controller scans its rack's VM list and refuses a duplicate
// before it spawns, and the core facades refuse one in their own name
// table before that.
func (h *Hypervisor) Spawn(vm *VM, id VMID, spec VMSpec) (sim.Duration, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if vm.host != nil {
		return 0, fmt.Errorf("hypervisor: VM %q already exists", vm.ID)
	}
	*vm = VM{
		ID:       id,
		Spec:     spec,
		state:    StateRunning,
		nextBase: guestHotplugBase,
	}
	if err := hotplug.InitKernel(&vm.guest, h.cfg.Guest); err != nil {
		return 0, err
	}
	vm.dimms = vm.dimmBuf[:0]
	vm.host = h
	gib := float64(spec.Memory) / float64(brick.GiB)
	return h.cfg.SpawnBase + sim.Duration(gib*float64(h.cfg.SpawnPerGiB)), nil
}

// Stop shuts a VM down. Its resources must be released by the caller
// (the orchestrator owns segment/circuit teardown).
func (h *Hypervisor) Stop(vm *VM) error {
	if err := h.hosts(vm); err != nil {
		return err
	}
	if vm.state == StateStopped {
		return fmt.Errorf("hypervisor: VM %q already stopped", vm.ID)
	}
	vm.state = StateStopped
	return nil
}

// AttachDIMM hot-adds a virtual DIMM backed by an already-wired remote
// segment: QEMU device_add, then guest hot-add + online. It returns the
// new DIMM and the total virtualization-layer latency (the physical
// attach latency — orchestration, circuit setup — is the SDM layer's and
// is accounted there).
func (h *Hypervisor) AttachDIMM(vm *VM, size brick.Bytes) (DIMM, sim.Duration, error) {
	if err := h.hosts(vm); err != nil {
		return DIMM{}, 0, err
	}
	if vm.state != StateRunning {
		return DIMM{}, 0, fmt.Errorf("hypervisor: VM %q not running", vm.ID)
	}
	if size == 0 || size%h.cfg.Guest.BlockSize != 0 {
		return DIMM{}, 0, fmt.Errorf("hypervisor: DIMM size %v must be a positive multiple of the guest block size %v", size, h.cfg.Guest.BlockSize)
	}
	base := vm.nextBase
	addLat, err := vm.guest.HotAdd(base, size)
	if err != nil {
		return DIMM{}, 0, err
	}
	onLat, err := vm.guest.Online(base, size)
	if err != nil {
		return DIMM{}, 0, err
	}
	d := DIMM{ID: vm.nextDIMM, Size: size, GuestBase: base}
	vm.nextDIMM++
	vm.nextBase += uint64(size)
	vm.dimms = append(vm.dimms, d)
	return d, h.cfg.DIMMAttach + addLat + onLat, nil
}

// DetachDIMM removes a hot-added DIMM: the balloon first vacates its
// pages, the guest offlines and hot-removes the range, then device_del.
// It refuses a detach that would leave the guest with less memory than
// its recorded usage — exactly the OOM the guard exists to avoid.
func (h *Hypervisor) DetachDIMM(vm *VM, dimmID int) (sim.Duration, error) {
	return h.detachDIMM(vm, dimmID, true)
}

// TeardownDIMM is DetachDIMM for a VM being destroyed: the same steps
// and latency, without the working-set guard, because the guest and
// its working set are going away. The balloon keeps at most what the
// guest still has, so available memory never wraps below zero.
func (h *Hypervisor) TeardownDIMM(vm *VM, dimmID int) (sim.Duration, error) {
	return h.detachDIMM(vm, dimmID, false)
}

func (h *Hypervisor) detachDIMM(vm *VM, dimmID int, guard bool) (sim.Duration, error) {
	if err := h.hosts(vm); err != nil {
		return 0, err
	}
	// Newest first: teardown detaches in reverse attach order.
	idx := -1
	for i := len(vm.dimms) - 1; i >= 0; i-- {
		if vm.dimms[i].ID == dimmID {
			idx = i
			break
		}
	}
	if idx == -1 {
		return 0, fmt.Errorf("hypervisor: VM %q has no DIMM %d", vm.ID, dimmID)
	}
	d := vm.dimms[idx]
	if guard && !vm.CanShrink(d.Size) {
		return 0, fmt.Errorf("hypervisor: detaching DIMM %d (%v) would drop below usage %v", dimmID, d.Size, vm.usage)
	}
	gib := float64(d.Size) / float64(brick.GiB)
	vacate := sim.Duration(gib * float64(h.cfg.BalloonPerGiB))
	offLat, err := vm.guest.Offline(d.GuestBase, d.Size)
	if err != nil {
		return 0, err
	}
	rmLat, err := vm.guest.HotRemove(d.GuestBase, d.Size)
	if err != nil {
		return 0, err
	}
	vm.dimms = append(vm.dimms[:idx], vm.dimms[idx+1:]...)
	if total := vm.TotalMemory(); vm.ballooned > total {
		vm.ballooned = total
	}
	return vacate + offLat + rmLat + h.cfg.DIMMDetach, nil
}

// BalloonInflate reclaims size bytes from the guest without detaching
// hardware; the detach-only ablation compares against this path.
func (h *Hypervisor) BalloonInflate(vm *VM, size brick.Bytes) (sim.Duration, error) {
	if err := h.hosts(vm); err != nil {
		return 0, err
	}
	if size == 0 {
		return 0, fmt.Errorf("hypervisor: zero-byte balloon inflate")
	}
	if !vm.CanShrink(size) {
		return 0, fmt.Errorf("hypervisor: inflating %v would drop below usage %v", size, vm.usage)
	}
	vm.ballooned += size
	gib := float64(size) / float64(brick.GiB)
	return sim.Duration(gib * float64(h.cfg.BalloonPerGiB)), nil
}

// BalloonDeflate returns size bytes to the guest.
func (h *Hypervisor) BalloonDeflate(vm *VM, size brick.Bytes) (sim.Duration, error) {
	if err := h.hosts(vm); err != nil {
		return 0, err
	}
	if size == 0 || size > vm.ballooned {
		return 0, fmt.Errorf("hypervisor: deflate %v with %v ballooned", size, vm.ballooned)
	}
	vm.ballooned -= size
	gib := float64(size) / float64(brick.GiB)
	return sim.Duration(gib * float64(h.cfg.BalloonPerGiB)), nil
}

// OOMGuard implements the paper's planned enhancement: "the guest memory
// hotplug support will be enhanced to automatically protect the guest
// from running out-of-memory". It watches a VM's headroom and recommends
// a scale-up size when usage approaches available memory.
type OOMGuard struct {
	// HeadroomFraction triggers when usage exceeds this fraction of
	// available memory (e.g. 0.9).
	HeadroomFraction float64
	// StepSize is the scale-up increment to request.
	StepSize brick.Bytes
}

// DefaultOOMGuard triggers at 90% with 1 GiB steps.
var DefaultOOMGuard = OOMGuard{HeadroomFraction: 0.9, StepSize: brick.GiB}

// Check returns the recommended scale-up size (0 if none needed).
func (g OOMGuard) Check(vm *VM) brick.Bytes {
	if g.HeadroomFraction <= 0 || g.HeadroomFraction > 1 {
		return 0
	}
	avail := vm.AvailableMemory()
	if avail == 0 {
		return g.StepSize
	}
	if float64(vm.Usage()) > g.HeadroomFraction*float64(avail) {
		return g.StepSize
	}
	return 0
}
