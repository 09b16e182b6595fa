// Package scaleup implements the dReDBox Scale-up API and controller
// (paper §IV): the control plane that lets an application running inside
// a VM request more memory and have it appear, hot-plugged, without
// restarting anything.
//
// The paper's sequence, reproduced step by step by ScaleUp:
//
//  1. the application notifies the Scale-up controller;
//  2. the controller relays the request to the SDM Controller, which
//     selects and reserves a remote segment, programs the circuit switch
//     and pushes the TGL window to the brick's SDM Agent;
//  3. the baremetal OS hot-adds and onlines the new physical range;
//  4. control returns to the Scale-up controller, which configures the
//     hypervisor to expand the VM's physical memory (virtual DIMM
//     hotplug + guest onlining).
//
// The SDM Controller runs as a single autonomous service, so concurrent
// scale-up requests serialize through it; the brick-local steps (3) and
// (4) proceed in parallel across bricks. That queueing structure is what
// shapes Figure 10's concurrency sweep.
package scaleup

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/brick"
	"repro/internal/hotplug"
	"repro/internal/hypervisor"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Config parameterizes the scale-up control path.
type Config struct {
	// APIOverhead is the application → Scale-up controller → SDM relay
	// cost per request.
	APIOverhead sim.Duration
	// Hypervisor is the virtualization-layer latency model.
	Hypervisor hypervisor.Config
	// Baremetal is the host kernel's hotplug latency model.
	Baremetal hotplug.Config
}

// DefaultConfig holds representative values.
var DefaultConfig = Config{
	APIOverhead: 1 * sim.Millisecond,
	Hypervisor:  hypervisor.DefaultConfig,
	Baremetal:   hotplug.DefaultConfig,
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.APIOverhead < 0 {
		return fmt.Errorf("scaleup: negative API overhead")
	}
	if err := c.Hypervisor.Validate(); err != nil {
		return err
	}
	return c.Baremetal.Validate()
}

// binding ties one VM-visible DIMM to its SDM attachment.
type binding struct {
	att  *sdm.Attachment
	dimm hypervisor.DIMM
}

// VM is everything the controller tracks about one VM, and the handle
// callers hold for it: the hypervisor VM itself (embedded, so its ID,
// Spec and guest state are the record's), the brick hosting it and that
// brick's stack, and its remote bindings in attach order. The first
// binding lives inline, so a VM with one remote attachment costs one
// allocation across the whole per-VM stack. Batch callers (the core
// facades) own the records: each burst boots its VMs into records
// through AdoptInto, reusing those an earlier burst retired, and passes
// the handles back, so a burst resolves each VM name once. Sequential
// callers use the ID-keyed methods, each one scan of the rack's VM list
// in front of the same body, and CreateVM always boots into a fresh
// record. Migration moves the record itself between controllers.
type VM struct {
	hypervisor.VM
	host topo.BrickID
	node *node
	// slot is the VM's index in its controller's live list.
	slot     int
	bindings []binding
	bindBuf  [1]binding
}

// node is the per-compute-brick software stack.
type node struct {
	kernel *hotplug.Kernel
	hv     *hypervisor.Hypervisor
	// ctl is the controller owning the brick, so a handle from another
	// rack's controller is refused.
	ctl *Controller
}

// Result reports the timing decomposition of one elasticity request.
type Result struct {
	Requested sim.Time // when the application posted the request
	Started   sim.Time // when the SDM Controller began serving it
	Done      sim.Time // when the memory was usable by the VM

	Orchestration sim.Duration // SDM-C: decision + circuit + agent push
	Baremetal     sim.Duration // host kernel hot-add + online
	Virtual       sim.Duration // hypervisor DIMM attach + guest online

	// Size is the memory actually moved by the operation: the VM's boot
	// memory for CreateVM, the attached increment for ScaleUp, and the
	// released DIMM's size for ScaleDown (which detaches a whole DIMM of
	// at least the requested size).
	Size brick.Bytes
}

// Delay returns the application-observed delay, Fig. 10's metric.
func (r Result) Delay() sim.Duration { return r.Done.Sub(r.Requested) }

// Queueing returns time spent waiting for the SDM Controller.
func (r Result) Queueing() sim.Duration { return r.Started.Sub(r.Requested) }

// Controller is the Scale-up controller.
type Controller struct {
	cfg  Config
	sdmc *sdm.Controller

	// nodes holds each compute brick's software stack by compute
	// ordinal, built when the brick hosts its first VM, so set-up builds
	// no kernel or hypervisor it does not use.
	nodes []*node
	// live holds the controller's VMs in no particular order: each knows
	// its slot, and removal swaps the last entry into the hole. The
	// ID-keyed methods scan it. It stays short: AllocCores refuses
	// overcommit and every VM has at least one vCPU, so a rack holds at
	// most its core count in VMs.
	live []*VM

	// sdmQueue serializes requests through the autonomous SDM service.
	sdmQueue sim.Queue

	// journal, when set, records every elasticity event. Call sites
	// test it before formatting, so an untraced controller never boxes
	// the event's arguments.
	journal *trace.Log

	// attScratch is the reused pre-flight buffer of AppendBoundAttachments
	// callers (migration), so repeated pre-flights allocate nothing.
	attScratch []*sdm.Attachment

	scaleUps, scaleDowns uint64
}

// New builds a Scale-up controller over an SDM Controller.
func New(sdmc *sdm.Controller, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:   cfg,
		sdmc:  sdmc,
		nodes: make([]*node, sdmc.ComputeBricks()),
	}, nil
}

// SDM returns the underlying SDM controller.
func (c *Controller) SDM() *sdm.Controller { return c.sdmc }

// nodeFor returns a compute brick's software stack, building it on
// first use.
func (c *Controller) nodeFor(id topo.BrickID) (*node, error) {
	ord := c.sdmc.ComputeOrdinal(id)
	if ord < 0 {
		return nil, fmt.Errorf("scaleup: no compute brick %v", id)
	}
	if n := c.nodes[ord]; n != nil {
		return n, nil
	}
	kernel, err := hotplug.NewKernel(c.cfg.Baremetal)
	if err != nil {
		return nil, err
	}
	hv, err := hypervisor.New(c.cfg.Hypervisor)
	if err != nil {
		return nil, err
	}
	n := &node{kernel: kernel, hv: hv, ctl: c}
	c.nodes[ord] = n
	return n, nil
}

// find returns the VM with the given ID, or nil.
func (c *Controller) find(id hypervisor.VMID) *VM {
	for _, vm := range c.live {
		if vm.ID == id {
			return vm
		}
	}
	return nil
}

// add registers vm in the live list.
func (c *Controller) add(vm *VM) {
	vm.slot = len(c.live)
	c.live = append(c.live, vm)
}

// remove drops vm from the live list, moving the last VM into its slot.
func (c *Controller) remove(vm *VM) {
	last := len(c.live) - 1
	moved := c.live[last]
	c.live[vm.slot], moved.slot = moved, vm.slot
	c.live[last] = nil
	c.live = c.live[:last]
}

// CreateVM reserves compute resources through the SDM Controller and
// boots a VM on the selected brick's hypervisor. It returns the host
// brick and the total creation latency.
func (c *Controller) CreateVM(now sim.Time, id hypervisor.VMID, spec hypervisor.VMSpec) (topo.BrickID, Result, error) {
	if c.find(id) != nil {
		return topo.BrickID{}, Result{}, fmt.Errorf("scaleup: VM %q already exists", id)
	}
	host, resLat, err := c.sdmc.ReserveCompute(string(id), spec.VCPUs, spec.Memory)
	if err != nil {
		return topo.BrickID{}, Result{}, err
	}
	_, res, err := c.AdoptVM(now, id, spec, host, sim.Duration(resLat))
	if err != nil {
		c.sdmc.ReleaseCompute(host, spec.VCPUs, spec.Memory)
		return topo.BrickID{}, Result{}, err
	}
	return host, res, nil
}

// AdoptVM is AdoptInto on a fresh record, which it returns as the VM's
// handle. It is CreateVM's boot step and never reuses a record.
func (c *Controller) AdoptVM(now sim.Time, id hypervisor.VMID, spec hypervisor.VMSpec, host topo.BrickID, resLat sim.Duration) (*VM, Result, error) {
	vm := new(VM)
	res, err := c.AdoptInto(vm, now, id, spec, host, resLat)
	if err != nil {
		return nil, Result{}, err
	}
	return vm, res, nil
}

// AdoptInto registers and boots a VM whose compute reservation was
// already made elsewhere — the pod tier's batch admission reserves
// whole bursts through sdm.PodScheduler.AdmitBatch and then adopts
// each VM onto its rack's controller through this entry point. It
// initialises the caller-owned record vm in place, as
// hypervisor.Spawn does for the hypervisor VM it embeds, and vm is
// then the VM's handle for the batch entry points (Bind, EvictRequest,
// EvictVM, DiscardVM, MigrateTo). A record still live on any
// controller is refused; one that EvictVM or DiscardVM retired may be
// booted into again, and keeps nothing of its earlier VM. resLat is
// the reservation's orchestration latency, which serializes through
// the SDM queue exactly as CreateVM's would. The caller owns the
// reservation: on error it is NOT released here, and vm stays retired.
func (c *Controller) AdoptInto(vm *VM, now sim.Time, id hypervisor.VMID, spec hypervisor.VMSpec, host topo.BrickID, resLat sim.Duration) (Result, error) {
	if vm.node != nil {
		return Result{}, fmt.Errorf("scaleup: record of VM %q is still live", vm.ID)
	}
	if c.find(id) != nil {
		return Result{}, fmt.Errorf("scaleup: VM %q already exists", id)
	}
	n, err := c.nodeFor(host)
	if err != nil {
		return Result{}, err
	}
	*vm = VM{host: host}
	spawnLat, err := n.hv.Spawn(&vm.VM, id, spec)
	if err != nil {
		return Result{}, err
	}
	vm.node = n
	vm.bindings = vm.bindBuf[:0]
	c.add(vm)
	arrive := now.Add(c.cfg.APIOverhead)
	start, done := c.sdmQueue.Serve(arrive, resLat)
	res := Result{
		Requested:     now,
		Started:       start,
		Done:          done.Add(spawnLat),
		Orchestration: resLat,
		Virtual:       spawnLat,
		Size:          spec.Memory,
	}
	if c.journal != nil {
		c.journal.Append(now, trace.KindReserve, string(id), "VM created on %v (%d vCPU, %v) in %v", host, spec.VCPUs, spec.Memory, res.Delay())
	}
	return res, nil
}

// owns reports whether vm is a live VM of this controller: a handle
// that was discarded, evicted or migrated to another rack's controller
// is not.
func (c *Controller) owns(vm *VM) bool {
	return vm != nil && vm.node != nil && vm.node.ctl == c
}

// DiscardVM removes a VM that failed mid-admission: the hypervisor
// object is evicted and the registration dropped. The caller owns the
// compute reservation and any attachments (this is the batch boot
// error path's cleanup, not a graceful shutdown — the VM must hold no
// bindings).
func (c *Controller) DiscardVM(vm *VM) error {
	if !c.owns(vm) {
		return fmt.Errorf("scaleup: no VM %q", vmID(vm))
	}
	if n := len(vm.bindings); n > 0 {
		return fmt.Errorf("scaleup: VM %q still holds %d remote bindings", vm.ID, n)
	}
	if err := vm.node.hv.Evict(&vm.VM); err != nil {
		return err
	}
	c.remove(vm)
	vm.node = nil
	return nil
}

// vmID names a handle in an error, nil included.
func vmID(vm *VM) hypervisor.VMID {
	if vm == nil {
		return ""
	}
	return vm.ID
}

// Lookup resolves a VM ID to its handle.
func (c *Controller) Lookup(id hypervisor.VMID) (*VM, bool) {
	vm := c.find(id)
	return vm, vm != nil
}

// AppendVMs appends the controller's VMs to dst in ID order and
// returns the extended slice.
func (c *Controller) AppendVMs(dst []*VM) []*VM {
	start := len(dst)
	dst = append(dst, c.live...)
	slices.SortFunc(dst[start:], func(a, b *VM) int { return cmp.Compare(a.ID, b.ID) })
	return dst
}

// VMHost returns the brick hosting a VM.
func (c *Controller) VMHost(id hypervisor.VMID) (topo.BrickID, bool) {
	vm := c.find(id)
	if vm == nil {
		return topo.BrickID{}, false
	}
	return vm.host, true
}

// VM returns the hypervisor VM object.
func (c *Controller) VM(id hypervisor.VMID) (*hypervisor.VM, bool) {
	vm := c.find(id)
	if vm == nil {
		return nil, false
	}
	return &vm.VM, true
}

// ScaleUp grows a VM's memory by size, posted at virtual time now. The
// attachment comes from the rack-local SDM controller.
func (c *Controller) ScaleUp(now sim.Time, id hypervisor.VMID, size brick.Bytes) (Result, error) {
	return c.ScaleUpVia(now, id, size, c.sdmc.AttachRemoteMemory)
}

// ScaleUpVia grows a VM's memory like ScaleUp but sources the SDM
// attachment from the given function instead of the rack-local
// controller — the hook the pod tier uses to spill attachments
// cross-rack while the baremetal hotplug and hypervisor steps stay
// brick-local. Teardown needs no counterpart hook: detaching routes
// through the attachment itself.
func (c *Controller) ScaleUpVia(now sim.Time, id hypervisor.VMID, size brick.Bytes, attach func(owner string, cpu topo.BrickID, size brick.Bytes) (*sdm.Attachment, sim.Duration, error)) (Result, error) {
	vm := c.find(id)
	if vm == nil {
		return Result{}, fmt.Errorf("scaleup: no VM %q", id)
	}
	if size == 0 {
		return Result{}, fmt.Errorf("scaleup: zero-size scale-up for %q", id)
	}

	// Step 2: orchestration, serialized through the SDM service.
	att, orchLat, err := attach(string(id), vm.host, size)
	if err != nil {
		return Result{}, err
	}
	return c.Bind(now, vm, att, orchLat)
}

// BindAttachment completes a scale-up whose SDM attachment was already
// provisioned — the tail of ScaleUpVia (steps 3 and 4: baremetal
// hot-add + online, hypervisor DIMM attach), plus the SDM-queue
// serialization of the attachment's orchestration latency. This is how
// batch admission joins the scale-up control path: the pod tier
// provisions a whole burst of attachments through AdmitBatch, then each
// VM's rack controller binds its attachment here. On any hotplug
// failure the attachment is detached and the error returned.
func (c *Controller) BindAttachment(now sim.Time, id hypervisor.VMID, att *sdm.Attachment, orchLat sim.Duration) (Result, error) {
	vm := c.find(id)
	if vm == nil {
		return Result{}, fmt.Errorf("scaleup: no VM %q", id)
	}
	return c.Bind(now, vm, att, orchLat)
}

// Bind is BindAttachment for a VM handle.
func (c *Controller) Bind(now sim.Time, vm *VM, att *sdm.Attachment, orchLat sim.Duration) (Result, error) {
	if !c.owns(vm) {
		return Result{}, fmt.Errorf("scaleup: no VM %q", vmID(vm))
	}
	id, n := vm.ID, vm.node
	size := att.Size()
	arrive := now.Add(c.cfg.APIOverhead)
	start, orchDone := c.sdmQueue.Serve(arrive, orchLat)

	// Step 3: baremetal hot-add + online of the new window.
	addLat, err := n.kernel.HotAdd(att.Window.Base, size)
	if err != nil {
		c.sdmc.DetachRemoteMemory(att)
		return Result{}, err
	}
	onLat, err := n.kernel.Online(att.Window.Base, size)
	if err != nil {
		c.sdmc.DetachRemoteMemory(att)
		return Result{}, err
	}

	// Step 4: hypervisor expands the VM.
	dimm, hvLat, err := n.hv.AttachDIMM(&vm.VM, size)
	if err != nil {
		n.kernel.Offline(att.Window.Base, size)
		n.kernel.HotRemove(att.Window.Base, size)
		c.sdmc.DetachRemoteMemory(att)
		return Result{}, err
	}
	vm.bindings = append(vm.bindings, binding{att: att, dimm: dimm})
	c.scaleUps++
	if c.journal != nil {
		c.journal.Append(now, trace.KindAttach, string(id), "+%v (%v mode) from %v", size, att.Mode, att.Segment.Brick)
	}

	bm := addLat + onLat
	return Result{
		Requested:     now,
		Started:       start,
		Done:          orchDone.Add(bm + hvLat),
		Orchestration: orchLat,
		Baremetal:     bm,
		Virtual:       hvLat,
		Size:          size,
	}, nil
}

// ScaleDown releases the most recently attached scale-up increment of at
// least size (LIFO, matching the balloon-assisted shrink path).
func (c *Controller) ScaleDown(now sim.Time, id hypervisor.VMID, size brick.Bytes) (Result, error) {
	vm := c.find(id)
	if vm == nil {
		return Result{}, fmt.Errorf("scaleup: no VM %q", id)
	}
	bs := vm.bindings
	idx := -1
	for i := len(bs) - 1; i >= 0; i-- {
		if bs[i].dimm.Size < size {
			continue
		}
		// A circuit carrying packet-mode riders cannot be torn down;
		// pick a binding that is actually releasable right now.
		if bs[i].att.Mode == sdm.ModeCircuit && c.sdmc.Riders(bs[i].att) > 0 {
			continue
		}
		idx = i
		break
	}
	if idx == -1 {
		return Result{}, fmt.Errorf("scaleup: VM %q has no releasable attachment of at least %v (ridered circuits excluded)", id, size)
	}
	b := bs[idx]
	n := vm.node

	// Pre-check the usage guard before mutating any layer, so a refusal
	// cannot leave the kernel and hypervisor views disagreeing.
	if !vm.CanShrink(b.dimm.Size) {
		return Result{}, fmt.Errorf("scaleup: releasing %v would drop VM %q below its %v working set", b.dimm.Size, id, vm.Usage())
	}

	hvLat, err := n.hv.DetachDIMM(&vm.VM, b.dimm.ID)
	if err != nil {
		return Result{}, err
	}
	offLat, err := n.kernel.Offline(b.att.Window.Base, b.att.Size())
	if err != nil {
		return Result{}, err
	}
	rmLat, err := n.kernel.HotRemove(b.att.Window.Base, b.att.Size())
	if err != nil {
		return Result{}, err
	}
	orchLat, err := c.sdmc.DetachRemoteMemory(b.att)
	if err != nil {
		return Result{}, err
	}
	vm.bindings = append(bs[:idx], bs[idx+1:]...)
	c.scaleDowns++
	if c.journal != nil {
		c.journal.Append(now, trace.KindDetach, string(id), "-%v", b.att.Size())
	}

	arrive := now.Add(c.cfg.APIOverhead)
	start, orchDone := c.sdmQueue.Serve(arrive, sim.Duration(orchLat))
	bm := offLat + rmLat
	return Result{
		Requested:     now,
		Started:       start,
		Done:          orchDone.Add(bm + hvLat),
		Orchestration: sim.Duration(orchLat),
		Baremetal:     bm,
		Virtual:       hvLat,
		Size:          b.dimm.Size,
	}, nil
}

// ScaleOutBaseline models the conventional alternative (paper ref. [13]):
// spawning an additional VM to bring more memory to an application. The
// reservation serializes through the same orchestration service; the
// spawn itself runs brick-locally.
func (c *Controller) ScaleOutBaseline(now sim.Time, id hypervisor.VMID, spec hypervisor.VMSpec) (Result, error) {
	_, res, err := c.CreateVM(now, id, spec)
	return res, err
}

// Stats returns cumulative scale-up/down counters.
func (c *Controller) Stats() (scaleUps, scaleDowns uint64) { return c.scaleUps, c.scaleDowns }
