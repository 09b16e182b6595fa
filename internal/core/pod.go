package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/optical"
	"repro/internal/pktnet"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// PodConfig assembles a pod of identical racks under one inter-rack
// optical tier.
type PodConfig struct {
	// Racks is the number of racks in the pod.
	Racks int
	// Rack is the per-rack assembly, reused verbatim for every rack.
	Rack Config
	// Fabric is the inter-rack tier: the pod circuit switch and its
	// hop/fiber/reconfig profile.
	Fabric optical.PodProfile
}

// DefaultPodConfig is n default racks under the default pod profile.
func DefaultPodConfig(n int) PodConfig {
	return PodConfig{Racks: n, Rack: DefaultConfig(), Fabric: optical.DefaultPodProfile}
}

// Validate rejects unusable pod configurations.
func (c PodConfig) Validate() error {
	if c.Racks <= 0 {
		return fmt.Errorf("core: pod needs at least one rack, got %d", c.Racks)
	}
	return c.Fabric.Validate(c.Racks)
}

// Pod is the multi-rack facade: N assembled racks sharded behind one
// pod scheduler, with the Datacenter's programming model (CreateVM,
// ScaleUpVM, RemoteAccess, MigrateVM) extended across racks. Placement
// is rack-local first; memory a rack cannot supply spills cross-rack
// through the pod circuit switch, and VMs without remote attachments
// can migrate to another rack entirely.
//
// Clock contract: identical to Datacenter — control-plane operations
// advance the clock past their completion, datapath measurements and
// queries never move it.
type Pod struct {
	cfg    PodConfig
	pod    *topo.Pod
	fabric *optical.PodFabric
	sched  *sdm.PodScheduler
	stacks []*rackStack

	// vms tracks which rack hosts each VM, beside its Scale-up handle.
	vms vmTable
	// burst is the reused state of CreateVMs, DestroyVMs and Consolidate.
	burst burstScratch

	now sim.Time
}

// NewPod assembles a pod from the config.
func NewPod(cfg PodConfig) (*Pod, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pod, err := topo.BuildPod(cfg.Racks, cfg.Rack.Topology)
	if err != nil {
		return nil, err
	}
	fabrics := make([]*optical.Fabric, cfg.Racks)
	for i := range fabrics {
		if fabrics[i], err = newRackFabric(cfg.Rack); err != nil {
			return nil, err
		}
	}
	pf, err := optical.NewPodFabric(cfg.Fabric, fabrics)
	if err != nil {
		return nil, err
	}
	sched, err := sdm.NewPodScheduler(pod, pf, cfg.Rack.Bricks, cfg.Rack.SDM)
	if err != nil {
		return nil, err
	}
	p := &Pod{
		cfg:    cfg,
		pod:    pod,
		fabric: pf,
		sched:  sched,
		vms:    newVMTable(),
	}
	for i := 0; i < cfg.Racks; i++ {
		stack, err := newRackStack(pod.Rack(i), sched.Rack(i), cfg.Rack)
		if err != nil {
			return nil, fmt.Errorf("core: rack %d stack: %w", i, err)
		}
		p.stacks = append(p.stacks, stack)
	}
	return p, nil
}

// Now returns the pod's virtual clock.
func (p *Pod) Now() sim.Time { return p.now }

// Config returns the configuration the pod was assembled from.
func (p *Pod) Config() PodConfig { return p.cfg }

// Advance moves the virtual clock forward explicitly.
func (p *Pod) Advance(dur sim.Duration) error {
	if dur < 0 {
		return fmt.Errorf("core: cannot advance clock by %v", dur)
	}
	p.now = p.now.Add(dur)
	return nil
}

// Racks returns the rack count.
func (p *Pod) Racks() int { return p.cfg.Racks }

// Rack exposes one rack's topology.
func (p *Pod) Rack(i int) *topo.Rack { return p.pod.Rack(i) }

// Topology exposes the pod topology.
func (p *Pod) Topology() *topo.Pod { return p.pod }

// Scheduler exposes the pod-tier orchestration layer.
func (p *Pod) Scheduler() *sdm.PodScheduler { return p.sched }

// Fabric exposes the pod optical fabric.
func (p *Pod) Fabric() *optical.PodFabric { return p.fabric }

// ScaleController exposes one rack's Scale-up controller.
func (p *Pod) ScaleController(rack int) (*scaleup.Controller, bool) {
	if rack < 0 || rack >= len(p.stacks) {
		return nil, false
	}
	return p.stacks[rack].scale, true
}

// VMRack returns the rack hosting a VM.
func (p *Pod) VMRack(id string) (int, bool) {
	s, ok := p.vms.find(id)
	if !ok {
		return 0, false
	}
	return int(p.vms.at(s).rack), true
}

// VM returns the hypervisor view of a VM.
func (p *Pod) VM(id string) (*hypervisor.VM, bool) {
	s, ok := p.vms.find(id)
	if !ok {
		return nil, false
	}
	return &p.vms.at(s).vm.VM, true
}

// CreateVM boots a VM somewhere in the pod: the pod policy picks the
// rack, the rack's SDM controller picks the brick. The clock advances
// past the creation delay.
func (p *Pod) CreateVM(id string, vcpus int, memory brick.Bytes) (scaleup.Result, error) {
	p.vms.begin()
	s, fresh := p.vms.claim(id)
	if !fresh {
		return scaleup.Result{}, fmt.Errorf("core: VM %q already exists in the pod", id)
	}
	rack, ok := p.sched.PickComputeRack(vcpus, memory)
	if !ok {
		p.vms.drop(id, s)
		return scaleup.Result{}, fmt.Errorf("core: no rack in the %d-rack pod can host %d vCPUs and %v", p.cfg.Racks, vcpus, memory)
	}
	scale := p.stacks[rack].scale
	_, res, err := scale.CreateVM(p.now, hypervisor.VMID(id), hypervisor.VMSpec{VCPUs: vcpus, Memory: memory})
	if err != nil {
		p.vms.drop(id, s)
		return scaleup.Result{}, err
	}
	slot := p.vms.at(s)
	slot.rack = int32(rack)
	slot.vm, _ = scale.Lookup(hypervisor.VMID(id))
	p.now = res.Done
	return res, nil
}

// VMCreate describes one VM of a batch admission: its boot resources
// and, optionally, remote memory attached as part of the same
// admission.
type VMCreate struct {
	ID     string
	VCPUs  int
	Memory brick.Bytes
	// Remote, when nonzero, bundles a remote-memory scale-up of that
	// size into the admission.
	Remote brick.Bytes
}

// CreateVMs boots a burst of VMs through the pod scheduler's batched
// group-commit admission: the whole burst is partitioned across rack
// shards by the O(1) rack-choice aggregates and group-committed with
// one index refresh per touched brick, and a batch of one reproduces
// CreateVM (plus ScaleUpVM for a bundled Remote) exactly. Admission is
// all-or-nothing: if any VM cannot be placed, nothing is admitted.
// The clock advances past the whole group's completion. workers is
// unused: the commit runs on the caller's goroutine.
func (p *Pod) CreateVMs(reqs []VMCreate, workers int) ([]scaleup.Result, error) {
	p.vms.begin()
	areqs, admitted, slots := p.burst.admitBufs(len(reqs))
	for i, r := range reqs {
		s, fresh := p.vms.claim(r.ID)
		if !fresh {
			err := fmt.Errorf("core: VM %q already exists in the pod", r.ID)
			if p.vms.named(s) {
				err = fmt.Errorf("core: VM %q named twice in the burst", r.ID)
			}
			p.vms.unclaim(reqs[:i], slots[:i])
			return nil, err
		}
		slots[i] = s
		areqs[i] = sdm.AdmitRequest{Owner: r.ID, VCPUs: r.VCPUs, LocalMem: r.Memory, Remote: r.Remote}
	}
	if err := p.sched.AdmitBatchInto(areqs, admitted, 0); err != nil {
		p.vms.unclaim(reqs, slots)
		return nil, err
	}
	results := make([]scaleup.Result, len(reqs))
	done := p.now
	for i, r := range reqs {
		scale := p.stacks[admitted[i].Rack].scale
		vm, res, err := scale.AdoptVM(p.now, hypervisor.VMID(r.ID), hypervisor.VMSpec{VCPUs: r.VCPUs, Memory: r.Memory}, admitted[i].CPU, admitted[i].ComputeLat)
		if err != nil {
			// Boot failures here (fragmented window space, exhausted RMST
			// slots) void the whole burst: release what this and the
			// not-yet-adopted admissions hold, and unwind the VMs already
			// adopted so admission stays all-or-nothing.
			p.releaseAdmitted(reqs[i:], admitted[i:])
			p.unwindAdopted(reqs, admitted, slots, i)
			return nil, fmt.Errorf("core: batch boot of %q: %w", r.ID, err)
		}
		if admitted[i].Att != nil {
			// The bind joins at the VM's boot completion, not the batch
			// post time: remote memory becomes usable only once the VM
			// exists, and a batch of one then times its bundled Remote
			// exactly like ScaleUpVM issued after CreateVM returns.
			up, err := scale.Bind(res.Done, vm, admitted[i].Att, admitted[i].AttachLat)
			if err != nil {
				// Bind already detached the failing request's
				// attachment; discard its freshly spawned VM, release its
				// compute along with the not-yet-adopted admissions, and
				// unwind the already-adopted prefix.
				scale.DiscardVM(vm)
				admitted[i].Att = nil
				p.releaseAdmitted(reqs[i:], admitted[i:])
				p.unwindAdopted(reqs, admitted, slots, i)
				return nil, fmt.Errorf("core: batch scale-up of %q: %w", r.ID, err)
			}
			// Fold the bundled scale-up into the admission's result: the
			// VM is usable when both its boot and its remote memory are.
			if up.Done > res.Done {
				res.Done = up.Done
			}
			res.Orchestration += up.Orchestration
			res.Baremetal += up.Baremetal
			res.Virtual += up.Virtual
			res.Size += up.Size
		}
		slot := p.vms.at(slots[i])
		slot.rack, slot.vm = int32(admitted[i].Rack), vm
		results[i] = res
		if res.Done > done {
			done = res.Done
		}
	}
	p.now = done
	return results, nil
}

// releaseAdmitted tears down batch admissions that never made it into a
// running VM (best-effort, error path only).
func (p *Pod) releaseAdmitted(reqs []VMCreate, admitted []sdm.AdmitResult) {
	for i := len(admitted) - 1; i >= 0; i-- {
		if admitted[i].Att != nil {
			p.sched.DetachRemoteMemory(admitted[i].Att)
		}
		p.sched.ReleaseCompute(topo.PodBrickID{Rack: admitted[i].Rack, Brick: admitted[i].CPU}, reqs[i].VCPUs, reqs[i].Memory)
	}
}

// unwindAdopted retires the first n VMs of a failed burst, which were
// already adopted and bound, newest first, so the whole burst stays
// all-or-nothing (best-effort, error path only): the software stack
// unwinds through EvictVM, then the admission's attachment and compute
// release like never-adopted ones. Every name the burst claimed leaves
// the table.
func (p *Pod) unwindAdopted(reqs []VMCreate, admitted []sdm.AdmitResult, slots []int32, n int) {
	for i := n - 1; i >= 0; i-- {
		p.stacks[admitted[i].Rack].scale.EvictVM(p.now, p.vms.at(slots[i]).vm, 0)
	}
	p.releaseAdmitted(reqs[:n], admitted[:n])
	p.vms.unclaim(reqs, slots)
}

// ScaleUpVM grows a VM's memory: rack-local disaggregated memory when
// the home rack has it, a cross-rack attachment through the pod switch
// when it does not. The clock advances past the request's completion.
func (p *Pod) ScaleUpVM(id string, size brick.Bytes) (scaleup.Result, error) {
	rack, ok := p.VMRack(id)
	if !ok {
		return scaleup.Result{}, fmt.Errorf("core: no VM %q in the pod", id)
	}
	res, err := p.stacks[rack].scale.ScaleUpVia(p.now, hypervisor.VMID(id), size,
		func(owner string, cpu topo.BrickID, size brick.Bytes) (*sdm.Attachment, sim.Duration, error) {
			return p.sched.AttachRemoteMemory(owner, topo.PodBrickID{Rack: rack, Brick: cpu}, size)
		})
	if err != nil {
		return scaleup.Result{}, err
	}
	p.now = res.Done
	return res, nil
}

// ScaleDownVM releases remote memory from a VM (LIFO, like the
// Datacenter facade); cross-rack attachments tear down through the pod
// tier transparently. The clock advances past the request's completion.
func (p *Pod) ScaleDownVM(id string, size brick.Bytes) (scaleup.Result, error) {
	rack, ok := p.VMRack(id)
	if !ok {
		return scaleup.Result{}, fmt.Errorf("core: no VM %q in the pod", id)
	}
	res, err := p.stacks[rack].scale.ScaleDown(p.now, hypervisor.VMID(id), size)
	if err != nil {
		return scaleup.Result{}, err
	}
	p.now = res.Done
	return res, nil
}

// RemoteAccess issues one remote memory transaction at a VM-relative
// offset into its remote window, exactly like Datacenter.RemoteAccess —
// but the selected attachment may cross the pod tier, in which case the
// breakdown reflects the longer inter-rack fiber and extra switch hops.
// As a pure datapath measurement it does not advance the facade clock.
func (p *Pod) RemoteAccess(id string, op mem.Op, offset uint64, size int) (pktnet.Breakdown, error) {
	rack, ok := p.VMRack(id)
	if !ok {
		return pktnet.Breakdown{}, fmt.Errorf("core: no VM %q in the pod", id)
	}
	return p.stacks[rack].remoteAccess(p.cfg.Rack.Packet, id, op, offset, size,
		// The memory brick lives on the attachment's memory rack — brick
		// IDs collide across racks, so the rack index disambiguates.
		func(att *sdm.Attachment, b topo.BrickID) (*mem.DDRController, bool) {
			return p.stacks[att.MemRack].memController(b)
		})
}

// PodMigration reports one pod-level VM migration.
type PodMigration struct {
	scaleup.MigrationResult
	// FromRack and ToRack are the pod rack indexes; equal for a
	// rack-local migration.
	FromRack, ToRack int
}

// MigrateVM moves a VM: rack-locally when its home rack has another
// brick with room, and otherwise cross-rack. Either way the remote
// segments stay exactly where they are — circuits re-point through the
// rack fabric or the pod switch so a VM's remote memory follows it
// across racks, and only the brick-local boot state ships over one
// inter-rack lane. A migration that fails mid-plan rolls back to the
// exact prior circuit state. The clock advances past the downtime.
func (p *Pod) MigrateVM(id string) (PodMigration, error) {
	s, ok := p.vms.find(id)
	if !ok {
		return PodMigration{}, fmt.Errorf("core: no VM %q in the pod", id)
	}
	rack, vm := int(p.vms.at(s).rack), p.vms.at(s).vm
	scale := p.stacks[rack].scale
	res, localErr := scale.Migrate(p.now, vm.ID)
	if localErr == nil {
		p.now = p.now.Add(res.Downtime)
		return PodMigration{MigrationResult: res, FromRack: rack, ToRack: rack}, nil
	}
	spec := vm.Spec
	dst, ok := p.sched.PickComputeRackExcept(spec.VCPUs, spec.Memory, rack)
	if !ok {
		return PodMigration{}, fmt.Errorf("core: rack-local migration failed (%v) and no other rack can host VM %q", localErr, id)
	}
	// The circuit mover: MigrateTo re-points forward onto the
	// destination rack and, when rolling back, onto the source rack.
	rackOf := func(onto *scaleup.Controller) int {
		if onto == scale {
			return rack
		}
		return dst
	}
	res, err := scale.MigrateTo(p.now, vm, p.stacks[dst].scale,
		func(att *sdm.Attachment, onto *scaleup.Controller, cpu topo.BrickID) (tgl.Entry, sim.Duration, error) {
			return p.sched.Repoint(att, topo.PodBrickID{Rack: rackOf(onto), Brick: cpu})
		})
	if err != nil {
		return PodMigration{}, fmt.Errorf("core: cross-rack migration of %q (after rack-local failed: %v): %w", id, localErr, err)
	}
	p.vms.at(s).rack = int32(dst)
	p.now = p.now.Add(res.Downtime)
	return PodMigration{MigrationResult: res, FromRack: rack, ToRack: dst}, nil
}

// Rebalance runs one online rebalancing sweep: cross-rack attachments
// whose home rack has memory again are promoted rack-local, oldest
// spill first, releasing their pod uplinks. The clock advances past
// the sweep's orchestration-plus-copy time.
func (p *Pod) Rebalance() sdm.RebalanceReport {
	rep := p.sched.Rebalance(p.now)
	p.now = p.now.Add(rep.Latency)
	return rep
}

// AttachAccelerator reserves an accelerator slot on the VM's home rack,
// ships the bitstream and reconfigures the slot; the clock advances
// past the total latency.
func (p *Pod) AttachAccelerator(id string, bs accel.Bitstream) (topo.PodBrickID, int, sim.Duration, error) {
	rack, ok := p.VMRack(id)
	if !ok {
		return topo.PodBrickID{}, 0, 0, fmt.Errorf("core: no VM %q in the pod", id)
	}
	brickID, slot, total, err := p.stacks[rack].attachAccelerator(id, bs)
	if err != nil {
		return topo.PodBrickID{}, 0, 0, err
	}
	p.now = p.now.Add(total)
	return topo.PodBrickID{Rack: rack, Brick: brickID}, slot, total, nil
}

// PowerOffIdle sweeps every rack and returns the total bricks stopped.
func (p *Pod) PowerOffIdle() int { return p.sched.PowerOffIdle() }

// Census returns the pod-wide power census for a brick kind.
func (p *Pod) Census(kind topo.BrickKind) sdm.PowerCensus { return p.sched.Census(kind) }

// DrawW returns the pod's current electrical draw (racks plus the pod
// switch).
func (p *Pod) DrawW() float64 { return p.sched.DrawW(brick.DefaultProfiles) }
