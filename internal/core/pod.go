package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/mem"
	"repro/internal/optical"
	"repro/internal/pktnet"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/sim"
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
// can migrate to another rack entirely. It is a shell over the facade
// engine (facade.go), which runs the bursts, scale-ups and re-packing
// it shares with Row. The *hypervisor.VM that Pod.VM returns is valid
// until the VM is destroyed: a destroyed VM's record is reused by a
// later CreateVMs.
//
// Clock contract: identical to Datacenter — control-plane operations
// advance the clock past their completion, datapath measurements and
// queries never move it.
type Pod struct {
	facade

	cfg    PodConfig
	pod    *topo.Pod
	fabric *optical.PodFabric
	sched  *sdm.PodScheduler
	// stacks is the engine's one pod of rack stacks, by rack.
	stacks []*rackStack
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
	pf, err := newPodFabric(cfg.Fabric, cfg.Racks, cfg.Rack)
	if err != nil {
		return nil, err
	}
	sched, err := sdm.NewPodScheduler(pod, pf, cfg.Rack.Bricks, cfg.Rack.SDM)
	if err != nil {
		return nil, err
	}
	f, err := newFacade(&podWords, sched, []*topo.Pod{pod}, []*sdm.PodScheduler{sched}, cfg.Rack)
	if err != nil {
		return nil, err
	}
	return &Pod{facade: f, cfg: cfg, pod: pod, fabric: pf, sched: sched, stacks: f.stacks[0]}, nil
}

// Config returns the configuration the pod was assembled from.
func (p *Pod) Config() PodConfig { return p.cfg }

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
	_, rack, ok := p.locate(id)
	return rack, ok
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
	res, localErr := p.stacks[rack].scale.Migrate(p.now, vm.ID)
	if localErr == nil {
		p.now = p.now.Add(res.Downtime)
		return PodMigration{MigrationResult: res, FromRack: rack, ToRack: rack}, nil
	}
	dst, ok := p.sched.PickComputeRackExcept(vm.Spec.VCPUs, vm.Spec.Memory, rack)
	if !ok {
		return PodMigration{}, fmt.Errorf("core: rack-local migration failed (%v) and no other rack can host VM %q", localErr, id)
	}
	res, err := p.moveVM(s, 0, rack, dst)
	if err != nil {
		return PodMigration{}, fmt.Errorf("core: cross-rack migration of %q (after rack-local failed: %v): %w", id, localErr, err)
	}
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

// RebalanceBatch runs one rebalancing sweep with every rack's index
// maintenance group-committed — the batched counterpart of Rebalance,
// with a byte-identical report. The clock advances past the sweep.
func (p *Pod) RebalanceBatch() sdm.RebalanceReport {
	rep := p.sched.RebalanceBatch(p.now)
	p.now = p.now.Add(rep.Latency)
	return rep
}

// Consolidate runs one re-packing pass: VMs on sparse trailing racks
// migrate onto the lowest-index rack with room (remote segments stay
// put; circuits re-point through the pod switch), then the scheduler's
// consolidation drains the remote memory parked on the now-empty racks
// and powers every drained brick down. Opportunistic like the
// rebalancer: a migration that fails rolls back and is reported, never
// propagated. The clock advances past the migrations and the drain.
func (p *Pod) Consolidate() PodConsolidation { return p.consolidatePod(0) }

// Census returns the pod-wide power census for a brick kind.
func (p *Pod) Census(kind topo.BrickKind) sdm.PowerCensus { return p.sched.Census(kind) }
