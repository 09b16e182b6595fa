package scaleup

import (
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// MigrationResult reports one VM migration.
type MigrationResult struct {
	From, To topo.BrickID

	// Downtime is the stop-and-copy window: local memory copy plus
	// circuit re-pointing plus control traffic. Remote memory contents
	// never move.
	Downtime sim.Duration
	// LocalCopy is the time to move the VM's brick-local boot memory.
	LocalCopy sim.Duration
	// Reattach is the orchestration time to re-point every remote
	// segment's circuit and TGL window at the new brick.
	Reattach sim.Duration
	// Rehome is the baremetal hotplug work on both bricks.
	Rehome sim.Duration

	// FullCopyBaseline is what a conventional migration would pay: every
	// byte of the VM's memory (local AND remote) serialized across the
	// fabric. The disaggregated win is Downtime ≪ FullCopyBaseline for
	// memory-heavy VMs.
	FullCopyBaseline sim.Duration
}

// migrationLinkGbps is the line rate used for the stop-and-copy of
// brick-local state (one transceiver lane).
const migrationLinkGbps = 10

// Migrate moves a running VM to a different compute brick. Because the
// bulk of a scaled-up VM's memory lives on dMEMBRICKs, migration only
// copies the brick-local boot memory and re-points the circuits; the
// disaggregated segments are untouched. This realizes the project
// objective of "enhanced elasticity and improved process/virtual machine
// migration within the datacenter".
func (c *Controller) Migrate(now sim.Time, id hypervisor.VMID) (MigrationResult, error) {
	vm := c.find(id)
	if vm == nil {
		return MigrationResult{}, fmt.Errorf("scaleup: no VM %q", id)
	}
	return c.migrate(now, vm)
}

// migrate is Migrate for a VM handle; the record stays on this
// controller with its host and node re-pointed.
func (c *Controller) migrate(now sim.Time, vm *VM) (MigrationResult, error) {
	id := vm.ID
	src, spec, srcNode := vm.host, vm.Spec, vm.node
	if vm.State() != hypervisor.StateRunning {
		return MigrationResult{}, fmt.Errorf("scaleup: VM %q is not running", id)
	}

	// Pre-flight: every remote binding must be movable — one lifecycle
	// query, shared with cross-rack migration. Packet-mode riders and
	// ridden circuits cannot be re-pointed atomically, so migration
	// refuses them upfront rather than failing halfway with attachments
	// split across two bricks. Cross-rack circuits re-point through the
	// pod tier transparently. The scratch buffer keeps the pre-flight
	// allocation-free.
	c.attScratch = appendBound(c.attScratch[:0], vm.bindings)
	for _, att := range c.attScratch {
		if err := c.sdmc.CanRepoint(att); err != nil {
			return MigrationResult{}, fmt.Errorf("scaleup: VM %q cannot migrate: %w", id, err)
		}
	}

	dst, resLat, err := c.sdmc.ReserveComputeExcept(string(id), spec.VCPUs, spec.Memory, src)
	if err != nil {
		return MigrationResult{}, err
	}
	if err := preflightDestination(c.sdmc, dst, len(vm.bindings)); err != nil {
		c.sdmc.ReleaseCompute(dst, spec.VCPUs, spec.Memory)
		return MigrationResult{}, err
	}
	dstNode, err := c.nodeFor(dst)
	if err != nil {
		c.sdmc.ReleaseCompute(dst, spec.VCPUs, spec.Memory)
		return MigrationResult{}, err
	}

	res := MigrationResult{From: src, To: dst}
	res.LocalCopy = optical.SerializationDelay(int(spec.Memory), migrationLinkGbps)

	// Re-point every remote segment: circuit + TGL window move to the
	// destination brick; the baremetal kernel on each side re-homes the
	// physical range (the contents stay on the dMEMBRICK).
	for _, b := range vm.bindings {
		oldBase := b.att.Window.Base
		size := b.att.Size()
		newWindow, lat, err := c.sdmc.ReattachRemoteMemory(b.att, dst)
		if err != nil {
			c.sdmc.ReleaseCompute(dst, spec.VCPUs, spec.Memory)
			return MigrationResult{}, fmt.Errorf("scaleup: reattach during migration of %q: %w", id, err)
		}
		res.Reattach += lat
		if d, err := srcNode.kernel.Offline(oldBase, size); err == nil {
			res.Rehome += d
		} else {
			return MigrationResult{}, fmt.Errorf("scaleup: source offline during migration: %w", err)
		}
		if d, err := srcNode.kernel.HotRemove(oldBase, size); err == nil {
			res.Rehome += d
		} else {
			return MigrationResult{}, fmt.Errorf("scaleup: source remove during migration: %w", err)
		}
		if d, err := dstNode.kernel.HotAdd(newWindow.Base, size); err == nil {
			res.Rehome += d
		} else {
			return MigrationResult{}, fmt.Errorf("scaleup: destination add during migration: %w", err)
		}
		if d, err := dstNode.kernel.Online(newWindow.Base, size); err == nil {
			res.Rehome += d
		} else {
			return MigrationResult{}, fmt.Errorf("scaleup: destination online during migration: %w", err)
		}
	}

	// Hand the VM object over.
	if err := srcNode.hv.Evict(&vm.VM); err != nil {
		return MigrationResult{}, err
	}
	if err := dstNode.hv.Adopt(&vm.VM); err != nil {
		// Put it back; adoption of a running, just-evicted VM cannot
		// fail, so this is a controller bug worth surfacing loudly.
		srcNode.hv.Adopt(&vm.VM)
		return MigrationResult{}, err
	}
	if err := c.sdmc.ReleaseCompute(src, spec.VCPUs, spec.Memory); err != nil {
		return MigrationResult{}, err
	}
	vm.host, vm.node = dst, dstNode

	res.Downtime = res.LocalCopy + res.Reattach + res.Rehome + sim.Duration(resLat)

	// Conventional baseline: ship the whole footprint.
	total := vm.TotalMemory()
	res.FullCopyBaseline = optical.SerializationDelay(int(total), migrationLinkGbps)
	if c.journal != nil {
		c.journal.Append(now, trace.KindMigrate, string(id), "%v -> %v, downtime %v (full copy would be %v)",
			res.From, res.To, res.Downtime, res.FullCopyBaseline)
	}
	return res, nil
}
