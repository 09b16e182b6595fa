package scaleup

import (
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/optical"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
	"repro/internal/trace"
)

// bindings returns a VM's remote bindings in attach order (nil for an
// unknown VM).
func (c *Controller) bindings(id hypervisor.VMID) []binding {
	if vm := c.find(id); vm != nil {
		return vm.bindings
	}
	return nil
}

// appendBound appends the SDM attachments behind bindings bs to dst,
// in order.
func appendBound(dst []*sdm.Attachment, bs []binding) []*sdm.Attachment {
	for _, b := range bs {
		dst = append(dst, b.att)
	}
	return dst
}

// AppendBoundAttachments appends the SDM attachments behind a VM's
// remote bindings to dst, in attach order, and returns the extended
// slice — the SDM's view of what must move with the VM.
// Every binding inspection (migration pre-flight, the pod tier's
// movability checks, diagnostics) routes through this one query, with
// a reused dst so repeated inspections allocate nothing.
func (c *Controller) AppendBoundAttachments(dst []*sdm.Attachment, id hypervisor.VMID) []*sdm.Attachment {
	return appendBound(dst, c.bindings(id))
}

// EvictRequest describes a VM's SDM teardown: its compute brick and
// reservation, and its attachments newest first — the order teardown
// detaches them, so packet riders go before the circuits they ride.
// The attachments are appended to atts, which is returned extended; the
// request's Atts is exactly the appended run. The caller fills in the
// request's Rack and Pod. ok is false for a VM this controller does
// not hold.
func (c *Controller) EvictRequest(vm *VM, atts []*sdm.Attachment) (req sdm.EvictRequest, _ []*sdm.Attachment, ok bool) {
	if !c.owns(vm) {
		return sdm.EvictRequest{}, atts, false
	}
	start := len(atts)
	for i := len(vm.bindings) - 1; i >= 0; i-- {
		atts = append(atts, vm.bindings[i].att)
	}
	return sdm.EvictRequest{
		Owner: string(vm.ID), CPU: vm.host,
		VCPUs: vm.Spec.VCPUs, LocalMem: vm.Spec.Memory,
		Atts: atts[start:len(atts):len(atts)],
	}, atts, true
}

// Bindings returns the number of remote-memory bindings a VM holds.
func (c *Controller) Bindings(id hypervisor.VMID) int { return len(c.bindings(id)) }

// HasAttachmentOf reports whether the VM's bindings include the given
// attachment (diagnostic helper for pod-tier tests).
func (c *Controller) HasAttachmentOf(id hypervisor.VMID, att *sdm.Attachment) bool {
	for _, b := range c.bindings(id) {
		if b.att == att {
			return true
		}
	}
	return false
}

// VMSpec returns the resource specification a VM was created with.
func (c *Controller) VMSpec(id hypervisor.VMID) (hypervisor.VMSpec, bool) {
	vm := c.find(id)
	if vm == nil {
		return hypervisor.VMSpec{}, false
	}
	return vm.Spec, true
}

// preflightDestination verifies a destination brick can terminate
// every re-pointed circuit and TGL window before anything is torn down
// — shared by rack-local Migrate and cross-rack MigrateTo.
func preflightDestination(sdmc *sdm.Controller, dst topo.BrickID, need int) error {
	dstInfo, ok := sdmc.Compute(dst)
	if !ok {
		return fmt.Errorf("scaleup: no compute brick %v", dst)
	}
	if free := dstInfo.Brick.Ports.Free(); free < need {
		return fmt.Errorf("scaleup: destination %v has %d free ports, migration needs %d", dst, free, need)
	}
	if slots := dstInfo.Agent.Glue.Table.Capacity() - dstInfo.Agent.Glue.Table.Len(); slots < need {
		return fmt.Errorf("scaleup: destination %v has %d free RMST slots, migration needs %d", dst, slots, need)
	}
	return nil
}

// RepointFunc re-points one attachment's compute end at a brick on the
// given rack's controller — the pod scheduler's circuit mover, injected
// the way ScaleUpVia injects its attach hook so this package never
// learns about the pod tier. MigrateTo calls it with the destination
// controller going forward and the source controller when rolling back.
type RepointFunc func(att *sdm.Attachment, onto *Controller, cpu topo.BrickID) (tgl.Entry, sim.Duration, error)

// movedBinding is one binding's progress through a cross-rack
// migration: re-pointed, then the four kernel steps.
type movedBinding struct {
	att                  *sdm.Attachment
	oldBase, newBase     uint64
	srcOfflined          bool
	srcRemoved, dstAdded bool
}

// MigrateTo moves a running VM — bindings and all — onto another
// rack's controller: compute is reserved on the destination, every
// remote binding's circuit is re-pointed through repoint (becoming a
// pod-switch circuit when the memory stays behind, or collapsing
// rack-local when the VM lands beside it), the baremetal ranges are
// re-homed, the brick-local state ships over one inter-rack lane and
// the hypervisor object is adopted. Remote segment contents never
// move.
//
// On any mid-plan failure every completed step is rolled back — each
// already-moved binding is re-pointed to the source brick and its
// kernel range restored — so a failed migration leaves the exact prior
// circuit state. The VM's record moves to dst, so vm stays its handle.
func (c *Controller) MigrateTo(now sim.Time, vm *VM, dst *Controller, repoint RepointFunc) (MigrationResult, error) {
	if dst == nil || dst == c {
		return MigrationResult{}, fmt.Errorf("scaleup: MigrateTo needs a different rack's controller; use Migrate for rack-local moves")
	}
	if !c.owns(vm) {
		return MigrationResult{}, fmt.Errorf("scaleup: no VM %q", vmID(vm))
	}
	id := vm.ID
	if dst.find(id) != nil {
		return MigrationResult{}, fmt.Errorf("scaleup: VM %q already exists on the destination rack", id)
	}
	src, spec, srcNode := vm.host, vm.Spec, vm.node
	if vm.State() != hypervisor.StateRunning {
		return MigrationResult{}, fmt.Errorf("scaleup: VM %q is not running", id)
	}
	bound := appendBound(c.attScratch[:0], vm.bindings)
	c.attScratch = bound
	if len(bound) > 0 && repoint == nil {
		return MigrationResult{}, fmt.Errorf("scaleup: VM %q holds %d remote attachments and no circuit mover was supplied", id, len(bound))
	}
	// Pre-flight: the same movability query rack-local migration runs.
	for _, att := range bound {
		if err := c.sdmc.CanRepoint(att); err != nil {
			return MigrationResult{}, fmt.Errorf("scaleup: VM %q cannot migrate: %w", id, err)
		}
	}

	dstBrick, resLat, err := dst.sdmc.ReserveCompute(string(id), spec.VCPUs, spec.Memory)
	if err != nil {
		return MigrationResult{}, err
	}
	releaseDst := func() { dst.sdmc.ReleaseCompute(dstBrick, spec.VCPUs, spec.Memory) }
	if err := preflightDestination(dst.sdmc, dstBrick, len(bound)); err != nil {
		releaseDst()
		return MigrationResult{}, err
	}
	dstNode, err := dst.nodeFor(dstBrick)
	if err != nil {
		releaseDst()
		return MigrationResult{}, err
	}

	res := MigrationResult{From: src, To: dstBrick}
	res.LocalCopy = optical.SerializationDelay(int(spec.Memory), migrationLinkGbps)

	// Re-point every binding; moved tracks each one's progress through
	// the circuit swap and the four kernel steps, so a mid-plan failure
	// can restore the exact prior circuit state and a consistent kernel
	// view (the re-pointed-back window lands at a fresh base, so the
	// source range is always removed and re-added rather than left at
	// its old address). It lives in the controller's scratch, so
	// repeated migrations allocate nothing.
	moved := c.movedScratch[:0]
	rollback := func(cause error) (MigrationResult, error) {
		for i := len(moved) - 1; i >= 0; i-- {
			m := moved[i]
			size := m.att.Size()
			// Kernel teardown is best-effort — failures past this point
			// are controller bugs; the circuit restore below is the part
			// that must not be skipped.
			if m.dstAdded {
				dstNode.kernel.Offline(m.newBase, size)
				dstNode.kernel.HotRemove(m.newBase, size)
			}
			if !m.srcRemoved {
				if !m.srcOfflined {
					srcNode.kernel.Offline(m.oldBase, size)
				}
				srcNode.kernel.HotRemove(m.oldBase, size)
			}
			w, _, rerr := repoint(m.att, c, src)
			if rerr != nil {
				return MigrationResult{}, fmt.Errorf("scaleup: migration of %q failed (%v) and rollback failed: %v", id, cause, rerr)
			}
			srcNode.kernel.HotAdd(w.Base, size)
			srcNode.kernel.Online(w.Base, size)
		}
		releaseDst()
		return MigrationResult{}, cause
	}
	for _, b := range vm.bindings {
		oldBase := b.att.Window.Base
		size := b.att.Size()
		w, lat, err := repoint(b.att, dst, dstBrick)
		if err != nil {
			return rollback(fmt.Errorf("scaleup: re-point during migration of %q: %w", id, err))
		}
		res.Reattach += lat
		moved = append(moved, movedBinding{att: b.att, oldBase: oldBase, newBase: w.Base})
		c.movedScratch = moved
		m := &moved[len(moved)-1]
		// Baremetal re-home, mirroring the rack-local migration path.
		if d, err := srcNode.kernel.Offline(oldBase, size); err == nil {
			res.Rehome += d
			m.srcOfflined = true
		} else {
			return rollback(fmt.Errorf("scaleup: source offline during migration: %w", err))
		}
		if d, err := srcNode.kernel.HotRemove(oldBase, size); err == nil {
			res.Rehome += d
			m.srcRemoved = true
		} else {
			return rollback(fmt.Errorf("scaleup: source remove during migration: %w", err))
		}
		if d, err := dstNode.kernel.HotAdd(w.Base, size); err == nil {
			res.Rehome += d
			m.dstAdded = true
		} else {
			return rollback(fmt.Errorf("scaleup: destination add during migration: %w", err))
		}
		if d, err := dstNode.kernel.Online(w.Base, size); err == nil {
			res.Rehome += d
		} else {
			return rollback(fmt.Errorf("scaleup: destination online during migration: %w", err))
		}
	}

	// Hand the VM object over.
	if err := srcNode.hv.Evict(&vm.VM); err != nil {
		return rollback(err)
	}
	if err := dstNode.hv.Adopt(&vm.VM); err != nil {
		// Put it back; adoption of a running, just-evicted VM cannot
		// fail, so this is a controller bug worth surfacing loudly.
		srcNode.hv.Adopt(&vm.VM)
		return rollback(err)
	}
	// Registration moves before the source compute release: if the
	// release fails (a controller bug, surfaced loudly) the VM is still
	// consistently owned by the destination.
	vm.host, vm.node = dstBrick, dstNode
	c.remove(vm)
	dst.add(vm)
	if err := c.sdmc.ReleaseCompute(src, spec.VCPUs, spec.Memory); err != nil {
		return MigrationResult{}, err
	}

	res.Downtime = res.LocalCopy + res.Reattach + res.Rehome + resLat

	total := vm.TotalMemory()
	res.FullCopyBaseline = optical.SerializationDelay(int(total), migrationLinkGbps)
	if c.journal != nil {
		c.journal.Append(now, trace.KindMigrate, string(id), "emigrated %v -> %v with %d attachments, downtime %v (full copy would be %v)",
			res.From, res.To, len(bound), res.Downtime, res.FullCopyBaseline)
	}
	if dst.journal != nil {
		dst.journal.Append(now, trace.KindMigrate, string(id), "adopted on %v (%d vCPU, %v, %d attachments)",
			dstBrick, spec.VCPUs, spec.Memory, len(bound))
	}
	return res, nil
}
