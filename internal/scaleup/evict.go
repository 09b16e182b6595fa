package scaleup

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/trace"
)

// EvictVM tears down a VM's software stack — every bound DIMM detaches
// from the hypervisor, its baremetal range offlines and hot-removes,
// and the VM object is evicted — without touching the SDM layer: the
// caller has already retired the attachments and the compute
// reservation through the pod tier's batched eviction
// (sdm.PodScheduler.EvictBatch), whose summed orchestration latency
// arrives as orchLat and serializes through the SDM queue exactly as
// the per-request ScaleDown path's would. This is teardown's AdoptInto:
// the batch entry point below CreateVM's sequential surface. The DIMMs
// detach without the working-set guard ScaleDown applies: the VM is
// going away, and the SDM teardown behind it has already committed.
// The record is retired: every handle method refuses it, and its owner
// may boot another VM into it through AdoptInto.
func (c *Controller) EvictVM(now sim.Time, vm *VM, orchLat sim.Duration) (Result, error) {
	if !c.owns(vm) {
		return Result{}, fmt.Errorf("scaleup: no VM %q", vmID(vm))
	}
	id, n, spec := vm.ID, vm.node, vm.Spec

	var bm, hv sim.Duration
	var size brick.Bytes
	bs := vm.bindings
	for i := len(bs) - 1; i >= 0; i-- {
		b := bs[i]
		hvLat, err := n.hv.TeardownDIMM(&vm.VM, b.dimm.ID)
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
		hv += hvLat
		bm += offLat + rmLat
		size += b.dimm.Size
	}
	if err := n.hv.Evict(&vm.VM); err != nil {
		return Result{}, err
	}
	c.remove(vm)
	vm.node = nil
	size += spec.Memory
	if c.journal != nil {
		c.journal.Append(now, trace.KindRelease, string(id), "VM destroyed on %v (%d vCPU, %v, %d bindings)", vm.host, spec.VCPUs, spec.Memory, len(bs))
	}

	arrive := now.Add(c.cfg.APIOverhead)
	start, orchDone := c.sdmQueue.Serve(arrive, orchLat)
	return Result{
		Requested:     now,
		Started:       start,
		Done:          orchDone.Add(bm + hv),
		Orchestration: orchLat,
		Baremetal:     bm,
		Virtual:       hv,
		Size:          size,
	}, nil
}
