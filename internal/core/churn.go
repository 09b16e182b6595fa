package core

import (
	"fmt"
	"sort"

	"repro/internal/hypervisor"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// Churn: the scale-down half of the pod facade. DestroyVMs is
// CreateVMs' inverse — a batched group-commit teardown through the pod
// scheduler — and Consolidate is the re-packing pass that drains sparse
// racks (VMs migrate off, parked remote memory re-homes) so whole racks
// can power down under sustained arrivals and departures.

// DestroyVMs retires a burst of VMs through the pod scheduler's batched
// group-commit eviction: every VM's attachments and compute reservation
// tear down with one index refresh per touched brick (a batch of one
// reproduces the per-request teardown exactly), then each VM's software
// stack — DIMMs, baremetal ranges, the hypervisor object — unwinds on
// its rack. Teardown is all-or-nothing at the SDM layer: if any
// eviction fails, no resource is released and no VM is touched. The
// clock advances past the whole group's completion. workers is unused:
// the commit runs on the caller's goroutine.
func (p *Pod) DestroyVMs(ids []string, workers int) ([]scaleup.Result, error) {
	seen := make(map[string]bool, len(ids))
	ereqs := make([]sdm.EvictRequest, len(ids))
	for i, id := range ids {
		rack, ok := p.vmRack[id]
		if !ok || seen[id] {
			return nil, fmt.Errorf("core: no VM %q in the pod", id)
		}
		seen[id] = true
		scale := p.stacks[rack].scale
		host, _ := scale.VMHost(hypervisor.VMID(id))
		spec, _ := scale.VMSpec(hypervisor.VMID(id))
		// Newest-first so packet riders detach before the circuits they
		// ride.
		atts := scale.BoundAttachments(hypervisor.VMID(id))
		for a, b := 0, len(atts)-1; a < b; a, b = a+1, b-1 {
			atts[a], atts[b] = atts[b], atts[a]
		}
		ereqs[i] = sdm.EvictRequest{
			Owner: id, CPU: host, Rack: rack,
			VCPUs: spec.VCPUs, LocalMem: spec.Memory, Atts: atts,
		}
	}
	evicted, err := p.sched.EvictBatch(ereqs)
	if err != nil {
		return nil, err
	}
	results := make([]scaleup.Result, len(ids))
	done := p.now
	for i, id := range ids {
		rack := p.vmRack[id]
		res, err := p.stacks[rack].scale.EvictVM(p.now, hypervisor.VMID(id), evicted[i].DetachLat)
		if err != nil {
			// The SDM teardown already committed; a software-stack unwind
			// failure past it is a controller bug worth surfacing loudly.
			return nil, fmt.Errorf("core: batch teardown of %q: %w", id, err)
		}
		delete(p.vmRack, id)
		results[i] = res
		if res.Done > done {
			done = res.Done
		}
	}
	p.now = done
	return results, nil
}

// DestroyVM retires one VM — a teardown batch of one, byte-identical
// to the per-request detach path. The clock advances past completion.
func (p *Pod) DestroyVM(id string) (scaleup.Result, error) {
	res, err := p.DestroyVMs([]string{id}, 1)
	if err != nil {
		return scaleup.Result{}, err
	}
	return res[0], nil
}

// RebalanceBatch runs one rebalancing sweep with every rack's index
// maintenance group-committed — the batched counterpart of Rebalance,
// with a byte-identical report. The clock advances past the sweep.
func (p *Pod) RebalanceBatch() sdm.RebalanceReport {
	rep := p.sched.RebalanceBatch(p.now)
	p.now = p.now.Add(rep.Latency)
	return rep
}

// PodConsolidation reports one pod-level consolidation pass: the VM
// re-packing phase on top of the scheduler's memory drain.
type PodConsolidation struct {
	sdm.ConsolidationReport
	// VMsMoved counts VMs migrated off sparse racks; MovesFailed counts
	// migrations that rolled back; MoveDowntime is their summed downtime.
	VMsMoved     int
	MovesFailed  int
	MoveDowntime sim.Duration
}

// Consolidate runs one re-packing pass: VMs on sparse trailing racks
// migrate onto the lowest-index rack with room (remote segments stay
// put; circuits re-point through the pod switch), then the scheduler's
// consolidation drains the remote memory parked on the now-empty racks
// and powers every drained brick down. Opportunistic like the
// rebalancer: a migration that fails rolls back and is reported, never
// propagated. The clock advances past the migrations and the drain.
func (p *Pod) Consolidate() PodConsolidation {
	var rep PodConsolidation
	for d := len(p.stacks) - 1; d >= 1; d-- {
		// The VMs on this rack, in deterministic order.
		var ids []string
		for id, r := range p.vmRack {
			if r == d {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			scale := p.stacks[d].scale
			spec, ok := scale.VMSpec(hypervisor.VMID(id))
			if !ok {
				continue
			}
			target := -1
			for t := 0; t < d; t++ {
				if p.sched.Rack(t).CanPlaceCompute(spec.VCPUs, spec.Memory) {
					target = t
					break
				}
			}
			if target < 0 {
				continue
			}
			src, dst := d, target
			rackOf := func(onto *scaleup.Controller) int {
				if onto == scale {
					return src
				}
				return dst
			}
			res, err := scale.MigrateTo(p.now, hypervisor.VMID(id), p.stacks[dst].scale,
				func(att *sdm.Attachment, onto *scaleup.Controller, cpu topo.BrickID) (tgl.Entry, sim.Duration, error) {
					return p.sched.Repoint(att, topo.PodBrickID{Rack: rackOf(onto), Brick: cpu})
				})
			if err != nil {
				rep.MovesFailed++
				continue
			}
			p.vmRack[id] = dst
			rep.VMsMoved++
			rep.MoveDowntime += res.Downtime
			p.now = p.now.Add(res.Downtime)
		}
	}
	rep.ConsolidationReport = p.sched.Consolidate(p.now)
	p.now = p.now.Add(rep.Latency)
	return rep
}
