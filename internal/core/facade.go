package core

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/optical"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// The facade engine: the Pod and Row facades written once. A Pod is
// the one-pod case of a Row — the same rack stacks indexed [pod][rack],
// the same VM table, burst scratch and clock, over the top tier's
// scheduler — so the bursts, the scale-ups and the per-pod re-packing
// pass live here, and Pod and Row are shells that add their configs,
// their typed addresses and what only one tier has.

// facadeText are the words a facade's error text is built from.
type facadeText struct {
	tier string // the facade's name
	rack string // a rack's address, formatted from its pod and rack
}

var (
	podWords = facadeText{tier: "pod", rack: "rack %[2]d"}
	rowWords = facadeText{tier: "row", rack: "pod %d rack %d"}
)

// tierSched is the top tier's scheduler as the engine calls it: the
// PodScheduler of a Pod, the RowScheduler of a Row. A burst makes one
// call through it.
type tierSched interface {
	AdmitBatchInto(reqs []sdm.AdmitRequest, out []sdm.AdmitResult, workers int) error
	EvictBatchInto(reqs []sdm.EvictRequest, out []sdm.EvictResult, workers int) error
	DetachRemoteMemory(att *sdm.Attachment) (sim.Duration, error)
	PowerOffIdle() int
	DrawW(profiles map[topo.BrickKind]brick.PowerProfile) float64
}

// facade is the engine a Pod or Row facade embeds.
//
// Clock contract: control-plane operations advance the clock past
// their completion; datapath measurements and queries never move it.
type facade struct {
	clock

	words *facadeText
	top   tierSched
	// scheds are the pod schedulers the rack stacks sit on, and stacks
	// every rack's software stack, both indexed by pod.
	scheds []*sdm.PodScheduler
	stacks [][]*rackStack

	// vms tracks which pod and rack host each VM, beside its Scale-up
	// handle.
	vms vmTable
	// burst is the reused state of CreateVMs, DestroyVMs and the
	// consolidation pass.
	burst burstScratch
}

// newFacade assembles every rack's software stack over the pod
// schedulers, pod by pod, beneath the top tier's scheduler.
func newFacade(words *facadeText, top tierSched, pods []*topo.Pod, scheds []*sdm.PodScheduler, cfg Config) (facade, error) {
	f := facade{words: words, top: top, scheds: scheds, stacks: make([][]*rackStack, len(pods)), vms: newVMTable()}
	for p, pod := range pods {
		f.stacks[p] = make([]*rackStack, pod.Racks())
		for i := range f.stacks[p] {
			stack, err := newRackStack(pod.Rack(i), scheds[p].Rack(i), cfg)
			if err != nil {
				return facade{}, fmt.Errorf("core: %s stack: %w", f.where(p, i), err)
			}
			f.stacks[p][i] = stack
		}
	}
	return f, nil
}

// newPodFabric builds racks rack fabrics from the rack config and the
// pod fabric over them.
func newPodFabric(prof optical.PodProfile, racks int, cfg Config) (*optical.PodFabric, error) {
	fabrics := make([]*optical.Fabric, racks)
	for i := range fabrics {
		var err error
		if fabrics[i], err = newRackFabric(cfg); err != nil {
			return nil, err
		}
	}
	return optical.NewPodFabric(prof, fabrics)
}

// where names a rack in the facade's error text.
func (f *facade) where(pod, rack int) string { return fmt.Sprintf(f.words.rack, pod, rack) }

// locate returns the pod and rack hosting a VM.
func (f *facade) locate(id string) (pod, rack int, ok bool) {
	s, ok := f.vms.find(id)
	if !ok {
		return 0, 0, false
	}
	loc := f.vms.at(s)
	return int(loc.pod), int(loc.rack), true
}

// VM returns the hypervisor view of a VM.
func (f *facade) VM(id string) (*hypervisor.VM, bool) {
	s, ok := f.vms.find(id)
	if !ok {
		return nil, false
	}
	return &f.vms.at(s).vm.VM, true
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

// CreateVMs boots a burst of VMs through the top scheduler's batched
// group-commit admission: the burst is partitioned across the tier's
// children by their O(1) choice aggregates, each child's share commits
// with one index refresh per touched brick, and the spill cascade
// merges in request order; a batch of one reproduces the sequential
// placement (plus ScaleUpVM for a bundled Remote) exactly. Admission is
// all-or-nothing: if any VM cannot be placed, nothing is admitted. The
// clock advances past the whole group's completion. workers is unused:
// the commit runs on the caller's goroutine.
func (f *facade) CreateVMs(reqs []VMCreate, workers int) ([]scaleup.Result, error) {
	f.vms.begin()
	areqs, admitted, slots := f.burst.admitBufs(len(reqs))
	for i, r := range reqs {
		s, fresh := f.vms.claim(r.ID)
		if !fresh {
			err := fmt.Errorf("core: VM %q already exists in the %s", r.ID, f.words.tier)
			if f.vms.named(s) {
				err = fmt.Errorf("core: VM %q named twice in the burst", r.ID)
			}
			f.vms.unclaim(reqs[:i], slots[:i])
			return nil, err
		}
		slots[i] = s
		areqs[i] = sdm.AdmitRequest{Owner: r.ID, VCPUs: r.VCPUs, LocalMem: r.Memory, Remote: r.Remote}
	}
	if err := f.top.AdmitBatchInto(areqs, admitted, 0); err != nil {
		f.vms.unclaim(reqs, slots)
		return nil, err
	}
	results := make([]scaleup.Result, len(reqs))
	done := f.now
	for i, r := range reqs {
		scale := f.stacks[admitted[i].Pod][admitted[i].Rack].scale
		vm, res, err := scale.AdoptVM(f.now, hypervisor.VMID(r.ID), hypervisor.VMSpec{VCPUs: r.VCPUs, Memory: r.Memory}, admitted[i].CPU, admitted[i].ComputeLat)
		if err != nil {
			// Boot failures here (fragmented window space, exhausted RMST
			// slots) void the whole burst: release what this and the
			// not-yet-adopted admissions hold, and unwind the VMs already
			// adopted so admission stays all-or-nothing.
			f.releaseAdmitted(reqs[i:], admitted[i:])
			f.unwindAdopted(reqs, admitted, slots, i)
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
				f.releaseAdmitted(reqs[i:], admitted[i:])
				f.unwindAdopted(reqs, admitted, slots, i)
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
		slot := f.vms.at(slots[i])
		slot.pod, slot.rack, slot.vm = int32(admitted[i].Pod), int32(admitted[i].Rack), vm
		results[i] = res
		if res.Done > done {
			done = res.Done
		}
	}
	f.now = done
	return results, nil
}

// releaseAdmitted tears down batch admissions that never made it into a
// running VM, newest first (best-effort, error path only).
func (f *facade) releaseAdmitted(reqs []VMCreate, admitted []sdm.AdmitResult) {
	for i := len(admitted) - 1; i >= 0; i-- {
		a := &admitted[i]
		if a.Att != nil {
			f.top.DetachRemoteMemory(a.Att)
		}
		if row, ok := f.top.(*sdm.RowScheduler); ok {
			row.ReleaseCompute(topo.RowBrickID{Pod: a.Pod, Rack: a.Rack, Brick: a.CPU}, reqs[i].VCPUs, reqs[i].Memory)
		} else {
			f.scheds[0].ReleaseCompute(topo.PodBrickID{Rack: a.Rack, Brick: a.CPU}, reqs[i].VCPUs, reqs[i].Memory)
		}
	}
}

// unwindAdopted retires the first n VMs of a failed burst, which were
// already adopted and bound, newest first, so the whole burst stays
// all-or-nothing (best-effort, error path only): the software stack
// unwinds through EvictVM, then the admission's attachment and compute
// release like never-adopted ones. Every name the burst claimed leaves
// the table.
func (f *facade) unwindAdopted(reqs []VMCreate, admitted []sdm.AdmitResult, slots []int32, n int) {
	for i := n - 1; i >= 0; i-- {
		f.stacks[admitted[i].Pod][admitted[i].Rack].scale.EvictVM(f.now, f.vms.at(slots[i]).vm, 0)
	}
	f.releaseAdmitted(reqs[:n], admitted[:n])
	f.vms.unclaim(reqs, slots)
}

// DestroyVMs retires a burst of VMs through the top scheduler's batched
// group-commit eviction: every VM's attachments and compute reservation
// tear down with one index refresh per touched brick (a batch of one
// reproduces the per-request teardown exactly), then each VM's software
// stack — DIMMs, baremetal ranges, the hypervisor object — unwinds on
// its rack. Teardown is all-or-nothing at the SDM layer: if any
// eviction fails, no resource is released and no VM is touched. The
// clock advances past the whole group's completion. workers is unused:
// the commit runs on the caller's goroutine.
func (f *facade) DestroyVMs(ids []string, workers int) ([]scaleup.Result, error) {
	f.vms.begin()
	ereqs, evicted, slots, atts := f.burst.evictBufs(len(ids))
	for i, id := range ids {
		s, ok := f.vms.find(id)
		if !ok {
			return nil, fmt.Errorf("core: no VM %q in the %s", id, f.words.tier)
		}
		if f.vms.mark(s) {
			return nil, fmt.Errorf("core: VM %q named twice in the burst", id)
		}
		loc := f.vms.at(s)
		var req sdm.EvictRequest
		if req, atts, ok = f.stacks[loc.pod][loc.rack].scale.EvictRequest(loc.vm, atts); !ok {
			return nil, fmt.Errorf("core: VM %q missing from %s", id, f.where(int(loc.pod), int(loc.rack)))
		}
		req.Pod, req.Rack = int(loc.pod), int(loc.rack)
		ereqs[i] = req
		slots[i] = s
	}
	f.burst.atts = atts
	if err := f.top.EvictBatchInto(ereqs, evicted, 0); err != nil {
		return nil, err
	}
	results := make([]scaleup.Result, len(ids))
	done := f.now
	for i, id := range ids {
		res, err := f.stacks[ereqs[i].Pod][ereqs[i].Rack].scale.EvictVM(f.now, f.vms.at(slots[i]).vm, evicted[i].DetachLat)
		if err != nil {
			// The SDM teardown already committed; a software-stack unwind
			// failure past it is a controller bug worth surfacing loudly.
			return nil, fmt.Errorf("core: batch teardown of %q: %w", id, err)
		}
		f.vms.drop(id, slots[i])
		results[i] = res
		if res.Done > done {
			done = res.Done
		}
	}
	f.now = done
	return results, nil
}

// DestroyVM retires one VM — a teardown batch of one, byte-identical
// to the per-request detach path. The clock advances past completion.
func (f *facade) DestroyVM(id string) (scaleup.Result, error) {
	res, err := f.DestroyVMs([]string{id}, 1)
	if err != nil {
		return scaleup.Result{}, err
	}
	return res[0], nil
}

// ScaleUpVM grows a VM's memory: rack-local disaggregated memory when
// the home rack has it, and otherwise a spill through the lowest tier
// that can serve it — cross-rack through the pod switch, cross-pod
// through the row switch. The clock advances past the request's
// completion.
func (f *facade) ScaleUpVM(id string, size brick.Bytes) (scaleup.Result, error) {
	pod, rack, ok := f.locate(id)
	if !ok {
		return scaleup.Result{}, fmt.Errorf("core: no VM %q in the %s", id, f.words.tier)
	}
	res, err := f.stacks[pod][rack].scale.ScaleUpVia(f.now, hypervisor.VMID(id), size,
		func(owner string, cpu topo.BrickID, size brick.Bytes) (*sdm.Attachment, sim.Duration, error) {
			if row, ok := f.top.(*sdm.RowScheduler); ok {
				return row.AttachRemoteMemory(owner, topo.RowBrickID{Pod: pod, Rack: rack, Brick: cpu}, size)
			}
			return f.scheds[0].AttachRemoteMemory(owner, topo.PodBrickID{Rack: rack, Brick: cpu}, size)
		})
	if err != nil {
		return scaleup.Result{}, err
	}
	f.now = res.Done
	return res, nil
}

// ScaleDownVM releases remote memory from a VM (LIFO, like the
// Datacenter facade); spilled attachments tear down through their
// owning tier transparently. The clock advances past the request's
// completion.
func (f *facade) ScaleDownVM(id string, size brick.Bytes) (scaleup.Result, error) {
	pod, rack, ok := f.locate(id)
	if !ok {
		return scaleup.Result{}, fmt.Errorf("core: no VM %q in the %s", id, f.words.tier)
	}
	res, err := f.stacks[pod][rack].scale.ScaleDown(f.now, hypervisor.VMID(id), size)
	if err != nil {
		return scaleup.Result{}, err
	}
	f.now = res.Done
	return res, nil
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

// consolidatePod runs Pod.Consolidate's re-packing pass and drain over
// pod p alone: its VMs move only between its racks.
func (f *facade) consolidatePod(p int) PodConsolidation {
	var rep PodConsolidation
	sched, stacks := f.scheds[p], f.stacks[p]
	for d := len(stacks) - 1; d >= 1; d-- {
		// The VMs on this rack, in ID order, listed from the rack's own
		// Scale-up controller when the scan reaches it.
		scale := stacks[d].scale
		f.burst.vms = scale.AppendVMs(f.burst.vms[:0])
		for _, vm := range f.burst.vms {
			s, ok := f.vms.find(string(vm.ID))
			if !ok || f.vms.at(s).vm != vm {
				continue
			}
			spec := vm.Spec
			target := -1
			for t := 0; t < d; t++ {
				if sched.Rack(t).CanPlaceCompute(spec.VCPUs, spec.Memory) {
					target = t
					break
				}
			}
			if target < 0 {
				continue
			}
			res, err := f.moveVM(s, p, d, target)
			if err != nil {
				rep.MovesFailed++
				continue
			}
			rep.VMsMoved++
			rep.MoveDowntime += res.Downtime
		}
	}
	clear(f.burst.vms)
	rep.ConsolidationReport = sched.Consolidate(f.now)
	f.now = f.now.Add(rep.Latency)
	return rep
}

// moveVM migrates the VM in table slot s from rack src to rack dst of
// pod p. Its remote segments stay put: circuits re-point through the
// pod switch onto dst, and back onto src if the migration rolls back.
// On success the slot names dst and the clock advances past the
// downtime.
func (f *facade) moveVM(s int32, p, src, dst int) (scaleup.MigrationResult, error) {
	from := f.stacks[p][src].scale
	res, err := from.MigrateTo(f.now, f.vms.at(s).vm, f.stacks[p][dst].scale,
		func(att *sdm.Attachment, onto *scaleup.Controller, cpu topo.BrickID) (tgl.Entry, sim.Duration, error) {
			rack := dst
			if onto == from {
				rack = src
			}
			return f.scheds[p].Repoint(att, topo.PodBrickID{Rack: rack, Brick: cpu})
		})
	if err != nil {
		return res, err
	}
	f.vms.at(s).rack = int32(dst)
	f.now = f.now.Add(res.Downtime)
	return res, nil
}

// PowerOffIdle sweeps every rack and returns the total bricks stopped.
func (f *facade) PowerOffIdle() int { return f.top.PowerOffIdle() }

// DrawW returns the facade's current electrical draw: its racks plus
// its pod and row switches.
func (f *facade) DrawW() float64 { return f.top.DrawW(brick.DefaultProfiles) }
