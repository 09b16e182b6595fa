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

// RowConfig assembles a row of identical pods under one inter-pod
// optical tier: the recursive step up from PodConfig.
type RowConfig struct {
	// Pods is the number of pods in the row.
	Pods int
	// Racks is the number of racks per pod.
	Racks int
	// Rack is the per-rack assembly, reused verbatim for every rack.
	Rack Config
	// Fabric is the inter-rack tier inside each pod.
	Fabric optical.PodProfile
	// Row is the inter-pod tier: the row circuit switch and its
	// hop/fiber/reconfig profile.
	Row optical.RowProfile
}

// DefaultRowConfig is pods default pods of racks default racks each,
// under the default pod and row profiles.
func DefaultRowConfig(pods, racks int) RowConfig {
	return RowConfig{
		Pods:   pods,
		Racks:  racks,
		Rack:   DefaultConfig(),
		Fabric: optical.DefaultPodProfile,
		Row:    optical.DefaultRowProfile,
	}
}

// Validate rejects unusable row configurations.
func (c RowConfig) Validate() error {
	if c.Pods <= 0 {
		return fmt.Errorf("core: row needs at least one pod, got %d", c.Pods)
	}
	if c.Racks <= 0 {
		return fmt.Errorf("core: row needs at least one rack per pod, got %d", c.Racks)
	}
	if err := c.Fabric.Validate(c.Racks); err != nil {
		return err
	}
	return c.Row.Validate(c.Pods)
}

// Row is the datacenter-row facade: N assembled pods sharded behind
// one row scheduler, with the Pod's batched programming model
// (CreateVMs, DestroyVMs, Consolidate) extended across pods. Placement
// is pod-local first; memory a pod cannot supply spills cross-pod
// through the row circuit switch.
//
// Clock contract: identical to Pod — control-plane operations advance
// the clock past their completion, queries never move it.
type Row struct {
	cfg    RowConfig
	row    *topo.Row
	fabric *optical.RowFabric
	sched  *sdm.RowScheduler
	stacks [][]*rackStack

	// vms tracks which pod and rack host each VM, beside its Scale-up
	// handle.
	vms vmTable
	// burst is the reused state of CreateVMs, DestroyVMs and Consolidate.
	burst burstScratch

	now sim.Time
}

// NewRow assembles a row from the config.
func NewRow(cfg RowConfig) (*Row, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	row, err := topo.BuildRow(cfg.Pods, cfg.Racks, cfg.Rack.Topology)
	if err != nil {
		return nil, err
	}
	podFabrics := make([]*optical.PodFabric, cfg.Pods)
	for p := range podFabrics {
		fabrics := make([]*optical.Fabric, cfg.Racks)
		for i := range fabrics {
			if fabrics[i], err = newRackFabric(cfg.Rack); err != nil {
				return nil, err
			}
		}
		if podFabrics[p], err = optical.NewPodFabric(cfg.Fabric, fabrics); err != nil {
			return nil, err
		}
	}
	rf, err := optical.NewRowFabric(cfg.Row, podFabrics)
	if err != nil {
		return nil, err
	}
	sched, err := sdm.NewRowScheduler(row, rf, cfg.Rack.Bricks, cfg.Rack.SDM)
	if err != nil {
		return nil, err
	}
	r := &Row{
		cfg:    cfg,
		row:    row,
		fabric: rf,
		sched:  sched,
		vms:    newVMTable(),
	}
	for p := 0; p < cfg.Pods; p++ {
		stacks := make([]*rackStack, cfg.Racks)
		for i := 0; i < cfg.Racks; i++ {
			stack, err := newRackStack(row.Pod(p).Rack(i), sched.Pod(p).Rack(i), cfg.Rack)
			if err != nil {
				return nil, fmt.Errorf("core: pod %d rack %d stack: %w", p, i, err)
			}
			stacks[i] = stack
		}
		r.stacks = append(r.stacks, stacks)
	}
	return r, nil
}

// Now returns the row's virtual clock.
func (r *Row) Now() sim.Time { return r.now }

// Config returns the configuration the row was assembled from.
func (r *Row) Config() RowConfig { return r.cfg }

// Advance moves the virtual clock forward explicitly.
func (r *Row) Advance(dur sim.Duration) error {
	if dur < 0 {
		return fmt.Errorf("core: cannot advance clock by %v", dur)
	}
	r.now = r.now.Add(dur)
	return nil
}

// Pods returns the pod count.
func (r *Row) Pods() int { return r.cfg.Pods }

// RacksPerPod returns the per-pod rack count.
func (r *Row) RacksPerPod() int { return r.cfg.Racks }

// Topology exposes the row topology.
func (r *Row) Topology() *topo.Row { return r.row }

// Scheduler exposes the row-tier orchestration layer.
func (r *Row) Scheduler() *sdm.RowScheduler { return r.sched }

// Fabric exposes the row optical fabric.
func (r *Row) Fabric() *optical.RowFabric { return r.fabric }

// ScaleController exposes one rack's Scale-up controller.
func (r *Row) ScaleController(pod, rack int) (*scaleup.Controller, bool) {
	if pod < 0 || pod >= len(r.stacks) || rack < 0 || rack >= len(r.stacks[pod]) {
		return nil, false
	}
	return r.stacks[pod][rack].scale, true
}

// VMLoc returns the pod and rack hosting a VM.
func (r *Row) VMLoc(id string) (pod, rack int, ok bool) {
	s, ok := r.vms.find(id)
	if !ok {
		return 0, 0, false
	}
	loc := r.vms.at(s)
	return int(loc.pod), int(loc.rack), true
}

// VM returns the hypervisor view of a VM.
func (r *Row) VM(id string) (*hypervisor.VM, bool) {
	s, ok := r.vms.find(id)
	if !ok {
		return nil, false
	}
	return &r.vms.at(s).vm.VM, true
}

// CreateVM boots one VM somewhere in the row — an admission batch of
// one, byte-identical to the sequential row placement path. The clock
// advances past the creation delay.
func (r *Row) CreateVM(id string, vcpus int, memory brick.Bytes) (scaleup.Result, error) {
	res, err := r.CreateVMs([]VMCreate{{ID: id, VCPUs: vcpus, Memory: memory}}, 1)
	if err != nil {
		return scaleup.Result{}, err
	}
	return res[0], nil
}

// CreateVMs boots a burst of VMs through the row scheduler's batched
// group-commit admission: the burst is partitioned across pod shards
// by the O(1) pod-choice aggregates, each shard runs through the pod's
// own rack-sharded batch engine, and the rack→pod→row spill cascade
// merges in request order; a batch of one reproduces the sequential
// row placement exactly. Admission is all-or-nothing: if any VM cannot
// be placed, nothing is admitted. The clock advances past the whole
// group's completion. workers is unused: the commit runs on the
// caller's goroutine.
func (r *Row) CreateVMs(reqs []VMCreate, workers int) ([]scaleup.Result, error) {
	r.vms.begin()
	areqs, admitted, slots := r.burst.admitBufs(len(reqs))
	for i, req := range reqs {
		s, fresh := r.vms.claim(req.ID)
		if !fresh {
			err := fmt.Errorf("core: VM %q already exists in the row", req.ID)
			if r.vms.named(s) {
				err = fmt.Errorf("core: VM %q named twice in the burst", req.ID)
			}
			r.vms.unclaim(reqs[:i], slots[:i])
			return nil, err
		}
		slots[i] = s
		areqs[i] = sdm.AdmitRequest{Owner: req.ID, VCPUs: req.VCPUs, LocalMem: req.Memory, Remote: req.Remote}
	}
	if err := r.sched.AdmitBatchInto(areqs, admitted, 0); err != nil {
		r.vms.unclaim(reqs, slots)
		return nil, err
	}
	results := make([]scaleup.Result, len(reqs))
	done := r.now
	for i, req := range reqs {
		scale := r.stacks[admitted[i].Pod][admitted[i].Rack].scale
		vm, res, err := scale.AdoptVM(r.now, hypervisor.VMID(req.ID), hypervisor.VMSpec{VCPUs: req.VCPUs, Memory: req.Memory}, admitted[i].CPU, admitted[i].ComputeLat)
		if err != nil {
			r.releaseAdmitted(reqs[i:], admitted[i:])
			r.unwindAdopted(reqs, admitted, slots, i)
			return nil, fmt.Errorf("core: batch boot of %q: %w", req.ID, err)
		}
		if admitted[i].Att != nil {
			up, err := scale.Bind(res.Done, vm, admitted[i].Att, admitted[i].AttachLat)
			if err != nil {
				scale.DiscardVM(vm)
				admitted[i].Att = nil
				r.releaseAdmitted(reqs[i:], admitted[i:])
				r.unwindAdopted(reqs, admitted, slots, i)
				return nil, fmt.Errorf("core: batch scale-up of %q: %w", req.ID, err)
			}
			if up.Done > res.Done {
				res.Done = up.Done
			}
			res.Orchestration += up.Orchestration
			res.Baremetal += up.Baremetal
			res.Virtual += up.Virtual
			res.Size += up.Size
		}
		slot := r.vms.at(slots[i])
		slot.pod, slot.rack, slot.vm = int32(admitted[i].Pod), int32(admitted[i].Rack), vm
		results[i] = res
		if res.Done > done {
			done = res.Done
		}
	}
	r.now = done
	return results, nil
}

// releaseAdmitted tears down batch admissions that never made it into
// a running VM (best-effort, error path only).
func (r *Row) releaseAdmitted(reqs []VMCreate, admitted []sdm.AdmitResult) {
	for i := len(admitted) - 1; i >= 0; i-- {
		if admitted[i].Att != nil {
			r.sched.DetachRemoteMemory(admitted[i].Att)
		}
		r.sched.ReleaseCompute(topo.RowBrickID{Pod: admitted[i].Pod, Rack: admitted[i].Rack, Brick: admitted[i].CPU}, reqs[i].VCPUs, reqs[i].Memory)
	}
}

// unwindAdopted retires the first n VMs of a failed burst, which were
// already adopted and bound, newest first, and drops every name the
// burst claimed (best-effort, error path only).
func (r *Row) unwindAdopted(reqs []VMCreate, admitted []sdm.AdmitResult, slots []int32, n int) {
	for i := n - 1; i >= 0; i-- {
		r.stacks[admitted[i].Pod][admitted[i].Rack].scale.EvictVM(r.now, r.vms.at(slots[i]).vm, 0)
	}
	r.releaseAdmitted(reqs[:n], admitted[:n])
	r.vms.unclaim(reqs, slots)
}

// ScaleUpVM grows a VM's memory: rack-local or cross-rack within its
// home pod when the pod has it, a cross-pod attachment through the row
// switch when it does not. The clock advances past completion.
func (r *Row) ScaleUpVM(id string, size brick.Bytes) (scaleup.Result, error) {
	pod, rack, ok := r.VMLoc(id)
	if !ok {
		return scaleup.Result{}, fmt.Errorf("core: no VM %q in the row", id)
	}
	res, err := r.stacks[pod][rack].scale.ScaleUpVia(r.now, hypervisor.VMID(id), size,
		func(owner string, cpu topo.BrickID, size brick.Bytes) (*sdm.Attachment, sim.Duration, error) {
			return r.sched.AttachRemoteMemory(owner, topo.RowBrickID{Pod: pod, Rack: rack, Brick: cpu}, size)
		})
	if err != nil {
		return scaleup.Result{}, err
	}
	r.now = res.Done
	return res, nil
}

// ScaleDownVM releases remote memory from a VM (LIFO); cross-rack and
// cross-pod attachments tear down through their owning tier
// transparently. The clock advances past completion.
func (r *Row) ScaleDownVM(id string, size brick.Bytes) (scaleup.Result, error) {
	pod, rack, ok := r.VMLoc(id)
	if !ok {
		return scaleup.Result{}, fmt.Errorf("core: no VM %q in the row", id)
	}
	res, err := r.stacks[pod][rack].scale.ScaleDown(r.now, hypervisor.VMID(id), size)
	if err != nil {
		return scaleup.Result{}, err
	}
	r.now = res.Done
	return res, nil
}

// DestroyVMs retires a burst of VMs through the row scheduler's
// batched group-commit eviction: pod-contained teardowns run on pod
// shards, cross-pod circuits release serially in request order, and
// each VM's software stack unwinds on its rack. Teardown is
// all-or-nothing at the SDM layer. The clock advances past the whole
// group's completion. workers is unused: the commit runs on the
// caller's goroutine.
func (r *Row) DestroyVMs(ids []string, workers int) ([]scaleup.Result, error) {
	r.vms.begin()
	ereqs, evicted, slots, atts := r.burst.evictBufs(len(ids))
	for i, id := range ids {
		s, ok := r.vms.find(id)
		if !ok {
			return nil, fmt.Errorf("core: no VM %q in the row", id)
		}
		if r.vms.mark(s) {
			return nil, fmt.Errorf("core: VM %q named twice in the burst", id)
		}
		loc := r.vms.at(s)
		var req sdm.EvictRequest
		if req, atts, ok = r.stacks[loc.pod][loc.rack].scale.EvictRequest(loc.vm, atts); !ok {
			return nil, fmt.Errorf("core: VM %q missing from pod %d rack %d", id, loc.pod, loc.rack)
		}
		req.Rack, req.Pod = int(loc.rack), int(loc.pod)
		ereqs[i] = req
		slots[i] = s
	}
	r.burst.atts = atts
	if err := r.sched.EvictBatchInto(ereqs, evicted, 0); err != nil {
		return nil, err
	}
	results := make([]scaleup.Result, len(ids))
	done := r.now
	for i, id := range ids {
		res, err := r.stacks[ereqs[i].Pod][ereqs[i].Rack].scale.EvictVM(r.now, r.vms.at(slots[i]).vm, evicted[i].DetachLat)
		if err != nil {
			return nil, fmt.Errorf("core: batch teardown of %q: %w", id, err)
		}
		r.vms.drop(id, slots[i])
		results[i] = res
		if res.Done > done {
			done = res.Done
		}
	}
	r.now = done
	return results, nil
}

// DestroyVM retires one VM — a teardown batch of one, byte-identical
// to the per-request detach path. The clock advances past completion.
func (r *Row) DestroyVM(id string) (scaleup.Result, error) {
	res, err := r.DestroyVMs([]string{id}, 1)
	if err != nil {
		return scaleup.Result{}, err
	}
	return res[0], nil
}

// RowConsolidation reports one row-level consolidation pass: every
// pod's re-packing pass summed.
type RowConsolidation struct {
	sdm.ConsolidationReport
	// VMsMoved counts VMs migrated off sparse racks; MovesFailed counts
	// migrations that rolled back (including VMs pinned by cross-pod
	// attachments, which cannot re-point); MoveDowntime is their summed
	// downtime.
	VMsMoved     int
	MovesFailed  int
	MoveDowntime sim.Duration
}

// Consolidate runs one re-packing pass per pod: VMs on sparse trailing
// racks migrate onto the lowest-index rack of their pod with room,
// then each pod's scheduler drains the remote memory parked on the
// now-empty racks and powers every drained brick down. VMs holding
// cross-pod attachments stay put — row circuits cannot re-point — and
// are reported as failed moves. Opportunistic like the pod pass. The
// clock advances past the migrations and the drains.
func (r *Row) Consolidate() RowConsolidation {
	var rep RowConsolidation
	var vms []*scaleup.VM
	for p := 0; p < r.cfg.Pods; p++ {
		sched := r.sched.Pod(p)
		for d := r.cfg.Racks - 1; d >= 1; d-- {
			// The rack's VMs in ID order, listed from its own Scale-up
			// controller when the scan reaches it.
			scale := r.stacks[p][d].scale
			vms = scale.AppendVMs(vms[:0])
			for _, vm := range vms {
				s, ok := r.vms.find(string(vm.ID))
				if !ok || r.vms.at(s).vm != vm {
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
				src, dst := d, target
				rackOf := func(onto *scaleup.Controller) int {
					if onto == scale {
						return src
					}
					return dst
				}
				res, err := scale.MigrateTo(r.now, vm, r.stacks[p][dst].scale,
					func(att *sdm.Attachment, onto *scaleup.Controller, cpu topo.BrickID) (tgl.Entry, sim.Duration, error) {
						return sched.Repoint(att, topo.PodBrickID{Rack: rackOf(onto), Brick: cpu})
					})
				if err != nil {
					rep.MovesFailed++
					continue
				}
				r.vms.at(s).rack = int32(dst)
				rep.VMsMoved++
				rep.MoveDowntime += res.Downtime
				r.now = r.now.Add(res.Downtime)
			}
		}
		pr := sched.Consolidate(r.now)
		r.now = r.now.Add(pr.Latency)
		rep.ConsolidationReport = sumConsolidation(rep.ConsolidationReport, pr)
	}
	return rep
}

// sumConsolidation folds one pod's consolidation report into the
// row-wide total; At and Latency track the last pass.
func sumConsolidation(a, b sdm.ConsolidationReport) sdm.ConsolidationReport {
	a.At = b.At
	a.Scanned += b.Scanned
	a.Promoted += b.Promoted
	a.Rehomed += b.Rehomed
	a.SkippedPacket += b.SkippedPacket
	a.SkippedRiders += b.SkippedRiders
	a.SkippedNoRoom += b.SkippedNoRoom
	a.Failed += b.Failed
	a.RacksDrained += b.RacksDrained
	a.PoweredOff += b.PoweredOff
	a.DarkRacks += b.DarkRacks
	a.Latency += b.Latency
	return a
}

// PowerOffIdle sweeps every pod and returns the total bricks stopped.
func (r *Row) PowerOffIdle() int { return r.sched.PowerOffIdle() }

// Census returns the row-wide power census for a brick kind, read from
// the O(pods) hierarchical aggregates when the indexes are on.
func (r *Row) Census(kind topo.BrickKind) sdm.PowerCensus { return r.sched.AggCensus(kind) }

// DrawW returns the row's current electrical draw (pods plus the row
// switch).
func (r *Row) DrawW() float64 { return r.sched.DrawW(brick.DefaultProfiles) }
