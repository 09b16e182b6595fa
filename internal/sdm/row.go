package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/topo"
)

// RowScheduler shards SDM orchestration across a row of pods — the
// datacenter-scale tier. Each pod keeps its autonomous PodScheduler
// (which in turn shards across rack controllers); the row tier routes
// requests with the same recursive placement contract one level up:
//
//   - Compute and memory go pod-local first. Pod choice is the same
//     O(1)-per-candidate arithmetic PodScheduler uses for rack choice,
//     read from hierarchical aggregates (agg.go): free cores, free
//     memory, max gap and power census roll up from rack index roots
//     into per-pod summaries maintained incrementally at the index
//     choke points — pod choice at 32 pods of 32 racks is O(pods)
//     arithmetic, never a rescan of 1024 racks.
//   - A memory request the VM's pod cannot satisfy spills cross-pod: a
//     segment in another pod reached through the row circuit switch,
//     paying the row tier's hop/fiber/reconfig profile on top of both
//     endpoint racks'.
//   - When no cross-pod circuit can be provisioned (row uplinks or
//     brick ports exhausted), the packet fallback is preserved across
//     the row tier: the attachment rides an existing cross-pod circuit
//     from the same compute brick.
//
// The cross-pod spill is the embedded spillTier (spill.go) and batched
// admission and teardown the embedded groupCommit (groupcommit.go) —
// the same two the pod tier embeds, here with pods for children.
type RowScheduler struct {
	spillTier
	groupCommit

	row    *topo.Row
	fabric *optical.RowFabric
	pods   []*PodScheduler

	// aggs holds one cached aggregate summary per pod (agg.go), kept
	// exact by the racks' index choke points.
	aggs []*podAgg

	// spreadFallbacks counts spread pod choices whose most-free
	// candidate failed its confirming pick, so the choice fell back to
	// confirming every improving candidate.
	spreadFallbacks uint64
}

// NewRowScheduler builds one PodScheduler per pod over the row fabric's
// pod fabrics and wires the row tier above them.
func NewRowScheduler(row *topo.Row, fabric *optical.RowFabric, bc BrickConfigs, cfg Config) (*RowScheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if row.Pods() == 0 {
		return nil, fmt.Errorf("sdm: row has no pods")
	}
	if row.Pods() != fabric.Pods() {
		return nil, fmt.Errorf("sdm: row has %d pods but the fabric has %d", row.Pods(), fabric.Pods())
	}
	s := &RowScheduler{
		row:    row,
		fabric: fabric,
	}
	s.spillTier = spillTier{cfg: cfg, level: rowLevel, owner: s, crossFabric: connector{row: fabric}}
	s.groupCommit = groupCommit{spillTier: &s.spillTier, tier: s, boots: &bootJournal{}}
	for i := 0; i < row.Pods(); i++ {
		p, err := NewPodScheduler(row.Pod(i), fabric.Pod(i), bc, cfg)
		if err != nil {
			return nil, fmt.Errorf("sdm: pod %d: %w", i, err)
		}
		p.boots = s.boots
		for _, r := range p.racks {
			r.boots = s.boots
			r.crossHosts[rowLevel] = make([][]*Attachment, len(r.computes))
		}
		s.pods = append(s.pods, p)
		s.children = append(s.children, p)
		s.subTiers = append(s.subTiers, &p.spillTier)
	}
	s.aggs = make([]*podAgg, len(s.pods))
	for i, p := range s.pods {
		s.aggs[i] = newPodAgg(p.racks)
	}
	return s, nil
}

// Pods returns the pod count.
func (s *RowScheduler) Pods() int { return len(s.pods) }

// Pod returns the pod scheduler at index i, or nil if out of range.
func (s *RowScheduler) Pod(i int) *PodScheduler {
	if i < 0 || i >= len(s.pods) {
		return nil
	}
	return s.pods[i]
}

// Fabric returns the row fabric.
func (s *RowScheduler) Fabric() *optical.RowFabric { return s.fabric }

// Stats returns the row tier's cumulative request/failure counters and
// how many attachments spilled cross-pod (circuit or packet).
func (s *RowScheduler) Stats() (requests, failures, spills uint64) {
	return s.requests, s.failures, s.spills
}

// rackAt resolves an endpoint to its rack controller.
func (s *RowScheduler) rackAt(pod, rack int) *Controller { return s.pods[pod].racks[rack] }

// pickSpill picks the memory end of a cross-pod spill from home's pod.
func (s *RowScheduler) pickSpill(size brick.Bytes, home topo.RowBrickID) (int, int, topo.BrickID, bool) {
	return s.pickMemoryPod(size, home.Pod)
}

// checkAddr reports a pod outside the row, or a rack outside its pod.
func (s *RowScheduler) checkAddr(pod, rack int) error {
	if pod < 0 || pod >= len(s.pods) {
		return fmt.Errorf("no pod %d in the row", pod)
	}
	if rack < 0 || rack >= len(s.pods[pod].racks) {
		return fmt.Errorf("no rack %d in pod %d", rack, pod)
	}
	return nil
}

// pickChild is the group commit's pod choice. The planned choice
// subtracts the batch's planned cores from each pod's cached free-core
// aggregate: O(pods) arithmetic with no confirming pick.
func (s *RowScheduler) pickChild(vcpus int, localMem brick.Bytes, planned []int, exact bool) int {
	if exact {
		pod, _ := s.pickComputePod(vcpus, localMem)
		return pod
	}
	if s.cfg.Policy == PolicySpread {
		best, bestFree := -1, int64(-1)
		for i := range s.pods {
			free := s.PodFreeCores(i) - int64(planned[i])
			if free < int64(vcpus) || free <= bestFree {
				continue
			}
			best, bestFree = i, free
		}
		return best
	}
	// Power-aware and first-fit pack pods in index order.
	for i := range s.pods {
		if s.PodFreeCores(i)-int64(planned[i]) >= int64(vcpus) {
			return i
		}
	}
	return -1
}

// reserve and attach are the row's sequential entry points, for the
// group commit.
func (s *RowScheduler) reserve(owner string, vcpus int, localMem brick.Bytes) (topo.RowBrickID, sim.Duration, error) {
	return s.ReserveCompute(owner, vcpus, localMem)
}

func (s *RowScheduler) attach(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	return s.AttachRemoteMemory(owner, cpu, size)
}

// maxMemoryGap is the largest contiguous free gap on any memory brick
// of the row, read from the cached pod summaries.
func (s *RowScheduler) maxMemoryGap() brick.Bytes {
	var max brick.Bytes
	for _, g := range s.aggs {
		if gap := g.MaxGap(); gap > max {
			max = gap
		}
	}
	return max
}

// PodFreeCores reads one pod's free-core sum — the cached per-pod
// aggregate pod choice is arithmetic over, O(1).
func (s *RowScheduler) PodFreeCores(i int) int64 { return s.aggs[i].FreeCores() }

// PodFreeMemory reads one pod's free pooled bytes, like PodFreeCores.
func (s *RowScheduler) PodFreeMemory(i int) brick.Bytes { return s.aggs[i].FreeMemory() }

// PodMaxGap reads one pod's largest contiguous memory gap — the
// admission doom-screen quantity, from the cached aggregate.
func (s *RowScheduler) PodMaxGap(i int) brick.Bytes { return s.aggs[i].MaxGap() }

// pickComputePod applies the placement policy to pod choice for a
// compute reservation: per-pod O(1) screens over the cached aggregates
// plus a confirming rack pick on the candidate that could win — the
// exact recursion of the pod tier's rack choice.
func (s *RowScheduler) pickComputePod(vcpus int, localMem brick.Bytes) (int, bool) {
	if s.cfg.Policy == PolicySpread {
		// Winner first, as in the pod tier's rack choice: confirm only
		// the most-free pod (lowest index on ties), and fall back to the
		// loop below, which confirms every improving candidate, only if
		// its rack pick fails.
		top, topFree := -1, int64(-1)
		for i := range s.pods {
			if free := s.PodFreeCores(i); free > topFree {
				top, topFree = i, free
			}
		}
		if _, ok := s.pods[top].pickComputeRackExcept(vcpus, localMem, -1); ok {
			return top, true
		}
		s.spreadFallbacks++
		best, bestFree, found := -1, int64(-1), false
		for i, p := range s.pods {
			free := s.PodFreeCores(i)
			if free <= bestFree {
				continue
			}
			if _, ok := p.pickComputeRackExcept(vcpus, localMem, -1); ok {
				best, bestFree, found = i, free, true
			}
		}
		return best, found
	}
	// Power-aware and first-fit pack pods in index order. The free-core
	// sum is a sound screen: no brick can offer more cores than the pod
	// holds in total.
	for i, p := range s.pods {
		if s.PodFreeCores(i) < int64(vcpus) {
			continue
		}
		if _, ok := p.pickComputeRackExcept(vcpus, localMem, -1); ok {
			return i, true
		}
	}
	return -1, false
}

// pickMemoryPod applies the placement policy to the pod choice of a
// cross-pod spill, never returning the VM's home pod. The max-gap
// aggregate is an exact screen (the pod-wide maximum gap), so a doomed
// pod costs O(1) without touching its racks. It also returns the rack
// and brick the winner's confirming rack pick found.
func (s *RowScheduler) pickMemoryPod(size brick.Bytes, home int) (pod, rack int, id topo.BrickID, ok bool) {
	pod, rack = -1, -1
	if s.cfg.Policy == PolicySpread {
		// Winner first: confirm only the most-free pod passing the screen,
		// and fall back to the loop below only if its rack pick fails.
		top := -1
		var topFree brick.Bytes
		for i := range s.pods {
			if i == home || s.aggs[i].MaxGap() < size {
				continue
			}
			if free := s.PodFreeMemory(i); top < 0 || free > topFree {
				top, topFree = i, free
			}
		}
		if top < 0 {
			return pod, rack, id, false
		}
		if r, b, fits := s.pods[top].pickMemoryRack(size, -1); fits {
			return top, r, b, true
		}
		s.spreadFallbacks++
		var bestFree brick.Bytes
		for i, p := range s.pods {
			if i == home {
				continue
			}
			free := s.PodFreeMemory(i)
			if ok && free <= bestFree {
				continue
			}
			if s.aggs[i].MaxGap() < size {
				continue
			}
			if r, b, fits := p.pickMemoryRack(size, -1); fits {
				pod, rack, id, bestFree, ok = i, r, b, free, true
			}
		}
		return pod, rack, id, ok
	}
	for i, p := range s.pods {
		if i == home {
			continue
		}
		if s.aggs[i].MaxGap() < size {
			continue
		}
		if r, b, fits := p.pickMemoryRack(size, -1); fits {
			return i, r, b, true
		}
	}
	return pod, rack, id, false
}

// ReserveCompute places a compute reservation row-wide: the policy
// picks a pod, the pod's scheduler picks the rack and brick.
func (s *RowScheduler) ReserveCompute(owner string, vcpus int, localMem brick.Bytes) (topo.RowBrickID, sim.Duration, error) {
	s.requests++
	pod, ok := s.pickComputePod(vcpus, localMem)
	if !ok {
		s.failures++
		return topo.RowBrickID{}, 0, fmt.Errorf("sdm: no pod in the %d-pod row with %d free cores and %v local memory", len(s.pods), vcpus, localMem)
	}
	id, lat, err := s.pods[pod].ReserveCompute(owner, vcpus, localMem)
	if err != nil {
		s.failures++
		return topo.RowBrickID{}, 0, err
	}
	return topo.RowBrickID{Pod: pod, Rack: id.Rack, Brick: id.Brick}, lat, nil
}

// ReleaseCompute returns cores and local memory to a brick.
func (s *RowScheduler) ReleaseCompute(id topo.RowBrickID, vcpus int, localMem brick.Bytes) error {
	if id.Pod < 0 || id.Pod >= len(s.pods) {
		return fmt.Errorf("sdm: no pod %d in the row", id.Pod)
	}
	return s.pods[id.Pod].ReleaseCompute(topo.PodBrickID{Rack: id.Rack, Brick: id.Brick}, vcpus, localMem)
}

// AttachRemoteMemory realizes one memory attachment row-wide: pod-local
// first (with the pod's own rack-local-then-cross-rack cascade), then
// the cross-pod spill, then the row-tier packet fallback.
func (s *RowScheduler) AttachRemoteMemory(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	s.requests++
	if cpu.Pod < 0 || cpu.Pod >= len(s.pods) {
		s.failures++
		return nil, 0, fmt.Errorf("sdm: no pod %d in the row", cpu.Pod)
	}
	podA := s.pods[cpu.Pod]
	if cpu.Rack < 0 || cpu.Rack >= len(podA.racks) {
		s.failures++
		return nil, 0, fmt.Errorf("sdm: no rack %d in pod %d", cpu.Rack, cpu.Pod)
	}
	var localErr error
	if s.aggs[cpu.Pod].MaxGap() < size {
		// No brick anywhere in the pod has a contiguous gap for the
		// request (the aggregate max is exact), so neither the rack-local
		// attempt nor the pod's cross-rack spill nor its packet fallback
		// can succeed: skip the doomed pod plan entirely. Counters mirror
		// the attempt the pod would have made; the matching error text is
		// materialized only if the row spill fails too.
		podA.requests++
		podA.failures++
		rackA := podA.racks[cpu.Rack]
		rackA.requests++
		rackA.failures++
	} else {
		att, lat, err := podA.AttachRemoteMemory(owner, topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, size)
		if err == nil {
			att.CPUPod, att.MemPod = cpu.Pod, cpu.Pod
			return att, lat, nil
		}
		localErr = err
	}
	return s.attachSpill(owner, cpu, size, localErr)
}

// DetachRemoteMemory tears a row attachment down: pod-local ones
// delegate to their pod's scheduler, spilled ones to their spill tier
// (the routing lives on the attachment, so any entry point works).
func (s *RowScheduler) DetachRemoteMemory(att *Attachment) (sim.Duration, error) {
	if att.spill != nil {
		return att.spill.detachCross(att)
	}
	if att.CPUPod < 0 || att.CPUPod >= len(s.pods) {
		return 0, fmt.Errorf("sdm: attachment names pod %d outside the row", att.CPUPod)
	}
	return s.pods[att.CPUPod].DetachRemoteMemory(att)
}

// Attachments returns the live attachments of an owner across the row
// (a copy, in attach order).
func (s *RowScheduler) Attachments(owner string) []*Attachment {
	return s.AppendAttachments(nil, owner)
}

// AppendAttachments appends the owner's live attachments across the row
// to dst and returns the extended slice.
func (s *RowScheduler) AppendAttachments(dst []*Attachment, owner string) []*Attachment {
	for _, p := range s.pods {
		if out := p.AppendAttachments(dst, owner); len(out) > len(dst) {
			return out
		}
	}
	return dst
}

// PowerOffIdle sweeps every pod and returns the total bricks stopped.
func (s *RowScheduler) PowerOffIdle() int {
	n := 0
	for _, p := range s.pods {
		n += p.PowerOffIdle()
	}
	return n
}

// PowerOnAll powers every brick in the row up.
func (s *RowScheduler) PowerOnAll() {
	for _, p := range s.pods {
		p.PowerOnAll()
	}
}

// Census aggregates the power census for one brick kind row-wide by
// walking every rack — the exact reference AggCensus is checked
// against.
func (s *RowScheduler) Census(kind topo.BrickKind) PowerCensus {
	var pc PowerCensus
	for _, p := range s.pods {
		c := p.Census(kind)
		pc.Off += c.Off
		pc.Idle += c.Idle
		pc.Active += c.Active
	}
	return pc
}

// AggCensus reads the power census for one brick kind from the cached
// pod summaries — O(pods) instead of a walk over every brick. Falls
// back to the exact walk for accelerators (which the placement indexes
// don't cover).
func (s *RowScheduler) AggCensus(kind topo.BrickKind) PowerCensus {
	if kind != topo.KindCompute && kind != topo.KindMemory {
		return s.Census(kind)
	}
	var pc PowerCensus
	for _, g := range s.aggs {
		cnt := g.cpuCensus
		if kind == topo.KindMemory {
			cnt = g.memCensus
		}
		pc.Off += int(cnt[brick.PowerOff])
		pc.Idle += int(cnt[brick.PowerIdle])
		pc.Active += int(cnt[brick.PowerActive])
	}
	return pc
}

// DrawW returns the row's electrical draw: every pod (bricks, rack and
// pod switches) plus the row switch.
func (s *RowScheduler) DrawW(profiles map[topo.BrickKind]brick.PowerProfile) float64 {
	w := s.fabric.PowerW()
	for _, p := range s.pods {
		w += p.DrawW(profiles)
	}
	return w
}
