package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
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
// Cross-pod attachments register in the compute rack's controller (so
// Attachments and scale-down stay uniform) and are tagged with the row
// scheduler, which owns their teardown.
type RowScheduler struct {
	cfg    Config
	row    *topo.Row
	fabric *optical.RowFabric
	pods   []*PodScheduler

	// aggs holds one cached aggregate summary per pod, nil in
	// linear-scan mode (where the index choke points don't fire and the
	// row falls back to summing rack roots on demand).
	aggs []*podAgg

	// crossHosts indexes cross-pod circuit attachments by compute brick
	// — [pod][rack][compute ordinal] — for the row-tier packet fallback.
	// (Packet-rider counts live on the circuits: optical.Circuit.Riders.)
	crossHosts [][][][]*Attachment

	// cross lists every live cross-pod attachment in spill order,
	// mirroring the pod tier's rebalancer walk order one tier up,
	// threaded intrusively through the attachments themselves.
	cross     crossList
	attachSeq uint64

	// tierConns caches cross-pod connectors per endpoint quadruple
	// (cpuPod, cpuRack, memPod, memRack).
	tierConns map[[4]int]connector

	// evict holds EvictBatch's reused partition buffers (see
	// rowteardown.go); admit holds AdmitBatch's (see rowbatch.go). Both
	// are serial at the row tier, so one set of each suffices and a
	// steady burst train stops allocating.
	evict rowEvictScratch
	admit rowAdmitScratch

	requests uint64
	failures uint64
	spills   uint64
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
		cfg:    cfg,
		row:    row,
		fabric: fabric,
	}
	for i := 0; i < row.Pods(); i++ {
		p, err := NewPodScheduler(row.Pod(i), fabric.Pod(i), bc, cfg)
		if err != nil {
			return nil, fmt.Errorf("sdm: pod %d: %w", i, err)
		}
		s.pods = append(s.pods, p)
	}
	s.crossHosts = make([][][][]*Attachment, len(s.pods))
	for i, p := range s.pods {
		s.crossHosts[i] = make([][][]*Attachment, len(p.racks))
		for j, r := range p.racks {
			s.crossHosts[i][j] = make([][]*Attachment, len(r.computes))
		}
	}
	if cfg.Scan != ScanLinear {
		s.aggs = make([]*podAgg, len(s.pods))
		for i, p := range s.pods {
			s.aggs[i] = newPodAgg(p.racks)
		}
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

// tier returns the connector joining the compute endpoint (pod pa, rack
// ra) to the memory endpoint (pod pb, rack rb): the pod's own tiers
// when the pods coincide, the row switch otherwise. Cross-pod
// connectors are cached per endpoint quadruple.
func (s *RowScheduler) tier(pa, ra, pb, rb int) connector {
	if pa == pb {
		return s.pods[pa].tier(ra, rb)
	}
	if s.tierConns == nil {
		s.tierConns = make(map[[4]int]connector)
	}
	key := [4]int{pa, ra, pb, rb}
	if t, ok := s.tierConns[key]; ok {
		return t
	}
	t := connector{
		connect: func(a, b topo.PortID) (*optical.Circuit, sim.Duration, error) {
			return s.fabric.ConnectCross(pa, ra, a, pb, rb, b)
		},
		disconnect: s.fabric.DisconnectCross,
	}
	s.tierConns[key] = t
	return t
}

// podFreeCores reads one pod's free-core sum — cached O(1) when the
// aggregates are installed, a rack-root sum otherwise.
func (s *RowScheduler) podFreeCores(i int) int64 {
	if s.aggs != nil {
		return s.aggs[i].FreeCores()
	}
	var n int64
	for _, r := range s.pods[i].racks {
		n += int64(r.FreeCores())
	}
	return n
}

// podFreeMemory reads one pod's free pooled bytes, like podFreeCores.
func (s *RowScheduler) podFreeMemory(i int) brick.Bytes {
	if s.aggs != nil {
		return s.aggs[i].FreeMemory()
	}
	var n brick.Bytes
	for _, r := range s.pods[i].racks {
		n += r.FreeMemory()
	}
	return n
}

// PodFreeCores reads one pod's free-core sum — the cached per-pod
// aggregate pod choice is arithmetic over, O(1) under the default
// indexed scan.
func (s *RowScheduler) PodFreeCores(i int) int64 { return s.podFreeCores(i) }

// PodFreeMemory reads one pod's free pooled bytes, like PodFreeCores.
func (s *RowScheduler) PodFreeMemory(i int) brick.Bytes { return s.podFreeMemory(i) }

// PodMaxGap reads one pod's largest contiguous memory gap — the
// admission doom-screen quantity. Linear mode takes the max over the
// rack index roots.
func (s *RowScheduler) PodMaxGap(i int) brick.Bytes {
	if s.aggs != nil {
		return s.aggs[i].MaxGap()
	}
	var max brick.Bytes
	for _, r := range s.pods[i].racks {
		if g := r.MaxMemoryGap(); g > max {
			max = g
		}
	}
	return max
}

// pickComputePod applies the placement policy to pod choice for a
// compute reservation: per-pod O(1) screens over the cached aggregates
// plus one confirming rack pick per surviving candidate — the exact
// recursion of the pod tier's rack choice.
func (s *RowScheduler) pickComputePod(vcpus int, localMem brick.Bytes) (int, bool) {
	if s.cfg.Policy == PolicySpread {
		best, bestFree, found := -1, int64(-1), false
		for i, p := range s.pods {
			free := s.podFreeCores(i)
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
		if s.aggs != nil && s.podFreeCores(i) < int64(vcpus) {
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
// pod costs O(1) without touching its racks.
func (s *RowScheduler) pickMemoryPod(size brick.Bytes, home int) (int, bool) {
	if s.cfg.Policy == PolicySpread {
		best, found := -1, false
		var bestFree brick.Bytes
		for i, p := range s.pods {
			if i == home {
				continue
			}
			free := s.podFreeMemory(i)
			if found && free <= bestFree {
				continue
			}
			if s.aggs != nil && s.aggs[i].MaxGap() < size {
				continue
			}
			if _, ok := p.pickMemoryRack(size, -1); ok {
				best, bestFree, found = i, free, true
			}
		}
		return best, found
	}
	for i, p := range s.pods {
		if i == home {
			continue
		}
		if s.aggs != nil && s.aggs[i].MaxGap() < size {
			continue
		}
		if _, ok := p.pickMemoryRack(size, -1); ok {
			return i, true
		}
	}
	return -1, false
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
	var att *Attachment
	var lat sim.Duration
	var localErr error
	if s.aggs != nil && s.aggs[cpu.Pod].MaxGap() < size {
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
		att, lat, localErr = podA.AttachRemoteMemory(owner, topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, size)
		if localErr == nil {
			att.CPUPod, att.MemPod = cpu.Pod, cpu.Pod
			return att, lat, nil
		}
	}
	att, lat, err := s.attachCross(owner, cpu, size)
	if err != nil {
		if localErr == nil {
			localErr = fmt.Errorf("sdm: no memory brick in pod %d with %v contiguous free and a spare port", cpu.Pod, size)
		}
		s.failures++
		return nil, 0, fmt.Errorf("sdm: row attach for %q failed pod-locally (%v) and cross-pod: %w", owner, localErr, err)
	}
	s.spills++
	return att, lat, nil
}

// attachCross provisions a cross-pod attachment: a segment in another
// pod, a circuit through the row switch, and the TGL window on the home
// rack's compute brick — one OpAttach through the lifecycle engine, so
// every completed step rolls back on failure. Exhaustion of circuit
// resources cascades into the row-tier packet fallback.
func (s *RowScheduler) attachCross(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	podA := s.pods[cpu.Pod]
	rackA := podA.racks[cpu.Rack]
	memPod := -1
	op := planAttach(s.cfg, owner, size, rackA, cpu.Brick,
		func() (memPick, bool, error) {
			p, ok := s.pickMemoryPod(size, cpu.Pod)
			if !ok {
				return memPick{}, true, fmt.Errorf("sdm: no pod in the row with %v contiguous free and a spare port", size)
			}
			memRack, ok := s.pods[p].pickMemoryRack(size, -1)
			if !ok {
				return memPick{}, false, fmt.Errorf("sdm: pod %d memory vanished mid-selection", p)
			}
			memID, ok := s.pods[p].racks[memRack].pickMemory(size)
			if !ok {
				return memPick{}, false, fmt.Errorf("sdm: pod %d rack %d memory vanished mid-selection", p, memRack)
			}
			memPod = p
			return memPick{rack: s.pods[p].racks[memRack], rackIdx: memRack, brick: memID}, false, nil
		},
		// The pick above runs before the circuit step, so memPod is set by
		// the time the connector is chosen.
		func(memRack int) connector { return s.tier(cpu.Pod, cpu.Rack, memPod, memRack) },
		false,
		func(att *Attachment, memRack int) {
			att.CPURack, att.MemRack = cpu.Rack, memRack
			att.CPUPod, att.MemPod = cpu.Pod, memPod
			att.crossRow = s
			rackA.register(att)
			ord := rackA.cpuPos(cpu.Brick)
			s.crossHosts[cpu.Pod][cpu.Rack][ord] = append(s.crossHosts[cpu.Pod][cpu.Rack][ord], att)
			s.addCrossOrder(att)
		})
	lat, err := op.Commit()
	if err != nil {
		if op.fallback {
			if att, fl, ferr := s.attachPacketCross(owner, cpu, size); ferr == nil {
				return att, lat + fl, nil
			}
		}
		return nil, 0, err
	}
	return op.att, lat, nil
}

// addCrossOrder stamps an attachment with the next spill sequence
// number and appends it to the oldest-first cross-pod walk order.
func (s *RowScheduler) addCrossOrder(att *Attachment) {
	s.attachSeq++
	att.seq = s.attachSeq
	s.cross.pushBack(att)
}

// removeCrossOrder drops an attachment from the walk order in O(1).
func (s *RowScheduler) removeCrossOrder(att *Attachment) {
	s.cross.remove(att)
}

// attachPacketCross preserves the packet fallback across the row tier:
// the new attachment rides an existing cross-pod circuit from the same
// compute brick, steered by the on-brick packet switches.
func (s *RowScheduler) attachPacketCross(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	if !s.cfg.PacketFallback {
		return nil, 0, fmt.Errorf("sdm: packet fallback disabled")
	}
	rackA := s.pods[cpu.Pod].racks[cpu.Rack]
	node := rackA.compute(cpu.Brick)
	var host *Attachment
	for _, a := range s.crossHosts[cpu.Pod][cpu.Rack][rackA.cpuPos(cpu.Brick)] {
		m := s.pods[a.MemPod].racks[a.MemRack].memory(a.Segment.Brick)
		if m.LargestGap() >= size {
			host = a
			break
		}
	}
	if host == nil {
		return nil, 0, fmt.Errorf("sdm: row packet fallback: no live cross-pod circuit from %v to a memory brick with %v contiguous free", cpu, size)
	}
	m := s.pods[host.MemPod].racks[host.MemRack].memory(host.Segment.Brick)
	seg, err := m.Carve(size, owner)
	if err != nil {
		return nil, 0, err
	}
	window := tgl.Entry{
		Base:       node.nextWindow,
		Size:       uint64(size),
		Dest:       host.Segment.Brick,
		DestOffset: uint64(seg.Offset),
		Port:       host.CPUPort, // shares the host circuit's port
	}
	if err := node.Agent.Glue.Attach(window); err != nil {
		m.Release(seg)
		return nil, 0, err
	}
	node.nextWindow += window.Size

	att := rackA.newAttachment()
	att.Owner = owner
	att.CPU = cpu.Brick
	att.Segment = seg
	att.Circuit = host.Circuit
	att.CPUPort = host.CPUPort
	att.MemPort = host.MemPort
	att.Window = window
	att.Mode = ModePacket
	att.CPURack = cpu.Rack
	att.MemRack = host.MemRack
	att.CPUPod = cpu.Pod
	att.MemPod = host.MemPod
	att.crossRow = s
	host.Circuit.Riders++
	rackA.register(att)
	s.addCrossOrder(att)
	s.pods[host.MemPod].racks[host.MemRack].touchMemory(host.Segment.Brick)
	return att, s.cfg.DecisionLatency + 2*s.cfg.AgentRTT, nil
}

// DetachRemoteMemory tears a row attachment down: pod-local ones
// delegate to their pod's scheduler, cross-pod ones to detachCross (the
// routing lives on the attachment, so any entry point works).
func (s *RowScheduler) DetachRemoteMemory(att *Attachment) (sim.Duration, error) {
	if att.crossRow != nil {
		return s.detachCross(att)
	}
	if att.CPUPod < 0 || att.CPUPod >= len(s.pods) {
		return 0, fmt.Errorf("sdm: attachment names pod %d outside the row", att.CPUPod)
	}
	return s.pods[att.CPUPod].DetachRemoteMemory(att)
}

// detachCross tears down a cross-pod attachment in reverse order.
func (s *RowScheduler) detachCross(att *Attachment) (sim.Duration, error) {
	s.requests++
	rackA := s.pods[att.CPUPod].racks[att.CPURack]
	if !rackA.registered(att) {
		s.failures++
		return 0, fmt.Errorf("sdm: cross-pod attachment for %q on %v not live", att.Owner, att.CPU)
	}
	node := rackA.compute(att.CPU)
	rackB := s.pods[att.MemPod].racks[att.MemRack]
	m := rackB.memory(att.Segment.Brick)

	if att.Mode == ModePacket {
		memID := att.Segment.Brick
		if err := node.Agent.Glue.Detach(att.Window.Base); err != nil {
			s.failures++
			return 0, err
		}
		if err := m.Release(att.Segment); err != nil {
			s.failures++
			return 0, err
		}
		if att.Circuit.Riders > 0 {
			att.Circuit.Riders--
		}
		rackA.unregister(att)
		s.removeCrossOrder(att)
		rackB.touchMemory(memID)
		return s.cfg.DecisionLatency + 2*s.cfg.AgentRTT, nil
	}
	if n := att.Circuit.Riders; n > 0 {
		s.failures++
		return 0, fmt.Errorf("sdm: cross-pod circuit of %q on %v carries %d packet-mode riders; detach them first", att.Owner, att.CPU, n)
	}
	op := planDetach(s.cfg, att, rackA, rackB, s.tier(att.CPUPod, att.CPURack, att.MemPod, att.MemRack), func() {
		rackA.unregister(att)
		s.removeCrossHost(att)
		s.removeCrossOrder(att)
	})
	lat, err := op.Commit()
	if err != nil {
		s.failures++
		return 0, err
	}
	return lat, nil
}

// removeCrossHost drops a cross-pod circuit attachment from the
// fallback host index.
func (s *RowScheduler) removeCrossHost(att *Attachment) {
	ord := s.pods[att.CPUPod].racks[att.CPURack].cpuPos(att.CPU)
	hosts := s.crossHosts[att.CPUPod][att.CPURack][ord]
	for i, a := range hosts {
		if a == att {
			s.crossHosts[att.CPUPod][att.CPURack][ord] = append(hosts[:i], hosts[i+1:]...)
			return
		}
	}
}

// Attachments returns the live attachments of an owner across the row
// (a copy, in attach order).
func (s *RowScheduler) Attachments(owner string) []*Attachment {
	for _, p := range s.pods {
		if a := p.Attachments(owner); a != nil {
			return a
		}
	}
	return nil
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
// back to the exact walk in linear-scan mode and for accelerators
// (which the placement indexes don't cover).
func (s *RowScheduler) AggCensus(kind topo.BrickKind) PowerCensus {
	if s.aggs == nil || (kind != topo.KindCompute && kind != topo.KindMemory) {
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
