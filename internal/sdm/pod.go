package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// PodScheduler shards SDM orchestration across a pod of racks: one
// autonomous per-rack Controller each owning its rack's bricks and
// circuit fabric, plus this thin pod tier that routes requests. The
// placement contract extends the rack policies to rack choice:
//
//   - Compute and memory go rack-local first. Power-aware and first-fit
//     pack racks in index order (so trailing racks can stay dark);
//     spread picks the rack with the most free capacity.
//   - A memory request the VM's rack cannot satisfy spills cross-rack:
//     a segment on another rack's dMEMBRICK reached through the pod
//     circuit switch, paying the pod tier's hop/fiber/reconfig profile.
//   - When no cross-rack circuit can be provisioned either (pod uplinks
//     or brick ports exhausted), the packet fallback is preserved across
//     the pod tier: the attachment rides an existing cross-rack circuit
//     from the same compute brick, steered by the on-brick packet
//     switches.
//
// Cross-rack attachments are registered in the compute rack's
// controller (so Attachments, scale-down and rider queries stay
// uniform) and tagged with the scheduler, which owns their teardown.
type PodScheduler struct {
	cfg    Config
	pod    *topo.Pod
	fabric *optical.PodFabric
	racks  []*Controller

	// crossHosts indexes cross-rack circuit attachments by compute brick
	// — [rack][compute ordinal] — for the pod-tier packet fallback.
	// (Packet-rider counts live on the circuits: optical.Circuit.Riders.)
	crossHosts [][][]*Attachment

	// cross lists every live cross-rack attachment in spill order (each
	// stamped with a seq from attachSeq) — the oldest-first walk order of
	// the rebalancer, threaded intrusively through the attachments so
	// Repoint/Rebalance/detach remove in O(1) with no pointer-keyed map.
	cross     crossList
	attachSeq uint64

	// tierConns caches the cross-rack connectors per rack pair (see
	// tier in lifecycle.go).
	tierConns map[[2]int]connector

	// rebalScratch is the rebalancer's reused sweep snapshot buffer, so
	// periodic sweeps stop allocating per call.
	rebalScratch []*Attachment

	// evict and admit hold the batch engines' reused partition buffers
	// (see podteardown.go and podbatch.go), shared by the pod's own
	// batches and the row's per-pod shards. Group commits are serial per
	// scheduler, so one set of each suffices and a steady churn stops
	// allocating.
	evict evictScratch
	admit admitScratch

	requests uint64
	failures uint64
	spills   uint64
	promoted uint64
}

// NewPodScheduler builds one Controller per rack over the pod fabric's
// rack-local fabrics and wires the pod tier above them.
func NewPodScheduler(pod *topo.Pod, fabric *optical.PodFabric, bc BrickConfigs, cfg Config) (*PodScheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pod.Racks() == 0 {
		return nil, fmt.Errorf("sdm: pod has no racks")
	}
	if pod.Racks() != fabric.Racks() {
		return nil, fmt.Errorf("sdm: pod has %d racks but the fabric has %d", pod.Racks(), fabric.Racks())
	}
	s := &PodScheduler{
		cfg:    cfg,
		pod:    pod,
		fabric: fabric,
	}
	for i := 0; i < pod.Racks(); i++ {
		c, err := NewController(pod.Rack(i), fabric.Rack(i), bc, cfg)
		if err != nil {
			return nil, fmt.Errorf("sdm: rack %d: %w", i, err)
		}
		s.racks = append(s.racks, c)
	}
	s.crossHosts = make([][][]*Attachment, len(s.racks))
	for i, r := range s.racks {
		s.crossHosts[i] = make([][]*Attachment, len(r.computes))
	}
	return s, nil
}

// Racks returns the rack count.
func (s *PodScheduler) Racks() int { return len(s.racks) }

// Rack returns the per-rack controller at index i, or nil if out of
// range.
func (s *PodScheduler) Rack(i int) *Controller {
	if i < 0 || i >= len(s.racks) {
		return nil
	}
	return s.racks[i]
}

// Fabric returns the pod fabric.
func (s *PodScheduler) Fabric() *optical.PodFabric { return s.fabric }

// Stats returns the pod tier's cumulative request/failure counters and
// how many attachments spilled cross-rack (circuit or packet).
func (s *PodScheduler) Stats() (requests, failures, spills uint64) {
	return s.requests, s.failures, s.spills
}

// PickComputeRack applies the placement policy to rack choice for a
// compute reservation, without reserving anything.
func (s *PodScheduler) PickComputeRack(vcpus int, localMem brick.Bytes) (int, bool) {
	return s.pickComputeRackExcept(vcpus, localMem, -1)
}

// PickComputeRackExcept is PickComputeRack with one rack excluded —
// used by cross-rack VM migration.
func (s *PodScheduler) PickComputeRackExcept(vcpus int, localMem brick.Bytes, exclude int) (int, bool) {
	return s.pickComputeRackExcept(vcpus, localMem, exclude)
}

func (s *PodScheduler) pickComputeRackExcept(vcpus int, localMem brick.Bytes, exclude int) (int, bool) {
	if s.cfg.Scan == ScanLinear {
		return s.pickComputeRackLinear(vcpus, localMem, exclude)
	}
	// Indexed rack choice is O(racks) arithmetic: each rack answers the
	// feasibility question from its index root (CanPlaceCompute, O(1))
	// and the free-cores rank sum (FreeCores, O(1)); only the rack that
	// could actually win runs an O(log n) brick pick to confirm.
	if s.cfg.Policy == PolicySpread {
		best, bestFree, found := -1, -1, false
		for i, r := range s.racks {
			if i == exclude {
				continue
			}
			free := r.FreeCores()
			if free <= bestFree || !r.CanPlaceCompute(vcpus, localMem) {
				continue
			}
			if _, ok := r.pickCompute(vcpus, localMem); ok {
				best, bestFree, found = i, free, true
			}
		}
		return best, found
	}
	// Power-aware and first-fit pack racks in index order.
	for i, r := range s.racks {
		if i == exclude {
			continue
		}
		if !r.CanPlaceCompute(vcpus, localMem) {
			continue
		}
		if _, ok := r.pickCompute(vcpus, localMem); ok {
			return i, true
		}
	}
	return -1, false
}

// pickComputeRackLinear is the pre-index nested scan: every rack runs a
// full brick pick per probe.
func (s *PodScheduler) pickComputeRackLinear(vcpus int, localMem brick.Bytes, exclude int) (int, bool) {
	if s.cfg.Policy == PolicySpread {
		best, bestFree, found := -1, -1, false
		for i, r := range s.racks {
			if i == exclude {
				continue
			}
			if _, ok := r.pickCompute(vcpus, localMem); ok && r.FreeCores() > bestFree {
				best, bestFree, found = i, r.FreeCores(), true
			}
		}
		return best, found
	}
	for i, r := range s.racks {
		if i == exclude {
			continue
		}
		if _, ok := r.pickCompute(vcpus, localMem); ok {
			return i, true
		}
	}
	return -1, false
}

// pickMemoryRack applies the placement policy to the rack choice of a
// cross-rack spill, never returning the VM's home rack.
func (s *PodScheduler) pickMemoryRack(size brick.Bytes, home int) (int, bool) {
	if s.cfg.Scan == ScanLinear {
		return s.pickMemoryRackLinear(size, home)
	}
	// O(racks) arithmetic, same structure as compute rack choice: O(1)
	// per-rack feasibility (largest-gap/port maxima at the index root)
	// and free-byte rank sums; one O(log n) confirming pick.
	if s.cfg.Policy == PolicySpread {
		best, found := -1, false
		var bestFree brick.Bytes
		for i, r := range s.racks {
			if i == home {
				continue
			}
			free := r.FreeMemory()
			if (found && free <= bestFree) || !r.CanPlaceMemory(size) {
				continue
			}
			if _, ok := r.pickMemory(size); ok {
				best, bestFree, found = i, free, true
			}
		}
		return best, found
	}
	for i, r := range s.racks {
		if i == home {
			continue
		}
		if !r.CanPlaceMemory(size) {
			continue
		}
		if _, ok := r.pickMemory(size); ok {
			return i, true
		}
	}
	return -1, false
}

// pickMemoryRackLinear is the pre-index nested scan over racks and
// bricks.
func (s *PodScheduler) pickMemoryRackLinear(size brick.Bytes, home int) (int, bool) {
	if s.cfg.Policy == PolicySpread {
		best, found := -1, false
		var bestFree brick.Bytes
		for i, r := range s.racks {
			if i == home {
				continue
			}
			if _, ok := r.pickMemory(size); ok && (!found || r.FreeMemory() > bestFree) {
				best, bestFree, found = i, r.FreeMemory(), true
			}
		}
		return best, found
	}
	for i, r := range s.racks {
		if i == home {
			continue
		}
		if _, ok := r.pickMemory(size); ok {
			return i, true
		}
	}
	return -1, false
}

// ReserveCompute places a compute reservation pod-wide: the policy
// picks a rack, the rack's controller picks the brick.
func (s *PodScheduler) ReserveCompute(owner string, vcpus int, localMem brick.Bytes) (topo.PodBrickID, sim.Duration, error) {
	s.requests++
	rack, ok := s.PickComputeRack(vcpus, localMem)
	if !ok {
		s.failures++
		return topo.PodBrickID{}, 0, fmt.Errorf("sdm: no rack in the %d-rack pod with %d free cores and %v local memory", len(s.racks), vcpus, localMem)
	}
	id, lat, err := s.racks[rack].ReserveCompute(owner, vcpus, localMem)
	if err != nil {
		s.failures++
		return topo.PodBrickID{}, 0, err
	}
	return topo.PodBrickID{Rack: rack, Brick: id}, lat, nil
}

// ReleaseCompute returns cores and local memory to a brick.
func (s *PodScheduler) ReleaseCompute(id topo.PodBrickID, vcpus int, localMem brick.Bytes) error {
	if id.Rack < 0 || id.Rack >= len(s.racks) {
		return fmt.Errorf("sdm: no rack %d in the pod", id.Rack)
	}
	return s.racks[id.Rack].ReleaseCompute(id.Brick, vcpus, localMem)
}

// AttachRemoteMemory realizes one memory attachment pod-wide:
// rack-local first (with the rack's own circuit-then-packet cascade),
// then the cross-rack spill, then the pod-tier packet fallback.
func (s *PodScheduler) AttachRemoteMemory(owner string, cpu topo.PodBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	s.requests++
	if cpu.Rack < 0 || cpu.Rack >= len(s.racks) {
		s.failures++
		return nil, 0, fmt.Errorf("sdm: no rack %d in the pod", cpu.Rack)
	}
	rackA := s.racks[cpu.Rack]
	var att *Attachment
	var lat sim.Duration
	var localErr error
	if s.cfg.Scan != ScanLinear && rackA.MaxMemoryGap() < size {
		// No rack-local brick has a contiguous gap for the request, so
		// neither the circuit path nor the packet fallback (which also
		// needs a local gap) can succeed: skip the doomed rack-local
		// plan. Counters mirror the failed attempt; the matching error
		// text is materialized only if the spill fails too, keeping the
		// hot spill path allocation-free.
		rackA.requests++
		rackA.failures++
	} else {
		att, lat, localErr = rackA.AttachRemoteMemory(owner, cpu.Brick, size)
		if localErr == nil {
			att.CPURack, att.MemRack = cpu.Rack, cpu.Rack
			return att, lat, nil
		}
	}
	att, lat, err := s.attachCross(owner, cpu, size)
	if err != nil {
		if localErr == nil {
			localErr = fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port", size)
		}
		s.failures++
		return nil, 0, fmt.Errorf("sdm: pod attach for %q failed rack-locally (%v) and cross-rack: %w", owner, localErr, err)
	}
	s.spills++
	return att, lat, nil
}

// attachCross provisions a cross-rack attachment: a segment on another
// rack's dMEMBRICK, a circuit through the pod switch, and the TGL
// window on the home rack's compute brick — one OpAttach through the
// lifecycle engine, so every completed step rolls back on failure.
// Exhaustion of circuit resources cascades into the pod-tier packet
// fallback.
func (s *PodScheduler) attachCross(owner string, cpu topo.PodBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	rackA := s.racks[cpu.Rack]
	op := planAttach(s.cfg, owner, size, rackA, cpu.Brick,
		func() (memPick, bool, error) {
			memRack, ok := s.pickMemoryRack(size, cpu.Rack)
			if !ok {
				return memPick{}, true, fmt.Errorf("sdm: no rack in the pod with %v contiguous free and a spare port", size)
			}
			memID, ok := s.racks[memRack].pickMemory(size)
			if !ok {
				return memPick{}, false, fmt.Errorf("sdm: rack %d memory vanished mid-selection", memRack)
			}
			return memPick{rack: s.racks[memRack], rackIdx: memRack, brick: memID}, false, nil
		},
		func(memRack int) connector { return s.tier(cpu.Rack, memRack) },
		false,
		func(att *Attachment, memRack int) {
			att.CPURack, att.MemRack = cpu.Rack, memRack
			att.cross = s
			rackA.register(att)
			ord := rackA.cpuPos(cpu.Brick)
			s.crossHosts[cpu.Rack][ord] = append(s.crossHosts[cpu.Rack][ord], att)
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
// number and appends it to the rebalancer's oldest-first walk order.
func (s *PodScheduler) addCrossOrder(att *Attachment) {
	s.attachSeq++
	att.seq = s.attachSeq
	s.cross.pushBack(att)
}

// removeCrossOrder drops an attachment from the rebalancer walk order
// in O(1) by unlinking it in place.
func (s *PodScheduler) removeCrossOrder(att *Attachment) {
	s.cross.remove(att)
}

// attachPacketCross preserves the packet fallback across the pod tier:
// the new attachment rides an existing cross-rack circuit from the same
// compute brick, with the on-brick packet switches steering its
// transactions — two lookup-table pushes instead of a pod-switch
// reconfiguration.
func (s *PodScheduler) attachPacketCross(owner string, cpu topo.PodBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	if !s.cfg.PacketFallback {
		return nil, 0, fmt.Errorf("sdm: packet fallback disabled")
	}
	rackA := s.racks[cpu.Rack]
	node := rackA.compute(cpu.Brick)
	var host *Attachment
	for _, a := range s.crossHosts[cpu.Rack][rackA.cpuPos(cpu.Brick)] {
		m := s.racks[a.MemRack].memory(a.Segment.Brick)
		if m.LargestGap() >= size {
			host = a
			break
		}
	}
	if host == nil {
		return nil, 0, fmt.Errorf("sdm: pod packet fallback: no live cross-rack circuit from %v to a memory brick with %v contiguous free", cpu, size)
	}
	m := s.racks[host.MemRack].memory(host.Segment.Brick)
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
	att.cross = s
	host.Circuit.Riders++
	rackA.register(att)
	s.addCrossOrder(att)
	s.racks[host.MemRack].touchMemory(host.Segment.Brick)
	return att, s.cfg.DecisionLatency + 2*s.cfg.AgentRTT, nil
}

// DetachRemoteMemory tears a pod attachment down: rack-local ones
// delegate to their rack's controller, cross-rack ones to detachCross
// (the routing lives on the attachment, so either entry point works).
func (s *PodScheduler) DetachRemoteMemory(att *Attachment) (sim.Duration, error) {
	if att.crossRow != nil {
		return att.crossRow.detachCross(att)
	}
	if att.cross != nil {
		return s.detachCross(att)
	}
	if att.CPURack < 0 || att.CPURack >= len(s.racks) {
		return 0, fmt.Errorf("sdm: attachment names rack %d outside the pod", att.CPURack)
	}
	return s.racks[att.CPURack].DetachRemoteMemory(att)
}

// detachCross tears down a cross-rack attachment in reverse order.
func (s *PodScheduler) detachCross(att *Attachment) (sim.Duration, error) {
	s.requests++
	rackA := s.racks[att.CPURack]
	if !rackA.registered(att) {
		s.failures++
		return 0, fmt.Errorf("sdm: cross-rack attachment for %q on %v not live", att.Owner, att.CPU)
	}
	node := rackA.compute(att.CPU)
	m := s.racks[att.MemRack].memory(att.Segment.Brick)

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
		s.racks[att.MemRack].touchMemory(memID)
		return s.cfg.DecisionLatency + 2*s.cfg.AgentRTT, nil
	}
	if n := att.Circuit.Riders; n > 0 {
		s.failures++
		return 0, fmt.Errorf("sdm: cross-rack circuit of %q on %v carries %d packet-mode riders; detach them first", att.Owner, att.CPU, n)
	}
	op := planDetach(s.cfg, att, rackA, s.racks[att.MemRack], s.tier(att.CPURack, att.MemRack), func() {
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

// Repoint re-points an attachment's compute end at any brick in the
// pod, re-tiering the circuit as the endpoints dictate: it stays (or
// becomes) a pod-switch circuit when the new compute rack differs from
// the memory rack, and collapses to a rack-local circuit — releasing
// both pod uplinks — when the VM lands on the rack that holds its
// memory. The segment, and the data on it, never move. This is the
// primitive that lets a VM's remote memory follow it across racks
// during migration.
func (s *PodScheduler) Repoint(att *Attachment, newCPU topo.PodBrickID) (tgl.Entry, sim.Duration, error) {
	if att.crossRow != nil {
		// Re-tiering through the row switch is not modeled yet.
		return tgl.Entry{}, 0, fmt.Errorf("sdm: cannot repoint cross-pod attachment of %q", att.Owner)
	}
	if att.cross == nil && att.CPURack == newCPU.Rack {
		// Purely rack-local: the rack controller owns the bookkeeping.
		return s.racks[att.CPURack].ReattachRemoteMemory(att, newCPU.Brick)
	}
	s.requests++
	if newCPU.Rack < 0 || newCPU.Rack >= len(s.racks) {
		s.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: no rack %d in the pod", newCPU.Rack)
	}
	oldRack, newRack := s.racks[att.CPURack], s.racks[newCPU.Rack]
	if !oldRack.registered(att) {
		s.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: attachment for %q not live", att.Owner)
	}
	if newRack.cpuPos(newCPU.Brick) < 0 {
		s.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: no compute brick %v", newCPU)
	}
	if newCPU.Rack == att.CPURack && newCPU.Brick == att.CPU {
		s.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: reattach to the same brick %v", newCPU)
	}
	if err := oldRack.CanRepoint(att); err != nil {
		s.failures++
		return tgl.Entry{}, 0, err
	}
	wasCross := att.CrossRack()
	op := planRepoint(s.cfg, att, oldRack, newRack, newCPU.Brick,
		s.tier(att.CPURack, att.MemRack), s.tier(newCPU.Rack, att.MemRack),
		func(newCPUPort topo.PortID, circuit *optical.Circuit, window tgl.Entry) {
			// Owner registration follows the compute rack (register re-stamps
			// ownerID against the new rack's intern table).
			if att.CPURack != newCPU.Rack {
				oldRack.unregister(att)
				newRack.register(att)
			}
			if wasCross {
				s.removeCrossHost(att)
				s.removeCrossOrder(att)
			} else {
				oldRack.removeCircuitHost(att)
			}
			att.CPU = newCPU.Brick
			att.CPUPort = newCPUPort
			att.Circuit = circuit
			att.Window = window
			att.CPURack = newCPU.Rack
			ord := newRack.cpuPos(newCPU.Brick)
			if att.CrossRack() {
				att.cross = s
				s.crossHosts[newCPU.Rack][ord] = append(s.crossHosts[newCPU.Rack][ord], att)
				s.addCrossOrder(att)
			} else {
				att.cross = nil
				newRack.circuitHosts[ord] = append(newRack.circuitHosts[ord], att)
			}
		})
	lat, err := op.Commit()
	if err != nil {
		s.failures++
		return tgl.Entry{}, 0, err
	}
	return att.Window, lat, nil
}

// removeCrossHost drops a cross-rack circuit attachment from the
// fallback host index.
func (s *PodScheduler) removeCrossHost(att *Attachment) {
	ord := s.racks[att.CPURack].cpuPos(att.CPU)
	hosts := s.crossHosts[att.CPURack][ord]
	for i, a := range hosts {
		if a == att {
			s.crossHosts[att.CPURack][ord] = append(hosts[:i], hosts[i+1:]...)
			return
		}
	}
}

// Attachments returns the live attachments of an owner across the pod
// (a copy, in attach order — an owner's attachments all register on its
// compute rack's controller).
func (s *PodScheduler) Attachments(owner string) []*Attachment {
	for _, r := range s.racks {
		if id, ok := r.ownerIDs[owner]; ok && len(r.attachments[id]) > 0 {
			return r.Attachments(owner)
		}
	}
	return nil
}

// AppendAttachments appends the owner's live attachments across the pod
// to dst and returns the extended slice — the allocation-free variant
// of Attachments.
func (s *PodScheduler) AppendAttachments(dst []*Attachment, owner string) []*Attachment {
	for _, r := range s.racks {
		if id, ok := r.ownerIDs[owner]; ok && len(r.attachments[id]) > 0 {
			return r.AppendAttachments(dst, owner)
		}
	}
	return dst
}

// PowerOffIdle sweeps every rack and returns the total bricks stopped.
func (s *PodScheduler) PowerOffIdle() int {
	n := 0
	for _, r := range s.racks {
		n += r.PowerOffIdle()
	}
	return n
}

// PowerOnAll powers every brick in the pod up.
func (s *PodScheduler) PowerOnAll() {
	for _, r := range s.racks {
		r.PowerOnAll()
	}
}

// Census aggregates the power census for one brick kind pod-wide.
func (s *PodScheduler) Census(kind topo.BrickKind) PowerCensus {
	var pc PowerCensus
	for _, r := range s.racks {
		c := r.Census(kind)
		pc.Off += c.Off
		pc.Idle += c.Idle
		pc.Active += c.Active
	}
	return pc
}

// DrawW returns the pod's electrical draw: every rack (bricks plus rack
// switch) plus the pod switch.
func (s *PodScheduler) DrawW(profiles map[topo.BrickKind]brick.PowerProfile) float64 {
	w := s.fabric.PowerW()
	for _, r := range s.racks {
		w += r.DrawW(profiles)
	}
	return w
}
