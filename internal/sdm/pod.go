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
// The cross-rack spill — circuit, packet fallback, detach and their
// bookkeeping — is the embedded spillTier (spill.go); batched admission
// and teardown are the embedded groupCommit (groupcommit.go), whose
// children are the rack controllers.
type PodScheduler struct {
	spillTier
	groupCommit

	pod    *topo.Pod
	fabric *optical.PodFabric
	racks  []*Controller

	// rebalScratch is the rebalancer's reused sweep snapshot buffer, so
	// periodic sweeps stop allocating per call.
	rebalScratch []*Attachment

	// spreadFallbacks counts spread rack choices whose most-free
	// candidate failed its confirming pick, so the choice fell back to
	// confirming every improving candidate.
	spreadFallbacks uint64

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
		pod:    pod,
		fabric: fabric,
	}
	s.spillTier = spillTier{cfg: cfg, level: podLevel, owner: s, crossFabric: connector{pod: fabric}}
	s.groupCommit = groupCommit{spillTier: &s.spillTier, tier: s, boots: &bootJournal{}}
	for i := 0; i < pod.Racks(); i++ {
		c, err := NewController(pod.Rack(i), fabric.Rack(i), bc, cfg)
		if err != nil {
			return nil, fmt.Errorf("sdm: rack %d: %w", i, err)
		}
		c.boots = s.boots
		c.crossHosts[podLevel] = make([][]*Attachment, len(c.computes))
		s.racks = append(s.racks, c)
		s.children = append(s.children, c)
	}
	return s, nil
}

// rackAt resolves an endpoint to its rack controller; the pod
// coordinate belongs to the row and plays no part here.
func (s *PodScheduler) rackAt(_, rack int) *Controller { return s.racks[rack] }

// pickSpill picks the memory end of a cross-rack spill from home's rack.
func (s *PodScheduler) pickSpill(size brick.Bytes, home topo.RowBrickID) (int, int, topo.BrickID, bool) {
	rack, id, ok := s.pickMemoryRack(size, home.Rack)
	return home.Pod, rack, id, ok
}

// checkAddr reports a rack outside the pod; the pod coordinate belongs
// to the row.
func (s *PodScheduler) checkAddr(_, rack int) error {
	if rack < 0 || rack >= len(s.racks) {
		return fmt.Errorf("no rack %d in the pod", rack)
	}
	return nil
}

// pickChild is the group commit's rack choice. The planned choice
// subtracts the batch's planned cores from each rack's free-core
// aggregate: O(racks) arithmetic with no confirming brick pick.
func (s *PodScheduler) pickChild(vcpus int, localMem brick.Bytes, planned []int, exact bool) int {
	if exact {
		rack, _ := s.pickComputeRackExcept(vcpus, localMem, -1)
		return rack
	}
	if s.cfg.Policy == PolicySpread {
		best, bestFree := -1, -1
		for i, r := range s.racks {
			free := r.FreeCores() - planned[i]
			if free < vcpus || free <= bestFree || !r.CanPlaceCompute(vcpus, localMem) {
				continue
			}
			best, bestFree = i, free
		}
		return best
	}
	// Power-aware and first-fit pack racks in index order.
	for i, r := range s.racks {
		if r.FreeCores()-planned[i] >= vcpus && r.CanPlaceCompute(vcpus, localMem) {
			return i
		}
	}
	return -1
}

// reserve is ReserveCompute by row address, for the group commit.
func (s *PodScheduler) reserve(owner string, vcpus int, localMem brick.Bytes) (topo.RowBrickID, sim.Duration, error) {
	id, lat, err := s.ReserveCompute(owner, vcpus, localMem)
	return topo.RowBrickID{Rack: id.Rack, Brick: id.Brick}, lat, err
}

// attach is AttachRemoteMemory by row address, for the group commit.
func (s *PodScheduler) attach(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	return s.AttachRemoteMemory(owner, topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, size)
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
	// Indexed rack choice is O(racks) arithmetic: each rack answers the
	// feasibility question from its index root (CanPlaceCompute, O(1))
	// and the free-cores rank sum (FreeCores, O(1)); only the rack that
	// could actually win runs an O(log n) brick pick to confirm.
	if s.cfg.Policy == PolicySpread {
		// Winner first: the answer is the most-free rack whose confirming
		// pick succeeds (lowest index on ties), so when the most-free rack
		// passing the screen confirms, it is the answer after a single
		// pick. Only a failed confirmation (split maxima: the cores fit on
		// one brick, the local memory on another) runs the loop below,
		// which confirms every improving candidate.
		top, topFree := -1, -1
		for i, r := range s.racks {
			if i == exclude {
				continue
			}
			if free := r.FreeCores(); free > topFree && r.CanPlaceCompute(vcpus, localMem) {
				top, topFree = i, free
			}
		}
		if top < 0 {
			return -1, false
		}
		if _, ok := s.racks[top].pickCompute(vcpus, localMem); ok {
			return top, true
		}
		s.spreadFallbacks++
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

// maxMemoryGap is the largest contiguous free gap on any memory brick
// of the pod, read from the rack index roots.
func (s *PodScheduler) maxMemoryGap() brick.Bytes {
	var max brick.Bytes
	for _, r := range s.racks {
		if g := r.MaxMemoryGap(); g > max {
			max = g
		}
	}
	return max
}

// pickMemoryRack applies the placement policy to the rack choice of a
// cross-rack spill, never returning the VM's home rack. It also returns
// the brick its confirming pick found on the winner, so the spill does
// not descend that rack again.
func (s *PodScheduler) pickMemoryRack(size brick.Bytes, home int) (int, topo.BrickID, bool) {
	// O(racks) arithmetic, same structure as compute rack choice: O(1)
	// per-rack feasibility (largest-gap/port maxima at the index root)
	// and free-byte rank sums; one O(log n) confirming pick.
	if s.cfg.Policy == PolicySpread {
		// Winner first, as in pickComputeRackExcept: confirm the most-free
		// rack passing the screen, and fall back to the loop below only if
		// its pick fails (split maxima: the largest gap on a brick with no
		// spare port).
		top := -1
		var topFree brick.Bytes
		for i, r := range s.racks {
			if i == home {
				continue
			}
			if free := r.FreeMemory(); (top < 0 || free > topFree) && r.CanPlaceMemory(size) {
				top, topFree = i, free
			}
		}
		if top < 0 {
			return -1, topo.BrickID{}, false
		}
		if id, ok := s.racks[top].pickMemory(size); ok {
			return top, id, true
		}
		s.spreadFallbacks++
		best, bestID, found := -1, topo.BrickID{}, false
		var bestFree brick.Bytes
		for i, r := range s.racks {
			if i == home {
				continue
			}
			free := r.FreeMemory()
			if (found && free <= bestFree) || !r.CanPlaceMemory(size) {
				continue
			}
			if id, ok := r.pickMemory(size); ok {
				best, bestID, bestFree, found = i, id, free, true
			}
		}
		return best, bestID, found
	}
	for i, r := range s.racks {
		if i == home {
			continue
		}
		if !r.CanPlaceMemory(size) {
			continue
		}
		if id, ok := r.pickMemory(size); ok {
			return i, id, true
		}
	}
	return -1, topo.BrickID{}, false
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
	var localErr error
	if rackA.MaxMemoryGap() < size {
		// No rack-local brick has a contiguous gap for the request, so
		// neither the circuit path nor the packet fallback (which also
		// needs a local gap) can succeed: skip the doomed rack-local
		// plan. Counters mirror the failed attempt; the matching error
		// text is materialized only if the spill fails too, keeping the
		// hot spill path allocation-free.
		rackA.requests++
		rackA.failures++
	} else {
		att, lat, err := rackA.AttachRemoteMemory(owner, cpu.Brick, size)
		if err == nil {
			att.CPURack, att.MemRack = cpu.Rack, cpu.Rack
			return att, lat, nil
		}
		localErr = err
	}
	return s.attachSpill(owner, topo.RowBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, size, localErr)
}

// DetachRemoteMemory tears a pod attachment down: rack-local ones
// delegate to their rack's controller, spilled ones to their spill tier
// (the routing lives on the attachment, so either entry point works).
func (s *PodScheduler) DetachRemoteMemory(att *Attachment) (sim.Duration, error) {
	if att.spill != nil {
		return att.spill.detachCross(att)
	}
	if att.CPURack < 0 || att.CPURack >= len(s.racks) {
		return 0, fmt.Errorf("sdm: attachment names rack %d outside the pod", att.CPURack)
	}
	return s.racks[att.CPURack].DetachRemoteMemory(att)
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
	if att.spill != nil && att.spill.level == rowLevel {
		// Re-tiering through the row switch is not modeled yet.
		return tgl.Entry{}, 0, fmt.Errorf("sdm: cannot repoint cross-pod attachment of %q", att.Owner)
	}
	if att.spill == nil && att.CPURack == newCPU.Rack {
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
	op := planRepoint(s.cfg, att, oldRack, newRack, newCPU.Brick,
		s.pairConn(att.CPURack, att.MemRack), s.pairConn(newCPU.Rack, att.MemRack),
		func(newCPUPort topo.PortID, circuit *optical.Circuit, window tgl.Entry) {
			// Registration follows the compute rack: the new rack stamps
			// the attachment after everything already registered there.
			if att.CPURack != newCPU.Rack {
				oldRack.unregister(att)
				newRack.register(att)
			}
			oldRack.removeHost(att.spill, att)
			if att.spill != nil {
				s.cross.remove(att)
			}
			att.CPU = newCPU.Brick
			att.CPUPort = newCPUPort
			att.Circuit = circuit
			att.Window = window
			att.CPURack = newCPU.Rack
			att.spill = nil
			if att.CrossRack() {
				att.spill = &s.spillTier
				s.addCrossOrder(att)
			}
			newRack.addHost(att.spill, newRack.cpuPos(newCPU.Brick), att)
		})
	lat, err := op.Commit()
	if err != nil {
		s.failures++
		return tgl.Entry{}, 0, err
	}
	return att.Window, lat, nil
}

// Attachments returns the live attachments of an owner across the pod
// (a copy, in attach order — an owner's attachments all register on its
// compute rack's controller).
func (s *PodScheduler) Attachments(owner string) []*Attachment {
	return s.AppendAttachments(nil, owner)
}

// AppendAttachments appends the owner's live attachments across the pod
// to dst and returns the extended slice — the allocation-free variant
// of Attachments.
func (s *PodScheduler) AppendAttachments(dst []*Attachment, owner string) []*Attachment {
	for _, r := range s.racks {
		if out := r.AppendAttachments(dst, owner); len(out) > len(dst) {
			return out
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
