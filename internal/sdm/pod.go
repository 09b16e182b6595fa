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
// All of that is the embedded tier (tier.go), whose children are the
// rack controllers; the pod adds its rack-relative addresses and the
// moves only a pod makes — re-pointing, re-homing, rebalancing and
// consolidation.
type PodScheduler struct {
	tier

	pod    *topo.Pod
	fabric *optical.PodFabric
	racks  []*Controller

	// agg, when the pod belongs to a row, is its cached aggregate
	// summary (agg.go), kept exact by the racks' index choke points: the
	// row's screens read it. A lone pod has none, so its racks skip the
	// notify.
	agg *podAgg

	// rebalScratch is the rebalancer's reused sweep snapshot buffer, and
	// promotions the buffer its reports' Promotions live in, so periodic
	// sweeps stop allocating per call.
	rebalScratch []*Attachment
	promotions   []Promotion

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
		tier:   tier{cfg: cfg, level: podLevel, sw: fabric.PodSwitch(), crossFabric: connector{pod: fabric}, boots: &bootJournal{}},
		pod:    pod,
		fabric: fabric,
	}
	// Every rack shares one boot journal and one attachment arena.
	atts := &attArena{}
	for i := 0; i < pod.Racks(); i++ {
		c, err := NewController(pod.Rack(i), fabric.Rack(i), bc, cfg)
		if err != nil {
			return nil, fmt.Errorf("sdm: rack %d: %w", i, err)
		}
		c.boots, c.atts = s.boots, atts
		c.crossHosts[podLevel] = make([][]*Attachment, len(c.computes))
		s.racks = append(s.racks, c)
		s.children = append(s.children, c)
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

// PickComputeRackExcept applies the placement policy to rack choice
// for a compute reservation with one rack excluded, without reserving
// anything — used by cross-rack VM migration.
func (s *PodScheduler) PickComputeRackExcept(vcpus int, localMem brick.Bytes, exclude int) (int, bool) {
	p, ok := s.tier.pickCompute(vcpus, localMem, exclude)
	if !ok {
		return -1, false
	}
	return p.Rack, true
}

// ReserveCompute places a compute reservation pod-wide: the policy
// picks a rack, the rack's controller picks the brick.
func (s *PodScheduler) ReserveCompute(owner string, vcpus int, localMem brick.Bytes) (topo.PodBrickID, sim.Duration, error) {
	id, lat, err := s.reserveOne(owner, vcpus, localMem)
	return topo.PodBrickID{Rack: id.Rack, Brick: id.Brick}, lat, err
}

// ReleaseCompute returns cores and local memory to a brick.
func (s *PodScheduler) ReleaseCompute(id topo.PodBrickID, vcpus int, localMem brick.Bytes) error {
	return s.release(topo.RowBrickID{Rack: id.Rack, Brick: id.Brick}, vcpus, localMem)
}

// AttachRemoteMemory realizes one memory attachment pod-wide:
// rack-local first (with the rack's own circuit-then-packet cascade),
// then the cross-rack spill, then the pod-tier packet fallback.
func (s *PodScheduler) AttachRemoteMemory(owner string, cpu topo.PodBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	return s.attachOne(owner, topo.RowBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, size)
}

// A PodScheduler is a row's child: its screens read the aggregate
// summary, and its confirming picks are its own rack choice.

func (s *PodScheduler) freeCores() int64 { return s.agg.FreeCores() }

func (s *PodScheduler) computeAtLeast(vcpus int, _ brick.Bytes, least int64) (int64, bool) {
	free := s.agg.FreeCores()
	return free, free >= least && free >= int64(vcpus)
}

func (s *PodScheduler) memoryAtLeast(size, least brick.Bytes) (brick.Bytes, bool) {
	free := s.agg.FreeMemory()
	return free, free >= least && s.agg.MaxGap() >= size
}

func (s *PodScheduler) maxGap() brick.Bytes { return s.agg.MaxGap() }

func (s *PodScheduler) confirmCompute(vcpus int, localMem brick.Bytes) (topo.RowBrickID, bool) {
	return s.tier.pickCompute(vcpus, localMem, -1)
}

func (s *PodScheduler) confirmMemory(size brick.Bytes) (topo.RowBrickID, bool) {
	return s.pickMemory(size, -1)
}

func (s *PodScheduler) checkBelow(p topo.RowBrickID) error {
	if p.Rack < 0 || p.Rack >= len(s.racks) {
		return fmt.Errorf("no rack %d in pod %d", p.Rack, p.Pod)
	}
	return nil
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
	return s.repoint(att, topo.RowBrickID{Rack: newCPU.Rack, Brick: newCPU.Brick})
}

// repoint is Repoint on the pod's tier, where a rack's
// ReattachRemoteMemory reaches it through a spilled attachment.
func (t *tier) repoint(att *Attachment, newCPU topo.RowBrickID) (tgl.Entry, sim.Duration, error) {
	if err := t.movable(att); err != nil {
		return tgl.Entry{}, 0, err
	}
	oldRack := t.rackAt(att.cpuAt())
	if att.spill == nil && att.CPURack == newCPU.Rack {
		// Purely rack-local: the rack controller owns the bookkeeping.
		return oldRack.ReattachRemoteMemory(att, newCPU.Brick)
	}
	t.requests++
	if err := t.checkAddr(newCPU); err != nil {
		t.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: %v", err)
	}
	newRack := t.rackAt(newCPU)
	if !oldRack.registered(att) {
		t.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: attachment for %q not live", att.Owner)
	}
	if newRack.cpuPos(newCPU.Brick) < 0 {
		t.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: no compute brick %v", t.home(newCPU))
	}
	if newCPU.Rack == att.CPURack && newCPU.Brick == att.CPU {
		t.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: reattach to the same brick %v", t.home(newCPU))
	}
	if err := oldRack.CanRepoint(att); err != nil {
		t.failures++
		return tgl.Entry{}, 0, err
	}
	lat, err := oldRack.repointCircuit(att, newRack, newCPU, t,
		t.pairConn(att.CPURack, att.MemRack), t.pairConn(newCPU.Rack, att.MemRack))
	if err != nil {
		t.failures++
		return tgl.Entry{}, 0, err
	}
	return att.Window, lat, nil
}

// movable refuses, before anything is counted, an attachment the pod
// cannot move: a cross-pod one (re-tiering through the row switch is
// not modeled) or one naming a rack outside the pod.
func (t *tier) movable(att *Attachment) error {
	if att.spill != nil && att.spill.level == rowLevel {
		return fmt.Errorf("sdm: cannot repoint cross-pod attachment of %q", att.Owner)
	}
	for _, r := range [...]int{att.CPURack, att.MemRack} {
		if r < 0 || r >= len(t.children) {
			return fmt.Errorf("sdm: attachment names rack %d outside the pod", r)
		}
	}
	return nil
}

// pairConn is the connector joining compute rack ra to memory rack rb
// of the pod: the rack's own fabric when they coincide, the pod switch
// (one uplink per endpoint rack) otherwise.
func (t *tier) pairConn(ra, rb int) connector {
	if ra == rb {
		return t.rackAt(topo.RowBrickID{Rack: ra}).rackConn()
	}
	return t.conn(0, ra, 0, rb)
}
