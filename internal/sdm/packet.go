package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// AttachMode distinguishes how an attachment reaches its dMEMBRICK.
type AttachMode int

const (
	// ModeCircuit is the mainline path: a dedicated optical circuit.
	ModeCircuit AttachMode = iota
	// ModePacket is the exploratory fallback (paper §III): the
	// attachment shares an existing circuit between the same brick pair,
	// with on-brick packet switches steering transactions. Used "where
	// the system is running low in terms of physical ports available to
	// accommodate new circuits".
	ModePacket
)

func (m AttachMode) String() string {
	if m == ModePacket {
		return "packet"
	}
	return "circuit"
}

// attachPacket is the rack's packet fallback (ridePacket over its own
// circuits).
func (c *Controller) attachPacket(owner string, cpu topo.BrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	return c.ridePacket(owner, topo.RowBrickID{Brick: cpu}, size, nil)
}

// ridePacket carves a segment on a memory brick already reachable from
// cpu over a live circuit and rides that circuit in packet mode: one of
// this rack's own circuits when spill is nil, else one of the spill
// tier's circuits leaving this rack. The control path programs the
// packet-switch lookup tables on both bricks (two agent pushes) instead
// of reconfiguring the optical switch, so it is much faster on the
// control plane — the datapath pays instead (see pktnet.RoundTrip vs.
// CircuitRoundTrip).
func (c *Controller) ridePacket(owner string, cpu topo.RowBrickID, size brick.Bytes, spill *tier) (*Attachment, sim.Duration, error) {
	node := c.compute(cpu.Brick)
	// Find a host circuit: the first live circuit-mode attachment from
	// this compute brick to a memory brick with room, in host index
	// order.
	var (
		host   *Attachment
		memCtl *Controller
		m      *brick.Memory
	)
	for _, a := range c.hosts(spill)[c.cpuPos(cpu.Brick)] {
		if mc := c.memEnd(a); mc.memory(a.Segment.Brick).LargestGap() >= size {
			host, memCtl, m = a, mc, mc.memory(a.Segment.Brick)
			break
		}
	}
	if host == nil {
		if spill == nil {
			return nil, 0, fmt.Errorf("sdm: packet fallback: no live circuit from %v to a memory brick with %v contiguous free", cpu.Brick, size)
		}
		w := &tierWords[spill.level]
		return nil, 0, fmt.Errorf("sdm: %s packet fallback: no live %s circuit from %v to a memory brick with %v contiguous free", w.tier, w.cross, spill.home(cpu), size)
	}
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

	att := c.newAttachment()
	att.Owner = owner
	att.CPU = cpu.Brick
	att.Segment = seg
	att.Circuit = host.Circuit
	att.CPUPort = host.CPUPort
	att.MemPort = host.MemPort
	att.Window = window
	att.Mode = ModePacket
	if spill != nil {
		att.CPURack, att.MemRack = cpu.Rack, host.MemRack
		att.CPUPod, att.MemPod = host.CPUPod, host.MemPod
		att.spill = spill
	}
	host.Circuit.Riders++
	c.register(att)
	if spill != nil {
		spill.addCrossOrder(att)
	}
	memCtl.touchMemory(host.Segment.Brick)
	// Two lookup-table pushes: compute-brick switch and memory-brick
	// glue, plus the decision that found the host circuit.
	return att, c.cfg.DecisionLatency + 2*c.cfg.AgentRTT, nil
}

// dropRider removes a packet-mode attachment's window and segment and
// its ride on the host circuit; rackB holds the segment.
func (c *Controller) dropRider(att *Attachment, rackB *Controller) error {
	if err := c.compute(att.CPU).Agent.Glue.Detach(att.Window.Base); err != nil {
		return err
	}
	if err := rackB.memory(att.Segment.Brick).Release(att.Segment); err != nil {
		return err
	}
	if att.Circuit.Riders > 0 {
		att.Circuit.Riders--
	}
	return nil
}

// Riders returns how many packet-mode attachments share the circuit of
// the given circuit-mode attachment. The count lives on the circuit
// itself regardless of which tier owns it.
func (c *Controller) Riders(att *Attachment) int {
	return att.Circuit.Riders
}
