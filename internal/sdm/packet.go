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

// attachPacket carves a segment on a memory brick already reachable from
// cpu over a live circuit and rides that circuit in packet mode. The
// control path programs the packet-switch lookup tables on both bricks
// (two agent pushes) instead of reconfiguring the optical switch, so it
// is much faster on the control plane — the datapath pays instead (see
// pktnet.RoundTrip vs. CircuitRoundTrip).
func (c *Controller) attachPacket(owner string, cpu topo.BrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	node := c.compute(cpu)
	// Find a host circuit: any live circuit-mode attachment from this
	// compute brick to a memory brick with room. Iterate deterministically
	// over this brick's live circuit attachments.
	var host *Attachment
	for _, a := range c.circuitHosts[c.cpuPos(cpu)] {
		m := c.memory(a.Segment.Brick)
		if m.LargestGap() >= size {
			host = a
			break
		}
	}
	if host == nil {
		return nil, 0, fmt.Errorf("sdm: packet fallback: no live circuit from %v to a memory brick with %v contiguous free", cpu, size)
	}
	m := c.memory(host.Segment.Brick)
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
	att.CPU = cpu
	att.Segment = seg
	att.Circuit = host.Circuit
	att.CPUPort = host.CPUPort
	att.MemPort = host.MemPort
	att.Window = window
	att.Mode = ModePacket
	host.Circuit.Riders++
	c.register(att)
	c.touchMemory(host.Segment.Brick)
	// Two lookup-table pushes: compute-brick switch and memory-brick
	// glue, plus the decision that found the host circuit.
	return att, c.cfg.DecisionLatency + 2*c.cfg.AgentRTT, nil
}

// detachPacket releases a packet-mode attachment.
func (c *Controller) detachPacket(att *Attachment) (sim.Duration, error) {
	node := c.compute(att.CPU)
	memID := att.Segment.Brick
	m := c.memory(memID)
	if err := node.Agent.Glue.Detach(att.Window.Base); err != nil {
		c.failures++
		return 0, err
	}
	if err := m.Release(att.Segment); err != nil {
		c.failures++
		return 0, err
	}
	if att.Circuit.Riders > 0 {
		att.Circuit.Riders--
	}
	c.unregister(att)
	c.touchMemory(memID)
	return c.cfg.DecisionLatency + 2*c.cfg.AgentRTT, nil
}

// Riders returns how many packet-mode attachments share the circuit of
// the given circuit-mode attachment. The count lives on the circuit
// itself regardless of which tier owns it.
func (c *Controller) Riders(att *Attachment) int {
	return att.Circuit.Riders
}
