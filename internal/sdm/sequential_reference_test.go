package sdm

// The sequential entry points the group commit replaced, kept as a
// reference model: the tier's own reserve and attach (with its doom
// screen, which counts a skipped attempt through countDoomed) recursing
// into its children, and the planned detach (one AttachmentOp per
// teardown). The batch-of-one equivalence tests drive one of two twins
// through them, so the group commit is compared with an independent
// implementation rather than with itself.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// seqReserve places a compute reservation tier-wide: the policy picks a
// child, the child picks the brick.
func (t *tier) seqReserve(owner string, vcpus int, localMem brick.Bytes) (topo.RowBrickID, sim.Duration, error) {
	t.requests++
	p, ok := t.pickCompute(vcpus, localMem, -1)
	c := t.childOf(p.Pod, p.Rack)
	if !ok {
		t.failures++
		w := &tierWords[t.level]
		return topo.RowBrickID{}, 0, fmt.Errorf("sdm: no %s in the %d-%s %s with %d free cores and %v local memory",
			w.child, len(t.children), w.child, w.tier, vcpus, localMem)
	}
	var (
		id  topo.RowBrickID
		lat sim.Duration
		err error
	)
	switch ch := t.children[c].(type) {
	case *Controller:
		id.Brick, lat, err = ch.ReserveCompute(owner, vcpus, localMem)
	case *PodScheduler:
		id, lat, err = ch.seqReserve(owner, vcpus, localMem)
	}
	if err != nil {
		t.failures++
		return topo.RowBrickID{}, 0, err
	}
	*t.coord(&id.Pod, &id.Rack) = c
	return id, lat, nil
}

// seqAttach realizes one memory attachment tier-wide: inside the
// compute brick's child first (with the child's own cascade), then the
// spill through the tier's switch, then the tier's packet fallback.
func (t *tier) seqAttach(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	t.requests++
	if err := t.checkAddr(cpu); err != nil {
		t.failures++
		return nil, 0, fmt.Errorf("sdm: %v", err)
	}
	c := t.childOf(cpu.Pod, cpu.Rack)
	child, in := t.children[c], cpu
	*t.coord(&in.Pod, &in.Rack) = 0
	var localErr error
	if child.maxGap() < size {
		// No brick anywhere in the child has a contiguous gap for the
		// request: skip the doomed attempt, counting it.
		seqCountDoomed(child, in)
	} else {
		var (
			att *Attachment
			lat sim.Duration
			err error
		)
		switch ch := child.(type) {
		case *Controller:
			att, lat, err = ch.AttachRemoteMemory(owner, in.Brick, size)
		case *PodScheduler:
			att, lat, err = ch.seqAttach(owner, in, size)
		}
		if err == nil {
			t.stampAtt(att, c)
			return att, lat, nil
		}
		localErr = err
	}
	return t.attachSpill(owner, cpu, size, localErr)
}

// seqCountDoomed counts an attach a parent's doom screen skipped as the
// failed request of the child and, in a pod, of the rack holding the
// compute brick (cpu, relative to the child).
func seqCountDoomed(child tierChild, cpu topo.RowBrickID) {
	switch ch := child.(type) {
	case *Controller:
		ch.requests++
		ch.failures++
	case *PodScheduler:
		ch.requests++
		ch.failures++
		seqCountDoomed(ch.children[ch.childOf(cpu.Pod, cpu.Rack)], cpu)
	}
}

// seqDetachAt tears att down through the rack that holds it — the
// compute rack, which its spill tier routes to as well.
func seqDetachAt(rackAt func(topo.RowBrickID) *Controller, att *Attachment) (sim.Duration, error) {
	return rackAt(att.cpuAt()).seqDetach(att)
}

// seqDetach tears down att, registered on this rack, in reverse order:
// through its spill tier's switch when it spilled, else through the
// rack's own fabric. The request counts on the tier that owns it.
func (c *Controller) seqDetach(att *Attachment) (sim.Duration, error) {
	sp := att.spill
	n := c.counts(sp)
	n.requests++
	if !c.registered(att) {
		n.failures++
		return 0, fmt.Errorf("sdm: %sattachment for %q on %v not live", crossWord(sp), att.Owner, att.CPU)
	}
	rackB := c.memEnd(att)
	if att.Mode == ModePacket {
		memID := att.Segment.Brick
		if err := c.dropRider(att, rackB); err != nil {
			n.failures++
			return 0, err
		}
		c.unregister(att)
		if sp != nil {
			sp.cross.remove(att)
		}
		rackB.touchMemory(memID)
		return c.cfg.DecisionLatency + 2*c.cfg.AgentRTT, nil
	}
	if k := att.Circuit.Riders; k > 0 {
		n.failures++
		return 0, fmt.Errorf("sdm: %scircuit of %q on %v carries %d packet-mode riders; detach them first", crossWord(sp), att.Owner, att.CPU, k)
	}
	op := seqPlanDetach(c.cfg, att, c, rackB, attConn(sp, att, c), func() {
		c.unregister(att)
		c.removeHost(sp, att)
		if sp != nil {
			sp.cross.remove(att)
		}
	})
	lat, err := op.Commit()
	if err != nil {
		n.failures++
		return 0, err
	}
	return lat, nil
}

// seqOpDetach is the reference plan's kind; the production OpKind list
// has no detach, so it prints as "op".
const seqOpDetach OpKind = -1

// seqPlanDetach builds the teardown plan, the exact reverse of
// attachCircuit: window, circuit, ports, segment, unregistration.
func seqPlanDetach(cfg Config, att *Attachment, rackA, rackB *Controller, t connector, unregister func()) *AttachmentOp {
	op := newOp(seqOpDetach)
	node := rackA.compute(att.CPU)
	m := rackB.memory(att.Segment.Brick)
	op.charge(cfg.DecisionLatency)
	cpu, memID := att.CPU, att.Segment.Brick
	op.touch(func() { rackA.touchCompute(cpu) })
	op.touch(func() { rackB.touchMemory(memID) })

	oldWindow := att.Window
	op.step(func() (sim.Duration, error) {
		if err := node.Agent.Glue.Detach(oldWindow.Base); err != nil {
			return 0, err
		}
		return cfg.AgentRTT, nil
	}, func() error { return node.Agent.Glue.Attach(oldWindow) })
	op.step(func() (sim.Duration, error) {
		return t.disconnect(att.Circuit)
	}, func() error {
		c, _, err := t.connect(att.CPUPort, att.MemPort)
		if err != nil {
			return err
		}
		att.Circuit = c
		return nil
	})
	op.step(func() (sim.Duration, error) {
		if err := node.Brick.Ports.Release(att.CPUPort); err != nil {
			return 0, err
		}
		if err := m.Ports.Release(att.MemPort); err != nil {
			return 0, err
		}
		if err := m.Release(att.Segment); err != nil {
			return 0, err
		}
		unregister()
		return 0, nil
	}, nil)
	return op
}
