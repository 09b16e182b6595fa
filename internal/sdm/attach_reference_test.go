package sdm

// The closure-plan attach the inline commit (attachCircuit) replaced,
// kept as a reference model: one AttachmentOp per attach, one step and
// undo closure per resource, the tier's pick, connector and
// registration passed in as closures. TestAttachMatchesReference drives
// both through the same seeded attach traces, with a fault injected at
// every reachable step, and requires identical outcomes.

import (
	"errors"
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// refAttachOp is an attach plan plus the two outputs only attach had:
// the produced attachment and whether a failure may cascade into the
// packet fallback.
type refAttachOp struct {
	*AttachmentOp
	att      *Attachment
	fallback bool
}

// refMemPick is the memory end a tier's pick closure chose.
type refMemPick struct {
	rack    *Controller
	rackIdx int
	brick   topo.BrickID
}

// refPlanAttach builds the circuit-mode attach plan shared by every
// tier: CPU-side port, memory selection and power-up, segment carve,
// memory-side port, circuit, TGL window, registration. pick applies
// the tier's placement policy (returning exhausted=true when the
// failure should cascade into the packet fallback); tierFor supplies
// the circuit fabric for the chosen memory rack; faultRetry enables
// the rack tier's quarantine-and-retry recovery; register installs the
// finished attachment into the owning indexes and cannot fail.
func refPlanAttach(cfg Config, owner string, size brick.Bytes,
	rackA *Controller, cpu topo.BrickID,
	pick func() (refMemPick, bool, error),
	tierFor func(memRack int) connector,
	faultRetry bool,
	register func(att *Attachment, memRack int)) *refAttachOp {

	op := &refAttachOp{AttachmentOp: newOp(OpAttach)}
	node := rackA.compute(cpu)
	if node == nil {
		op.err = fmt.Errorf("sdm: no compute brick %v", cpu)
		return op
	}
	if size == 0 {
		op.err = fmt.Errorf("sdm: zero-size attachment")
		return op
	}
	op.charge(cfg.DecisionLatency)

	var (
		cpuPort, memPort topo.PortID
		chosen           refMemPick
		m                *brick.Memory
		seg              *brick.Segment
		circuit          *optical.Circuit
		window           tgl.Entry
	)
	op.touch(func() { rackA.touchCompute(cpu) })
	op.touch(func() {
		if chosen.rack != nil {
			chosen.rack.touchMemory(chosen.brick)
		}
	})
	// The CPU-side port is the scarcest resource: claim it before any
	// memory brick is selected (and possibly powered on), so that port
	// exhaustion falls back to packet mode without wasted boots.
	op.step(func() (sim.Duration, error) {
		p, err := node.Brick.Ports.Acquire()
		if err != nil {
			op.fallback = true
			return 0, err
		}
		cpuPort = p
		return 0, nil
	}, func() error { node.Brick.Ports.Release(cpuPort); return nil })
	// Memory selection and power-up.
	op.step(func() (sim.Duration, error) {
		var exhausted bool
		var err error
		chosen, exhausted, err = pick()
		if err != nil {
			op.fallback = exhausted
			return 0, err
		}
		m = chosen.rack.memory(chosen.brick)
		if m.State() == brick.PowerOff {
			m.PowerOn()
			chosen.rack.boots.log(chosen.rack, chosen.brick, true)
			return cfg.BrickBoot, nil
		}
		return 0, nil
	}, nil)
	// Segment carve.
	op.step(func() (sim.Duration, error) {
		var err error
		seg, err = m.Carve(size, owner)
		return 0, err
	}, func() error { m.Release(seg); return nil })
	// Memory-side port.
	op.step(func() (sim.Duration, error) {
		p, err := m.Ports.Acquire()
		if err != nil {
			op.fallback = true
			return 0, err
		}
		memPort = p
		return 0, nil
	}, func() error { m.Ports.Release(memPort); return nil })
	// Circuit setup. The rack tier recovers from optical path faults by
	// quarantining the failed endpoint and retrying through another
	// port; the retry bound covers the worst case of every port failing.
	op.step(func() (sim.Duration, error) {
		t := tierFor(chosen.rackIdx)
		if !faultRetry {
			c, reconfig, err := t.connect(cpuPort, memPort)
			if err != nil {
				op.fallback = true
				return 0, err
			}
			circuit = c
			return reconfig, nil
		}
		maxRetries := node.Brick.Ports.Total() + m.Ports.Total()
		for retry := 0; ; retry++ {
			c, reconfig, err := t.connect(cpuPort, memPort)
			if err == nil {
				circuit = c
				return reconfig, nil
			}
			var pf *optical.PortFailedError
			if !errors.As(err, &pf) || retry >= maxRetries {
				return 0, err
			}
			// Quarantine the faulty endpoint and acquire a replacement.
			// The quarantined port stays withdrawn for the operator (its
			// release undo is a no-op on a quarantined port); the healthy
			// side is restored by the ordinary rollback.
			cpuSideFailed := pf.Port == cpuPort
			var reacquireErr error
			if cpuSideFailed {
				if reacquireErr = node.Brick.Ports.Quarantine(cpuPort); reacquireErr == nil {
					cpuPort, reacquireErr = node.Brick.Ports.Acquire()
				}
			} else {
				if reacquireErr = m.Ports.Quarantine(memPort); reacquireErr == nil {
					memPort, reacquireErr = m.Ports.Acquire()
				}
			}
			if reacquireErr != nil {
				return 0, fmt.Errorf("sdm: circuit fault recovery exhausted ports: %w", reacquireErr)
			}
		}
	}, func() error {
		_, err := tierFor(chosen.rackIdx).disconnect(circuit)
		return err
	})
	// TGL window push via the SDM Agent.
	op.step(func() (sim.Duration, error) {
		window = tgl.Entry{
			Base:       node.nextWindow,
			Size:       uint64(size),
			Dest:       chosen.brick,
			DestOffset: uint64(seg.Offset),
			Port:       cpuPort,
		}
		if err := node.Agent.Glue.Attach(window); err != nil {
			return 0, err
		}
		node.nextWindow += uint64(size)
		return cfg.AgentRTT, nil
	}, func() error { return node.Agent.Glue.Detach(window.Base) })
	// Registration — final and infallible. The attachment comes from the
	// compute rack's arena, so steady-state churn allocates no objects.
	op.step(func() (sim.Duration, error) {
		att := rackA.newAttachment()
		att.Owner = owner
		att.CPU = cpu
		att.Segment = seg
		att.Circuit = circuit
		att.CPUPort = cpuPort
		att.MemPort = memPort
		att.Window = window
		att.Mode = ModeCircuit
		op.att = att
		register(op.att, chosen.rackIdx)
		return 0, nil
	}, nil)
	return op
}

// refAttachRack is the rack tier's AttachRemoteMemory over the
// reference plan.
func refAttachRack(c *Controller, owner string, cpu topo.BrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	c.requests++
	op := refPlanAttach(c.cfg, owner, size, c, cpu,
		func() (refMemPick, bool, error) {
			id, ok := c.pickMemory(size)
			if !ok {
				return refMemPick{}, true, fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port", size)
			}
			return refMemPick{rack: c, rackIdx: 0, brick: id}, false, nil
		},
		func(int) connector { return c.rackConn() },
		true,
		func(att *Attachment, _ int) {
			c.register(att)
			p := c.cpuPos(cpu)
			c.circuitHosts[p] = append(c.circuitHosts[p], att)
		})
	lat, err := op.Commit()
	if err != nil {
		if op.fallback && c.cfg.PacketFallback {
			if att, fl, ferr := c.attachPacket(owner, cpu, size); ferr == nil {
				return att, lat + fl, nil
			}
		}
		c.failures++
		return nil, 0, err
	}
	return op.att, lat, nil
}

// refAttachCrossPod is the pod tier's attachCross over the reference
// plan, with its second descent of the chosen rack.
func refAttachCrossPod(s *PodScheduler, owner string, cpu topo.PodBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	rackA := s.racks[cpu.Rack]
	op := refPlanAttach(s.cfg, owner, size, rackA, cpu.Brick,
		func() (refMemPick, bool, error) {
			memRack, _, ok := s.pickMemoryRack(size, cpu.Rack)
			if !ok {
				return refMemPick{}, true, fmt.Errorf("sdm: no rack in the pod with %v contiguous free and a spare port", size)
			}
			memID, ok := s.racks[memRack].pickMemory(size)
			if !ok {
				return refMemPick{}, false, fmt.Errorf("sdm: rack %d memory vanished mid-selection", memRack)
			}
			return refMemPick{rack: s.racks[memRack], rackIdx: memRack, brick: memID}, false, nil
		},
		func(memRack int) connector { return s.pairConn(cpu.Rack, memRack) },
		false,
		func(att *Attachment, memRack int) {
			att.CPURack, att.MemRack = cpu.Rack, memRack
			att.spill = &s.spillTier
			rackA.register(att)
			ord := rackA.cpuPos(cpu.Brick)
			rackA.crossHosts[podLevel][ord] = append(rackA.crossHosts[podLevel][ord], att)
			s.addCrossOrder(att)
		})
	lat, err := op.Commit()
	if err != nil {
		if op.fallback {
			if att, fl, ferr := s.attachPacketCross(owner, topo.RowBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, size); ferr == nil {
				return att, lat + fl, nil
			}
		}
		return nil, 0, err
	}
	return op.att, lat, nil
}

// refAttachCrossRow is the row tier's attachCross over the reference
// plan, with its second and third descents of the chosen pod and rack.
func refAttachCrossRow(s *RowScheduler, owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	podA := s.pods[cpu.Pod]
	rackA := podA.racks[cpu.Rack]
	memPod := -1
	op := refPlanAttach(s.cfg, owner, size, rackA, cpu.Brick,
		func() (refMemPick, bool, error) {
			p, _, _, ok := s.pickMemoryPod(size, cpu.Pod)
			if !ok {
				return refMemPick{}, true, fmt.Errorf("sdm: no pod in the row with %v contiguous free and a spare port", size)
			}
			memRack, _, ok := s.pods[p].pickMemoryRack(size, -1)
			if !ok {
				return refMemPick{}, false, fmt.Errorf("sdm: pod %d memory vanished mid-selection", p)
			}
			memID, ok := s.pods[p].racks[memRack].pickMemory(size)
			if !ok {
				return refMemPick{}, false, fmt.Errorf("sdm: pod %d rack %d memory vanished mid-selection", p, memRack)
			}
			memPod = p
			return refMemPick{rack: s.pods[p].racks[memRack], rackIdx: memRack, brick: memID}, false, nil
		},
		// The pick above runs before the circuit step, so memPod is set by
		// the time the connector is chosen.
		func(memRack int) connector { return s.conn(cpu.Pod, cpu.Rack, memPod, memRack) },
		false,
		func(att *Attachment, memRack int) {
			att.CPURack, att.MemRack = cpu.Rack, memRack
			att.CPUPod, att.MemPod = cpu.Pod, memPod
			att.spill = &s.spillTier
			rackA.register(att)
			ord := rackA.cpuPos(cpu.Brick)
			rackA.crossHosts[rowLevel][ord] = append(rackA.crossHosts[rowLevel][ord], att)
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
