package sdm

// The closure-plan engine the inline commits replaced, kept as a
// reference model: an AttachmentOp is a plan of reversible steps, each
// a do and an undo closure, committed atomically. The attach and
// sequential reference models (attach_reference_test.go,
// sequential_reference_test.go) build on it, and this file keeps the
// re-point and re-home plans (planRepoint, planRehome) with the callers
// that committed them. TestRepointMatchesReference and
// TestRehomeMatchesReference drive the inline moves and these plans
// through the same moves with a fault injected at each reachable step.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// opStep is one reversible action of a plan. A step with a nil do is a
// pure latency charge — data, not a closure, so fixed control-plane
// costs allocate nothing.
type opStep struct {
	do     func() (sim.Duration, error)
	undo   func() error
	charge sim.Duration
}

// AttachmentOp is one planned attachment mutation. A plan is built
// step by step and committed atomically: Commit executes the steps in
// order and, on any failure, rolls every completed step back in
// reverse before returning — a failed op leaves the circuit state
// exactly as it found it.
type AttachmentOp struct {
	Kind OpKind

	steps []opStep
	lat   sim.Duration

	// err short-circuits Commit for plans that failed validation.
	err error
	// stepBuf/touchBuf are the inline backing arrays of steps and
	// touches, so the slices do not allocate separately from the op.
	stepBuf  [10]opStep
	touchBuf [2]func()
	// touches are the placement-index refresh hooks of every brick the
	// plan may mutate. They run exactly once, at Commit's single exit
	// point — after success or after rollback — where scheduler
	// indexes and brick state reconcile.
	touches []func()
}

// newOp builds an empty plan whose step and touch slices alias the
// op's inline buffers.
func newOp(kind OpKind) *AttachmentOp {
	op := &AttachmentOp{Kind: kind}
	op.steps = op.stepBuf[:0]
	op.touches = op.touchBuf[:0]
	return op
}

// step appends a reversible action; undo may be nil for irreversible
// (or final) steps.
func (op *AttachmentOp) step(do func() (sim.Duration, error), undo func() error) {
	op.steps = append(op.steps, opStep{do: do, undo: undo})
}

// charge appends a fixed control-plane latency as an infallible step.
func (op *AttachmentOp) charge(d sim.Duration) {
	op.steps = append(op.steps, opStep{charge: d})
}

// touch registers an index-refresh hook to run when Commit exits.
func (op *AttachmentOp) touch(fn func()) {
	op.touches = append(op.touches, fn)
}

// Commit executes the plan. On failure it rolls back and returns the
// latency spent up to the failure — callers cascading into the packet
// fallback still account for work already done (e.g. a brick boot).
func (op *AttachmentOp) Commit() (sim.Duration, error) {
	if op.err != nil {
		return 0, op.err
	}
	defer func() {
		for _, t := range op.touches {
			t()
		}
	}()
	for i := range op.steps {
		s := &op.steps[i]
		if s.do == nil {
			op.lat += s.charge
			continue
		}
		d, err := s.do()
		op.lat += d
		if err == nil {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			if op.steps[j].undo == nil {
				continue
			}
			if uerr := op.steps[j].undo(); uerr != nil {
				return op.lat, fmt.Errorf("sdm: %v failed (%v) and rollback failed: %w", op.Kind, err, uerr)
			}
		}
		return op.lat, err
	}
	return op.lat, nil
}

// planRepoint builds the compute-end move: the circuit and TGL window
// follow the VM to newCPU (possibly on another rack and so another
// optical tier) while the segment — and the data on it — stays exactly
// where it is. move performs the registration hand-over and cannot
// fail; oldTier/newTier carry the circuit before and after.
func planRepoint(cfg Config, att *Attachment,
	oldRack, newRack *Controller, newCPU topo.BrickID,
	oldTier, newTier connector,
	move func(newCPUPort topo.PortID, circuit *optical.Circuit, window tgl.Entry)) *AttachmentOp {

	op := newOp(OpRepoint)
	oldNode := oldRack.compute(att.CPU)
	newNode := newRack.compute(newCPU)
	if newNode == nil {
		op.err = fmt.Errorf("sdm: no compute brick %v", newCPU)
		return op
	}
	op.charge(cfg.DecisionLatency)
	oldCPU := att.CPU
	op.touch(func() { oldRack.touchCompute(oldCPU) })
	op.touch(func() { newRack.touchCompute(newCPU) })

	var (
		newCPUPort topo.PortID
		circuit    *optical.Circuit
		window     tgl.Entry
	)
	oldWindow := att.Window
	// Acquire the new CPU-side port first; nothing is torn down until
	// the new resources are secured.
	op.step(func() (sim.Duration, error) {
		p, err := newNode.Brick.Ports.Acquire()
		if err != nil {
			return 0, err
		}
		newCPUPort = p
		return 0, nil
	}, func() error { newNode.Brick.Ports.Release(newCPUPort); return nil })
	// Tear the old circuit down, freeing the memory-side port (and, for
	// a cross-rack circuit, both pod uplinks) for the new circuit.
	op.step(func() (sim.Duration, error) {
		return oldTier.disconnect(att.Circuit)
	}, func() error {
		c, _, err := oldTier.connect(att.CPUPort, att.MemPort)
		if err != nil {
			return err
		}
		att.Circuit = c
		return nil
	})
	op.step(func() (sim.Duration, error) {
		c, reconfig, err := newTier.connect(newCPUPort, att.MemPort)
		if err != nil {
			return 0, err
		}
		circuit = c
		return reconfig, nil
	}, func() error {
		_, err := newTier.disconnect(circuit)
		return err
	})
	// Install the window on the new brick's agent, then remove the old
	// one; between the two pushes both windows map the segment, which
	// is safe because the VM is paused across a re-point.
	op.step(func() (sim.Duration, error) {
		window = tgl.Entry{
			Base:       newNode.nextWindow,
			Size:       oldWindow.Size,
			Dest:       att.Segment.Brick,
			DestOffset: uint64(att.Segment.Offset),
			Port:       newCPUPort,
		}
		if err := newNode.Agent.Glue.Attach(window); err != nil {
			return 0, err
		}
		newNode.nextWindow += window.Size
		return cfg.AgentRTT, nil
	}, func() error { return newNode.Agent.Glue.Detach(window.Base) })
	op.step(func() (sim.Duration, error) {
		if err := oldNode.Agent.Glue.Detach(oldWindow.Base); err != nil {
			return 0, fmt.Errorf("sdm: old window removal: %w", err)
		}
		return cfg.AgentRTT, nil
	}, func() error { return oldNode.Agent.Glue.Attach(oldWindow) })
	// Release the old CPU port and hand the registration over — past
	// this point the attachment is fully re-homed on the new brick.
	op.step(func() (sim.Duration, error) {
		if err := oldNode.Brick.Ports.Release(att.CPUPort); err != nil {
			return 0, err
		}
		move(newCPUPort, circuit, window)
		return 0, nil
	}, nil)
	return op
}

// planRehome builds the memory-end move: the segment's contents are
// copied to a freshly carved segment on another memory brick over the
// still-live old circuit, the TGL window is re-aimed in place (same
// guest-visible base — no baremetal or hypervisor work), and the
// circuit is re-terminated on the new brick. pick selects the target
// brick on newMemRack; move performs the registration hand-over.
func planRehome(kind OpKind, cfg Config, att *Attachment,
	rackA, oldMemRack, newMemRack *Controller,
	pick func() (topo.BrickID, bool),
	oldTier, newTier connector,
	move func(newMem topo.BrickID, seg *brick.Segment, memPort topo.PortID, circuit *optical.Circuit, window tgl.Entry)) *AttachmentOp {

	op := newOp(kind)
	node := rackA.compute(att.CPU)
	oldMem := oldMemRack.memory(att.Segment.Brick)
	op.charge(cfg.DecisionLatency)
	oldMemID := att.Segment.Brick
	op.touch(func() { oldMemRack.touchMemory(oldMemID) })

	var (
		newMemID topo.BrickID
		m        *brick.Memory
		seg      *brick.Segment
		memPort  topo.PortID
		circuit  *optical.Circuit
		window   tgl.Entry
	)
	op.touch(func() {
		if m != nil {
			newMemRack.touchMemory(newMemID)
		}
	})
	oldWindow := att.Window
	// Target selection, power-up and carve.
	op.step(func() (sim.Duration, error) {
		id, ok := pick()
		if !ok {
			return 0, fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port to re-home %q", att.Size(), att.Owner)
		}
		newMemID = id
		m = newMemRack.memory(id)
		if m.State() == brick.PowerOff {
			m.PowerOn()
			return cfg.BrickBoot, nil
		}
		return 0, nil
	}, nil)
	op.step(func() (sim.Duration, error) {
		var err error
		seg, err = m.Carve(att.Size(), att.Owner)
		return 0, err
	}, func() error { m.Release(seg); return nil })
	op.step(func() (sim.Duration, error) {
		p, err := m.Ports.Acquire()
		if err != nil {
			return 0, err
		}
		memPort = p
		return 0, nil
	}, func() error { m.Ports.Release(memPort); return nil })
	// Ship the contents over the still-live old circuit.
	op.charge(optical.SerializationDelay(int(att.Size()), rehomeLinkGbps))
	// Re-aim the TGL window in place: same base, new destination. The
	// guest's physical map never changes, so no hotplug is charged.
	op.step(func() (sim.Duration, error) {
		if err := node.Agent.Glue.Detach(oldWindow.Base); err != nil {
			return 0, err
		}
		window = tgl.Entry{
			Base:       oldWindow.Base,
			Size:       oldWindow.Size,
			Dest:       newMemID,
			DestOffset: uint64(seg.Offset),
			Port:       att.CPUPort,
		}
		if err := node.Agent.Glue.Attach(window); err != nil {
			node.Agent.Glue.Attach(oldWindow)
			return 0, err
		}
		return cfg.AgentRTT, nil
	}, func() error {
		if err := node.Agent.Glue.Detach(window.Base); err != nil {
			return err
		}
		return node.Agent.Glue.Attach(oldWindow)
	})
	// Swap the circuit: the old tier's teardown frees the memory-side
	// port (and any pod uplinks); the new tier re-terminates on the
	// same CPU port.
	op.step(func() (sim.Duration, error) {
		return oldTier.disconnect(att.Circuit)
	}, func() error {
		c, _, err := oldTier.connect(att.CPUPort, att.MemPort)
		if err != nil {
			return err
		}
		att.Circuit = c
		return nil
	})
	op.step(func() (sim.Duration, error) {
		c, reconfig, err := newTier.connect(att.CPUPort, memPort)
		if err != nil {
			return 0, err
		}
		circuit = c
		return reconfig, nil
	}, func() error {
		_, err := newTier.disconnect(circuit)
		return err
	})
	// Release the old memory end and hand the registration over.
	op.step(func() (sim.Duration, error) {
		if err := oldMem.Ports.Release(att.MemPort); err != nil {
			return 0, err
		}
		if err := oldMem.Release(att.Segment); err != nil {
			return 0, err
		}
		move(newMemID, seg, memPort, circuit, window)
		return 0, nil
	}, nil)
	return op
}

// refReattachRack is the rack tier's ReattachRemoteMemory over the
// reference plan.
func refReattachRack(c *Controller, att *Attachment, newCPU topo.BrickID) (tgl.Entry, sim.Duration, error) {
	if att.spill != nil {
		return refTierRepoint(att.spill, att, topo.RowBrickID{Rack: att.CPURack, Brick: newCPU})
	}
	c.requests++
	if !c.registered(att) {
		c.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: attachment for %q not live", att.Owner)
	}
	if c.cpuPos(newCPU) < 0 {
		c.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: no compute brick %v", newCPU)
	}
	if newCPU == att.CPU {
		c.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: reattach to the same brick %v", newCPU)
	}
	if err := c.CanRepoint(att); err != nil {
		c.failures++
		return tgl.Entry{}, 0, err
	}
	op := planRepoint(c.cfg, att, c, c, newCPU, c.rackConn(), c.rackConn(),
		func(newCPUPort topo.PortID, circuit *optical.Circuit, window tgl.Entry) {
			c.removeHost(nil, att)
			att.CPU = newCPU
			att.CPUPort = newCPUPort
			att.Circuit = circuit
			att.Window = window
			c.addHost(nil, c.cpuPos(newCPU), att)
		})
	lat, err := op.Commit()
	if err != nil {
		c.failures++
		return tgl.Entry{}, 0, err
	}
	return att.Window, lat, nil
}

// refTierRepoint is the pod tier's repoint over the reference plan.
func refTierRepoint(t *tier, att *Attachment, newCPU topo.RowBrickID) (tgl.Entry, sim.Duration, error) {
	if err := t.movable(att); err != nil {
		return tgl.Entry{}, 0, err
	}
	oldRack := t.rackAt(att.cpuAt())
	if att.spill == nil && att.CPURack == newCPU.Rack {
		return refReattachRack(oldRack, att, newCPU.Brick)
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
	op := planRepoint(t.cfg, att, oldRack, newRack, newCPU.Brick,
		t.pairConn(att.CPURack, att.MemRack), t.pairConn(newCPU.Rack, att.MemRack),
		func(newCPUPort topo.PortID, circuit *optical.Circuit, window tgl.Entry) {
			// Registration follows the compute rack: the new rack stamps
			// the attachment after everything already registered there.
			if att.CPURack != newCPU.Rack {
				oldRack.unregister(att)
				newRack.register(att)
			}
			oldRack.removeHost(att.spill, att)
			if att.spill != nil {
				t.cross.remove(att)
			}
			att.CPU = newCPU.Brick
			att.CPUPort = newCPUPort
			att.Circuit = circuit
			att.Window = window
			att.CPURack = newCPU.Rack
			att.spill = nil
			if att.CrossRack() {
				att.spill = t
				t.addCrossOrder(att)
			}
			newRack.addHost(att.spill, newRack.cpuPos(newCPU.Brick), att)
		})
	lat, err := op.Commit()
	if err != nil {
		t.failures++
		return tgl.Entry{}, 0, err
	}
	return att.Window, lat, nil
}

// refRehome is the pod's Rehome over the reference plan.
func refRehome(s *PodScheduler, att *Attachment, targetRack int) (sim.Duration, error) {
	if err := s.movable(att); err != nil {
		return 0, err
	}
	s.requests++
	if targetRack < 0 || targetRack >= len(s.racks) {
		s.failures++
		return 0, fmt.Errorf("sdm: no rack %d in the pod", targetRack)
	}
	rackA := s.racks[att.CPURack]
	if !rackA.registered(att) {
		s.failures++
		return 0, fmt.Errorf("sdm: attachment for %q not live", att.Owner)
	}
	if err := rackA.CanRepoint(att); err != nil {
		s.failures++
		return 0, err
	}
	if targetRack == att.MemRack {
		s.failures++
		return 0, fmt.Errorf("sdm: attachment of %q already has its memory on rack %d", att.Owner, targetRack)
	}
	kind := OpRehome
	if targetRack == att.CPURack {
		kind = OpPromote
	}
	wasCross := att.CrossRack()
	newMemRack := s.racks[targetRack]
	op := planRehome(kind, s.cfg, att, rackA, s.racks[att.MemRack], newMemRack,
		func() (topo.BrickID, bool) { return newMemRack.pickMemory(att.Size()) },
		s.pairConn(att.CPURack, att.MemRack), s.pairConn(att.CPURack, targetRack),
		func(newMem topo.BrickID, seg *brick.Segment, memPort topo.PortID, circuit *optical.Circuit, window tgl.Entry) {
			att.Segment = seg
			att.MemPort = memPort
			att.Circuit = circuit
			att.Window = window
			att.MemRack = targetRack
			nowCross := att.CrossRack()
			ord := rackA.cpuPos(att.CPU)
			switch {
			case wasCross && !nowCross:
				rackA.removeHost(att.spill, att)
				s.cross.remove(att)
				att.spill = nil
				rackA.addHost(nil, ord, att)
				s.promoted++
			case !wasCross && nowCross:
				rackA.removeHost(nil, att)
				att.spill = &s.tier
				rackA.addHost(att.spill, ord, att)
				s.addCrossOrder(att)
			}
		})
	lat, err := op.Commit()
	if err != nil {
		s.failures++
		return lat, err
	}
	return lat, nil
}
