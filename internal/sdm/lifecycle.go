package sdm

// The attachment lifecycle engine. Attach is one inline commit shared by
// every tier (attachCircuit): the rack's own fabric, a cross-rack spill
// through the pod switch and a cross-pod spill through the row switch
// run the same steps in the same order and unwind explicitly on
// failure, with no plan or closure per call. The rarer mutations of a
// live attachment — detach, re-point of the compute end, re-home of the
// memory end, and the cross-rack→rack-local promotion the rebalancer
// runs — each execute as one AttachmentOp, a plan of reversible steps
// committed atomically. The engine owns circuit setup and teardown on
// every optical tier, the TGL window moves, rider safety, and the
// per-rack registration indexes; alloc.go, reattach.go and the spill
// tier (spill.go) are thin callers.

import (
	"errors"
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// OpKind names the attachment lifecycle operations.
type OpKind int

const (
	// OpAttach provisions a new attachment: segment, circuit, TGL window.
	// It runs inline (attachCircuit) and names the op in its errors.
	OpAttach OpKind = iota
	// OpDetach tears an attachment down in reverse order.
	OpDetach
	// OpRepoint moves the compute end: circuit and TGL window follow the
	// VM to a new compute brick while the segment stays put.
	OpRepoint
	// OpRehome moves the memory end: the segment's contents are copied
	// to another memory brick and the circuit re-terminated there, while
	// the guest-visible window base never changes.
	OpRehome
	// OpPromote is the rehome special case the rebalancer runs: a
	// cross-rack attachment pulled back to its compute rack, releasing
	// both pod uplinks.
	OpPromote
)

func (k OpKind) String() string {
	switch k {
	case OpAttach:
		return "attach"
	case OpDetach:
		return "detach"
	case OpRepoint:
		return "re-point"
	case OpRehome:
		return "re-home"
	case OpPromote:
		return "promote"
	}
	return "op"
}

// rehomeLinkGbps is the line rate charged for shipping a segment's
// contents to its new memory brick during a re-home (one transceiver
// lane over the live circuit, same rate as VM migration's stop-and-copy).
const rehomeLinkGbps = 10

// opStep is one reversible action of a lifecycle plan. A step with a
// nil do is a pure latency charge — data, not a closure, so fixed
// control-plane costs allocate nothing.
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
	// point — after success or after rollback — which makes the
	// lifecycle engine the one choke point where scheduler indexes and
	// brick state reconcile.
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

// connector names the optical tier carrying a circuit and its
// endpoints: a rack's own fabric, or the pod or row switch between two
// racks. Exactly one fabric is set. Plans and teardown journals connect
// and disconnect through it without knowing the tier; it is plain data,
// so carrying one allocates nothing.
type connector struct {
	rack *optical.Fabric
	pod  *optical.PodFabric
	row  *optical.RowFabric
	// cpuPod/cpuRack and memPod/memRack name a spill circuit's endpoint
	// racks (the pod switch ignores the pods).
	cpuPod, cpuRack, memPod, memRack int
}

func (t connector) connect(a, b topo.PortID) (*optical.Circuit, sim.Duration, error) {
	switch {
	case t.row != nil:
		return t.row.ConnectCross(t.cpuPod, t.cpuRack, a, t.memPod, t.memRack, b)
	case t.pod != nil:
		return t.pod.ConnectCross(t.cpuRack, a, t.memRack, b)
	}
	return t.rack.Connect(a, b)
}

func (t connector) disconnect(c *optical.Circuit) (sim.Duration, error) {
	switch {
	case t.row != nil:
		return t.row.DisconnectCross(c)
	case t.pod != nil:
		return t.pod.DisconnectCross(c)
	}
	return t.rack.Disconnect(c)
}

// rackConn is the connector for this rack's own circuit fabric.
func (c *Controller) rackConn() connector { return connector{rack: c.fabric} }

// pairConn is the connector joining compute rack ra to memory rack rb
// of the pod: the rack's own fabric when they coincide, the pod switch
// (one uplink per endpoint rack) otherwise.
func (s *PodScheduler) pairConn(ra, rb int) connector {
	if ra == rb {
		return s.racks[ra].rackConn()
	}
	return s.conn(0, ra, 0, rb)
}

// CanRepoint reports whether an attachment's circuit can be moved
// (compute end re-pointed or memory end re-homed). Packet-mode
// attachments have no circuit of their own, and a circuit carrying
// packet-mode riders would strand them if it moved. This is the single
// movability pre-flight every caller — VM migration, cross-rack
// emigration, the rebalancer — consults.
func (c *Controller) CanRepoint(att *Attachment) error {
	if att.Mode == ModePacket {
		return fmt.Errorf("sdm: packet-mode attachment of %q rides another circuit; detach and re-attach instead", att.Owner)
	}
	if n := c.Riders(att); n > 0 {
		return fmt.Errorf("sdm: circuit of %q on %v carries %d packet-mode riders; move them first", att.Owner, att.CPU, n)
	}
	return nil
}

// register interns the owner and appends the attachment to its live
// list, stamping the dense ownerID every later registry access keys by.
func (c *Controller) register(att *Attachment) {
	id := c.internOwner(att.Owner)
	att.ownerID = id
	c.attachments[id] = append(c.attachments[id], att)
}

// registered locates an attachment in its owner's live list. An
// attachment registered elsewhere scans (at worst) a different owner's
// list and is correctly not found — the pointer identity check makes a
// stale ownerID safe.
func (c *Controller) registered(att *Attachment) bool {
	id := int(att.ownerID)
	if id < 0 || id >= len(c.attachments) {
		return false
	}
	for _, a := range c.attachments[id] {
		if a == att {
			return true
		}
	}
	return false
}

// unregister removes an attachment from its owner's live list.
func (c *Controller) unregister(att *Attachment) {
	id := int(att.ownerID)
	if id < 0 || id >= len(c.attachments) {
		return
	}
	list := c.attachments[id]
	for i, a := range list {
		if a == att {
			c.attachments[id] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// attachCircuit provisions one circuit-mode attachment from compute
// brick cpu of this rack, committed inline: CPU-side port, memory pick
// and power-up, segment carve, memory-side port, circuit, TGL window,
// registration. A failing step unwinds every completed one in reverse
// before returning, so a failed attach leaves the circuit state exactly
// as it found it.
//
// The tier is data, not closures. With spill nil the memory end is
// this rack's and the circuit its own fabric, which recovers from
// optical path faults by quarantine-and-retry. Otherwise cpu names the
// home rack in the spill tier's coordinates, the spill tier picks the
// memory end beyond it, and the circuit crosses the tier's switch.
//
// On failure lat is what the attempt already spent (a brick boot stays
// spent), and fallback reports circuit-resource exhaustion: the cases
// the caller may cascade into its packet fallback. Both endpoints'
// index leaves are touched before it returns, ahead of any fallback.
func (c *Controller) attachCircuit(owner string, cpu topo.RowBrickID, size brick.Bytes, spill *spillTier) (att *Attachment, lat sim.Duration, fallback bool, err error) {
	ord := c.cpuPos(cpu.Brick)
	if ord < 0 {
		return nil, 0, false, fmt.Errorf("sdm: no compute brick %v", cpu.Brick)
	}
	node := c.computes[ord]
	if size == 0 {
		return nil, 0, false, fmt.Errorf("sdm: zero-size attachment")
	}
	lat = c.cfg.DecisionLatency
	var (
		memCtl           *Controller // the memory end's rack, nil until picked
		memPod, memRack  int
		memID            topo.BrickID
		cpuPort, memPort topo.PortID
	)
	defer func() {
		c.touchCompute(cpu.Brick)
		if memCtl != nil {
			memCtl.touchMemory(memID)
		}
		// A failure may have returned capacity, which voids the batch
		// planner's pick caches (see batch.go).
		if err != nil && c.batch != nil && c.batch.active {
			c.batch.invalidateCaches()
		}
	}()

	// The CPU-side port is the scarcest resource: claim it before any
	// memory brick is selected (and possibly powered on), so that port
	// exhaustion falls back to packet mode without wasted boots.
	if cpuPort, err = node.Brick.Ports.Acquire(); err != nil {
		return nil, lat, true, err
	}
	// Memory pick and power-up.
	var ok bool
	if spill != nil {
		if memPod, memRack, memID, ok = spill.owner.pickSpill(size, cpu); ok {
			memCtl = spill.owner.rackAt(memPod, memRack)
		} else {
			err = fmt.Errorf("sdm: %s with %v contiguous free and a spare port", tierWords[spill.level].none, size)
		}
	} else {
		// While the rack's batch is open, the batch planner's pick cache
		// serves the pick (see batch.go).
		if c.batch != nil && c.batch.active {
			memID, ok = c.batchPickMemory(size)
		} else {
			memID, ok = c.pickMemory(size)
		}
		if ok {
			memCtl = c
		} else {
			err = fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port", size)
		}
	}
	if !ok {
		node.Brick.Ports.Release(cpuPort)
		return nil, lat, true, err
	}
	m := memCtl.memory(memID)
	if m.State() == brick.PowerOff {
		m.PowerOn()
		lat += c.cfg.BrickBoot
		if b := memCtl.batch; b != nil && b.active {
			b.memCache.valid = false
		}
		memCtl.boots.log(memCtl, memID, true)
	}
	// Segment carve.
	seg, err := m.Carve(size, owner)
	if err != nil {
		node.Brick.Ports.Release(cpuPort)
		return nil, lat, false, err
	}
	// Memory-side port.
	if memPort, err = m.Ports.Acquire(); err != nil {
		m.Release(seg)
		node.Brick.Ports.Release(cpuPort)
		return nil, lat, true, err
	}
	// Circuit setup. The rack tier quarantines a failed endpoint and
	// retries through another port; the bound covers every port failing.
	// A quarantined port stays withdrawn for the operator (releasing it
	// below is a no-op); the healthy side is released by the ordinary
	// unwind. A spill circuit gets no retry.
	t, maxRetries := c.rackConn(), node.Brick.Ports.Total()+m.Ports.Total()
	if spill != nil {
		t, maxRetries = spill.conn(cpu.Pod, cpu.Rack, memPod, memRack), 0
	}
	var (
		circuit  *optical.Circuit
		reconfig sim.Duration
	)
	for retry := 0; ; retry++ {
		if circuit, reconfig, err = t.connect(cpuPort, memPort); err == nil {
			break
		}
		var pf *optical.PortFailedError
		if !errors.As(err, &pf) || retry >= maxRetries {
			break
		}
		held, ports := &memPort, m.Ports
		if pf.Port == cpuPort {
			held, ports = &cpuPort, node.Brick.Ports
		}
		var p topo.PortID
		rerr := ports.Quarantine(*held)
		if rerr == nil {
			p, rerr = ports.Acquire()
		}
		if rerr != nil {
			err = fmt.Errorf("sdm: circuit fault recovery exhausted ports: %w", rerr)
			break
		}
		*held = p
	}
	if err != nil {
		m.Ports.Release(memPort)
		m.Release(seg)
		node.Brick.Ports.Release(cpuPort)
		return nil, lat, spill != nil, err
	}
	lat += reconfig
	// TGL window push via the SDM Agent.
	window := tgl.Entry{
		Base:       node.nextWindow,
		Size:       uint64(size),
		Dest:       memID,
		DestOffset: uint64(seg.Offset),
		Port:       cpuPort,
	}
	if err = node.Agent.Glue.Attach(window); err != nil {
		if _, uerr := t.disconnect(circuit); uerr != nil {
			return nil, lat, false, fmt.Errorf("sdm: %v failed (%v) and rollback failed: %w", OpAttach, err, uerr)
		}
		m.Ports.Release(memPort)
		m.Release(seg)
		node.Brick.Ports.Release(cpuPort)
		return nil, lat, false, err
	}
	node.nextWindow += uint64(size)
	lat += c.cfg.AgentRTT
	// Registration, final and infallible. The attachment comes from the
	// compute rack's arena, so steady-state churn allocates no objects.
	att = c.newAttachment()
	att.Owner = owner
	att.CPU = cpu.Brick
	att.Segment = seg
	att.Circuit = circuit
	att.CPUPort = cpuPort
	att.MemPort = memPort
	att.Window = window
	att.Mode = ModeCircuit
	att.CPURack, att.MemRack = cpu.Rack, memRack
	att.CPUPod, att.MemPod = cpu.Pod, memPod
	att.spill = spill
	c.register(att)
	c.addHost(spill, ord, att)
	if spill != nil {
		spill.addCrossOrder(att)
	}
	return att, lat, false, nil
}

// planDetach builds the teardown plan shared by every tier, the exact
// reverse of attachCircuit: window, circuit, ports, segment,
// unregistration. Validation (liveness, packet mode, riders) is the
// thin caller's job; t carries the attachment's circuit tier.
func planDetach(cfg Config, att *Attachment, rackA, rackB *Controller, t connector, unregister func()) *AttachmentOp {
	op := newOp(OpDetach)
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
