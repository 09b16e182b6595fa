package sdm

// The attachment lifecycle: every mutation of an attachment's circuit
// is one inline commit that runs its steps in order and, on failure,
// undoes the completed ones in reverse, with no plan object and no
// allocation per call. Attach (attachCircuit) is shared by every tier:
// the rack's own fabric, a cross-rack spill through the pod switch and
// a cross-pod spill through the row switch run the same steps in the
// same order. Detach is its reverse (detach in teardown.go). The moves
// of a live attachment are the other two: re-point of the compute end
// (repointCircuit), and re-home of the memory end (rehomeCircuit),
// whose special case is the rebalancer's cross-rack→rack-local
// promotion. Between them they own circuit setup and teardown on every
// optical tier, the TGL window moves, rider safety and the per-rack
// registration indexes; alloc.go, reattach.go, pod.go, rebalance.go
// and the spill tier (spill.go) are thin callers.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// OpKind names the attachment lifecycle operations.
type OpKind int

const (
	// OpAttach provisions a new attachment: segment, circuit, TGL window
	// (attachCircuit).
	OpAttach OpKind = iota
	// OpRepoint moves the compute end: circuit and TGL window follow the
	// VM to a new compute brick while the segment stays put
	// (repointCircuit).
	OpRepoint
	// OpRehome moves the memory end: the segment's contents are copied
	// to another memory brick and the circuit re-terminated there, while
	// the guest-visible window base never changes (rehomeCircuit).
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

// register links a newly attached (or re-pointed) attachment into the
// rack's live list under a fresh stamp, so it sorts after every
// attachment already registered here.
func (c *Controller) register(att *Attachment) {
	if c.nextStamp == math.MaxUint32 {
		c.restamp()
	}
	att.stamp = c.nextStamp
	c.nextStamp++
	c.relink(att)
}

// relink appends att to the live list keeping its stamp — the rollback
// half of register, which puts a restored attachment back at its place
// in attach order.
func (c *Controller) relink(att *Attachment) {
	att.slot = int32(len(c.live))
	c.live = append(c.live, att)
}

// restamp renumbers the live list densely in stamp order when the
// counter would wrap. Nothing registers while a teardown journal is
// open, so no detached attachment awaiting rollback holds a stale
// stamp.
func (c *Controller) restamp() {
	sortByStamp(c.live)
	for i, att := range c.live {
		att.slot, att.stamp = int32(i), uint32(i)
	}
	c.nextStamp = uint32(len(c.live))
}

// registered reports whether att is live on this rack: its slot holds
// it. An attachment registered elsewhere, or since detached, fails the
// pointer check whatever its slot says.
func (c *Controller) registered(att *Attachment) bool {
	i := int(att.slot)
	return i < len(c.live) && c.live[i] == att
}

// unregister removes att from the live list, moving the last entry
// into its slot.
func (c *Controller) unregister(att *Attachment) {
	if !c.registered(att) {
		return
	}
	last := len(c.live) - 1
	moved := c.live[last]
	moved.slot = att.slot
	c.live[att.slot] = moved
	c.live[last] = nil
	c.live = c.live[:last]
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
func (c *Controller) attachCircuit(owner string, cpu topo.RowBrickID, size brick.Bytes, spill *tier) (att *Attachment, lat sim.Duration, fallback bool, err error) {
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
		var mem topo.RowBrickID
		if mem, ok = spill.pickMemory(size, spill.childOf(cpu.Pod, cpu.Rack)); ok {
			memPod, memRack, memID = mem.Pod, mem.Rack, mem.Brick
			memCtl = spill.rackAt(mem)
		} else {
			w := &tierWords[spill.level]
			err = fmt.Errorf("sdm: no %s in the %s with %v contiguous free and a spare port", w.child, w.tier, size)
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
			return nil, lat, false, rollbackFailed(OpAttach, err, uerr)
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

// repointCircuit moves the compute end of att, registered on this rack,
// to brick newCPU of newRack (this rack for a rack-local re-point): the
// circuit and TGL window follow the VM while the segment, and the data
// on it, stays exactly where it is. oldConn and newConn carry the
// circuit before and after; t is the pod tier that takes the attachment
// into its spill order when the new circuit crosses racks (nil on a
// lone rack). The caller has checked that newCPU exists.
//
// Committed inline like attachCircuit: on failure every completed step
// is undone in reverse and lat is what the attempt spent. Both compute
// bricks' index leaves are touched before it returns.
func (c *Controller) repointCircuit(att *Attachment, newRack *Controller, newCPU topo.RowBrickID, t *tier, oldConn, newConn connector) (lat sim.Duration, err error) {
	oldNode, newNode := c.compute(att.CPU), newRack.compute(newCPU.Brick)
	oldCPU, oldWindow := att.CPU, att.Window
	defer func() {
		c.touchCompute(oldCPU)
		newRack.touchCompute(newCPU.Brick)
	}()
	lat = c.cfg.DecisionLatency
	var (
		newCPUPort topo.PortID
		circuit    *optical.Circuit
		window     tgl.Entry
	)
	// unwind undoes, newest first, the steps after the port claim that
	// completed: 1 the old circuit's teardown, 2 the new circuit, 3 the
	// new window, 4 the old window's removal.
	unwind := func(done int, cause error) error {
		var uerr error
		switch done {
		case 4:
			if uerr = oldNode.Agent.Glue.Attach(oldWindow); uerr != nil {
				break
			}
			fallthrough
		case 3:
			if uerr = newNode.Agent.Glue.Detach(window.Base); uerr != nil {
				break
			}
			fallthrough
		case 2:
			if _, uerr = newConn.disconnect(circuit); uerr != nil {
				break
			}
			fallthrough
		case 1:
			var old *optical.Circuit
			if old, _, uerr = oldConn.connect(att.CPUPort, att.MemPort); uerr != nil {
				break
			}
			att.Circuit = old
			fallthrough
		default:
			newNode.Brick.Ports.Release(newCPUPort)
		}
		return rollbackFailed(OpRepoint, cause, uerr)
	}

	// Claim the new CPU-side port first; nothing is torn down until the
	// new resources are secured.
	if newCPUPort, err = newNode.Brick.Ports.Acquire(); err != nil {
		return lat, err
	}
	// Tear the old circuit down, freeing the memory-side port (and, for
	// a cross-rack circuit, both pod uplinks) for the new one.
	d, err := oldConn.disconnect(att.Circuit)
	lat += d
	if err != nil {
		return lat, unwind(0, err)
	}
	if circuit, d, err = newConn.connect(newCPUPort, att.MemPort); err != nil {
		return lat, unwind(1, err)
	}
	lat += d
	// Install the window on the new brick's agent, then remove the old
	// one; between the two pushes both windows map the segment, which is
	// safe because the VM is paused across a re-point.
	window = tgl.Entry{
		Base:       newNode.nextWindow,
		Size:       oldWindow.Size,
		Dest:       att.Segment.Brick,
		DestOffset: uint64(att.Segment.Offset),
		Port:       newCPUPort,
	}
	if err = newNode.Agent.Glue.Attach(window); err != nil {
		return lat, unwind(2, err)
	}
	newNode.nextWindow += window.Size
	lat += c.cfg.AgentRTT
	if err = oldNode.Agent.Glue.Detach(oldWindow.Base); err != nil {
		return lat, unwind(3, fmt.Errorf("sdm: old window removal: %w", err))
	}
	lat += c.cfg.AgentRTT
	if err = oldNode.Brick.Ports.Release(att.CPUPort); err != nil {
		return lat, unwind(4, err)
	}

	// Hand the registration over, final and infallible. It follows the
	// compute rack: the new rack stamps the attachment after everything
	// already registered there.
	if newRack != c {
		c.unregister(att)
		newRack.register(att)
	}
	c.removeHost(att.spill, att)
	if att.spill != nil {
		t.cross.remove(att)
	}
	att.CPU, att.CPURack = newCPU.Brick, newCPU.Rack
	att.CPUPort, att.Circuit, att.Window = newCPUPort, circuit, window
	att.spill = nil
	if att.CrossRack() {
		att.spill = t
		t.addCrossOrder(att)
	}
	newRack.addHost(att.spill, newRack.cpuPos(newCPU.Brick), att)
	return lat, nil
}

// rehomeCircuit moves the memory end of att onto rack target of the pod
// while the compute end stays put: a segment is carved on the target's
// pick, the contents ship over the still-live old circuit, the TGL
// window is re-aimed in place (same guest-visible base, so no baremetal
// or hypervisor work) and the circuit is re-terminated on the new brick.
// kind names the move in a rollback failure. The caller has checked the
// attachment and the target.
//
// Committed inline like attachCircuit: on failure every completed step
// is undone in reverse and lat is what the attempt spent (a brick boot
// stays spent). Both memory bricks' index leaves are touched before it
// returns.
func (s *PodScheduler) rehomeCircuit(kind OpKind, att *Attachment, target int) (lat sim.Duration, err error) {
	rackA, oldMemRack, newMemRack := s.racks[att.CPURack], s.racks[att.MemRack], s.racks[target]
	node := rackA.compute(att.CPU)
	oldMemID, oldWindow := att.Segment.Brick, att.Window
	oldMem := oldMemRack.memory(oldMemID)
	oldConn, newConn := s.pairConn(att.CPURack, att.MemRack), s.pairConn(att.CPURack, target)
	wasCross := att.CrossRack()
	var (
		newMemID topo.BrickID
		m        *brick.Memory
	)
	defer func() {
		oldMemRack.touchMemory(oldMemID)
		if m != nil {
			newMemRack.touchMemory(newMemID)
		}
	}()
	lat = s.cfg.DecisionLatency

	// Target selection, power-up and carve.
	newMemID, ok := newMemRack.pickMemory(att.Size())
	if !ok {
		return lat, fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port to re-home %q", att.Size(), att.Owner)
	}
	m = newMemRack.memory(newMemID)
	if m.State() == brick.PowerOff {
		m.PowerOn()
		lat += s.cfg.BrickBoot
	}
	seg, err := m.Carve(att.Size(), att.Owner)
	if err != nil {
		return lat, err
	}
	var (
		memPort topo.PortID
		circuit *optical.Circuit
		window  tgl.Entry
	)
	// unwind undoes, newest first, the steps after the carve that
	// completed: 1 the memory-side port, 2 the window re-aim, 3 the old
	// circuit's teardown, 4 the new circuit.
	unwind := func(done int, cause error) error {
		var uerr error
		switch done {
		case 4:
			if _, uerr = newConn.disconnect(circuit); uerr != nil {
				break
			}
			fallthrough
		case 3:
			var old *optical.Circuit
			if old, _, uerr = oldConn.connect(att.CPUPort, att.MemPort); uerr != nil {
				break
			}
			att.Circuit = old
			fallthrough
		case 2:
			if uerr = node.Agent.Glue.Detach(window.Base); uerr != nil {
				break
			}
			if uerr = node.Agent.Glue.Attach(oldWindow); uerr != nil {
				break
			}
			fallthrough
		case 1:
			m.Ports.Release(memPort)
			fallthrough
		default:
			m.Release(seg)
		}
		return rollbackFailed(kind, cause, uerr)
	}

	if memPort, err = m.Ports.Acquire(); err != nil {
		return lat, unwind(0, err)
	}
	// Ship the contents over the still-live old circuit.
	lat += optical.SerializationDelay(int(att.Size()), rehomeLinkGbps)
	// Re-aim the TGL window in place: same base, new destination.
	if err = node.Agent.Glue.Detach(oldWindow.Base); err != nil {
		return lat, unwind(1, err)
	}
	window = tgl.Entry{
		Base:       oldWindow.Base,
		Size:       oldWindow.Size,
		Dest:       newMemID,
		DestOffset: uint64(seg.Offset),
		Port:       att.CPUPort,
	}
	if err = node.Agent.Glue.Attach(window); err != nil {
		node.Agent.Glue.Attach(oldWindow)
		return lat, unwind(1, err)
	}
	lat += s.cfg.AgentRTT
	// Swap the circuit: the old tier's teardown frees the memory-side
	// port (and any pod uplinks); the new tier re-terminates on the same
	// CPU port.
	d, err := oldConn.disconnect(att.Circuit)
	lat += d
	if err != nil {
		return lat, unwind(2, err)
	}
	if circuit, d, err = newConn.connect(att.CPUPort, memPort); err != nil {
		return lat, unwind(3, err)
	}
	lat += d
	// Release the old memory end.
	if err = oldMem.Ports.Release(att.MemPort); err != nil {
		return lat, unwind(4, err)
	}
	if err = oldMem.Release(att.Segment); err != nil {
		return lat, unwind(4, err)
	}

	// Hand the registration over, final and infallible.
	att.Segment, att.MemPort, att.MemRack = seg, memPort, target
	att.Circuit, att.Window = circuit, window
	ord := rackA.cpuPos(att.CPU)
	switch nowCross := att.CrossRack(); {
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
	return lat, nil
}

// rollbackFailed is a failed move's error: its cause, or the cause and
// the undo step that failed, which leaves the move half done.
func rollbackFailed(kind OpKind, cause, uerr error) error {
	if uerr != nil {
		return fmt.Errorf("sdm: %v failed (%v) and rollback failed: %w", kind, cause, uerr)
	}
	return cause
}
