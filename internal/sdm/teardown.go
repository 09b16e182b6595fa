package sdm

// Batched group-commit teardown, rack tier — the inverse of batch.go's
// admission machinery. A churning pod retires VM-shaped consumers in
// bursts, and serving them one DetachRemoteMemory/ReleaseCompute call
// at a time repays an index-leaf refresh per touched brick per op.
// ReleaseBatch amortizes it the same way PlaceBatch does: index touches
// divert to the batch dirty sets and flush once per touched brick at
// batch end, and each detach executes inline as one merged commit — the
// same steps as the lifecycle engine's OpDetach, in the same order with
// the same latency accounting, counters and error surfaces — so a batch
// of size 1 reproduces the sequential detach path bit for bit.
//
// Every teardown appends an undo record to the controller's journal.
// The record captures exactly what the detach destroyed — the segment
// offsets, the port IDs, the registration positions — so the pod tier's
// all-or-nothing EvictBatch can replay the journal in reverse and
// restore the pre-batch state byte-identically (segments re-carved at
// their exact offsets, the exact ports re-acquired, circuits rebuilt
// and re-keyed for any packet-mode riders, crossOrder re-threaded
// without re-stamping spill sequence numbers).

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ReleaseRequest is one retirement of a VM-shaped consumer in a batch:
// the attachments to tear down (in the caller's order — scale-down
// paths pass newest-first) and the compute reservation to return.
type ReleaseRequest struct {
	// Owner tags the consumer being retired.
	Owner string
	// CPU is the compute brick whose reservation is released; ignored
	// when VCPUs is 0 and no LocalMem is held.
	CPU topo.BrickID
	// VCPUs and LocalMem are the compute reservation being returned; 0/0
	// marks a detach-only request.
	VCPUs    int
	LocalMem brick.Bytes
	// Atts are the attachments to detach, processed in order. Rack-tier
	// callers pass rack-local attachments only; the pod tier routes
	// cross-rack ones through its own serial phase.
	Atts []*Attachment
	// Rack names CPU's rack at the pod tier; rack controllers ignore it.
	Rack int
}

// ReleaseResult is one retirement's outcome.
type ReleaseResult struct {
	// DetachLat is the summed orchestration latency of the request's
	// detaches, each accounted exactly as DetachRemoteMemory would.
	DetachLat sim.Duration
	// Detached counts attachments actually torn down.
	Detached int
	// Err marks a failed request: its remaining detaches and the compute
	// release were skipped (already-detached attachments stay detached —
	// use the pod tier's EvictBatch for all-or-nothing semantics).
	Err error

	// released records a completed compute release for rollback.
	released bool
}

// detachUndo records one teardown so an aborting batch can restore the
// attachment exactly: same segment offset, same ports, same positions
// in every registration index, same spill sequence number.
type detachUndo struct {
	att    *Attachment
	packet bool

	// cpuRack/memRack are the controllers owning the two endpoints (the
	// same controller for rack-local attachments); memID/segOffset/segSize
	// the released segment's identity, captured before the Release because
	// the segment object returns to its brick's arena and may be recycled
	// by the time rollback replays the record — rollback re-carves at the
	// exact offset.
	cpuRack   *Controller
	memRack   *Controller
	memID     topo.BrickID
	segOffset brick.Bytes
	segSize   brick.Bytes

	// attIdx is the attachment's position in attachments[owner]; hostIdx
	// its position in its tier's host index (circuit mode only).
	attIdx  int
	hostIdx int

	// spill is the tier a spilled attachment belongs to (nil for
	// rack-local ones); the circuit is rebuilt through its switch, and
	// crossNext restores its walk order: the attachment is re-inserted
	// before crossNext (appended when nil) with its original seq —
	// attachSeq itself never moves on teardown.
	spill     *spillTier
	crossNext *Attachment
}

// undoLog is the controller's teardown journal for its last release
// batch. It lives on the controller so each rack journals its own
// teardowns; beginTeardown resets it, so no tier resets it for racks a
// batch never touches, and a pod rollback replays only the racks its
// shard ran on.

// beginTeardown opens batch mode and resets the teardown journal.
func (c *Controller) beginTeardown() {
	c.beginBatch()
	c.undoLog = c.undoLog[:0]
}

// ReleaseBatch retires a batch of consumers against this rack: per
// request its attachments detach and its compute reservation returns,
// with index-leaf refreshes deferred and merged — one refresh per
// touched brick per batch. Requests are served in order; a request that
// fails mid-teardown has its Err set and later requests still run.
// out must have len(reqs) slots.
func (c *Controller) ReleaseBatch(reqs []ReleaseRequest, out []ReleaseResult) {
	c.beginTeardown()
	for i := range reqs {
		c.releaseOne(&reqs[i], &out[i])
	}
	c.endBatch()
}

// releaseOne serves one retirement of a batch.
func (c *Controller) releaseOne(req *ReleaseRequest, res *ReleaseResult) {
	*res = ReleaseResult{}
	for _, att := range req.Atts {
		lat, err := c.batchDetach(att)
		if err != nil {
			res.Err = err
			return
		}
		res.DetachLat += lat
		res.Detached++
	}
	if req.VCPUs > 0 || req.LocalMem > 0 {
		if err := c.ReleaseCompute(req.CPU, req.VCPUs, req.LocalMem); err != nil {
			res.Err = err
			return
		}
		res.released = true
	}
}

// batchDetach mirrors DetachRemoteMemory's rack-local teardown — the
// same validation, counters, latency accounting and error surfaces as
// the lifecycle engine's OpDetach, executed inline as one merged commit
// — and journals an undo record. Spilled attachments are their spill
// tier's to tear down, never this path's.
func (c *Controller) batchDetach(att *Attachment) (sim.Duration, error) {
	if att.spill != nil {
		return 0, fmt.Errorf("sdm: %s attachment of %q in a rack-local release batch", tierWords[att.spill.level].cross, att.Owner)
	}
	c.requests++
	idx := -1
	if id := int(att.ownerID); id >= 0 && id < len(c.attachments) {
		for i, a := range c.attachments[id] {
			if a == att {
				idx = i
				break
			}
		}
	}
	if idx == -1 {
		c.failures++
		return 0, fmt.Errorf("sdm: attachment for %q on %v not live", att.Owner, att.CPU)
	}
	if att.Mode == ModePacket {
		return c.batchDetachPacket(att, idx)
	}
	if n := att.Circuit.Riders; n > 0 {
		c.failures++
		return 0, fmt.Errorf("sdm: circuit of %q on %v carries %d packet-mode riders; detach them first", att.Owner, att.CPU, n)
	}

	cpuOrd := c.cpuPos(att.CPU)
	node := c.computes[cpuOrd]
	m := c.memory(att.Segment.Brick)
	cpu, memID := att.CPU, att.Segment.Brick
	// The op's touch hooks, deferred so every exit marks both endpoints
	// dirty exactly as Commit would have touched them.
	defer func() {
		c.touchCompute(cpu)
		c.touchMemory(memID)
	}()
	lat := c.cfg.DecisionLatency
	oldWindow := att.Window

	// Window removal.
	if err := node.Agent.Glue.Detach(oldWindow.Base); err != nil {
		c.failures++
		return 0, err
	}
	lat += c.cfg.AgentRTT
	// Circuit teardown.
	d, err := c.fabric.Disconnect(att.Circuit)
	lat += d
	if err != nil {
		if uerr := node.Agent.Glue.Attach(oldWindow); uerr != nil {
			c.failures++
			return 0, fmt.Errorf("sdm: detach failed (%v) and rollback failed: %w", err, uerr)
		}
		c.failures++
		return 0, err
	}
	// Capture the segment identity before the release returns the object
	// to its brick's arena.
	segOffset, segSize := att.Segment.Offset, att.Segment.Size
	// Ports, segment, unregistration — final, mirroring planDetach's
	// irreversible last step.
	if err := c.finishDetach(node, m, att); err != nil {
		c.failures++
		return 0, err
	}
	c.undoLog = append(c.undoLog, detachUndo{
		att:       att,
		cpuRack:   c,
		memRack:   c,
		memID:     memID,
		segOffset: segOffset,
		segSize:   segSize,
		attIdx:    idx,
		hostIdx:   c.hostIndex(nil, att),
	})
	list := c.attachments[att.ownerID]
	c.attachments[att.ownerID] = append(list[:idx], list[idx+1:]...)
	c.removeHost(nil, att)
	return lat, nil
}

// finishDetach releases the ports and segment of a circuit teardown —
// the shared tail of the rack and spill-tier merged detach paths.
func (c *Controller) finishDetach(node *ComputeNode, m *brick.Memory, att *Attachment) error {
	if err := node.Brick.Ports.Release(att.CPUPort); err != nil {
		return err
	}
	if err := m.Ports.Release(att.MemPort); err != nil {
		return err
	}
	return m.Release(att.Segment)
}

// batchDetachPacket mirrors detachPacket and journals the undo.
func (c *Controller) batchDetachPacket(att *Attachment, idx int) (sim.Duration, error) {
	node := c.compute(att.CPU)
	memID := att.Segment.Brick
	m := c.memory(memID)
	segOffset, segSize := att.Segment.Offset, att.Segment.Size
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
	c.undoLog = append(c.undoLog, detachUndo{
		att:       att,
		packet:    true,
		cpuRack:   c,
		memRack:   c,
		memID:     memID,
		segOffset: segOffset,
		segSize:   segSize,
		attIdx:    idx,
	})
	list := c.attachments[att.ownerID]
	c.attachments[att.ownerID] = append(list[:idx], list[idx+1:]...)
	c.touchMemory(memID)
	return c.cfg.DecisionLatency + 2*c.cfg.AgentRTT, nil
}

// insertAtt re-inserts att into list at position idx.
func insertAtt(list []*Attachment, idx int, att *Attachment) []*Attachment {
	list = append(list, nil)
	copy(list[idx+1:], list[idx:])
	list[idx] = att
	return list
}

// undoDetach restores one journaled teardown. Circuit-mode restores
// rebuild the circuit as a fresh object; packet-mode riders that shared
// a torn-down circuit re-key onto the replacement via the live host
// (their host, torn down after them, is restored before them by the
// reverse replay).
func (u *detachUndo) undoDetach() error {
	att := u.att
	rackA := u.cpuRack
	node := rackA.compute(att.CPU)
	m := u.memRack.memory(u.memID)
	seg, err := m.CarveAt(u.segOffset, u.segSize, att.Owner)
	if err != nil {
		return err
	}
	att.Segment = seg
	if u.packet {
		// Re-key onto the host circuit, which a circuit-mode restore may
		// have rebuilt: the live host for this CPU port carries it.
		if host := findHost(rackA, u.spill, att); host != nil {
			att.Circuit = host.Circuit
		}
		if err := node.Agent.Glue.Attach(att.Window); err != nil {
			m.Release(seg)
			return err
		}
		att.Circuit.Riders++
	} else {
		if err := node.Brick.Ports.Reacquire(att.CPUPort); err != nil {
			m.Release(seg)
			return err
		}
		if err := m.Ports.Reacquire(att.MemPort); err != nil {
			node.Brick.Ports.Release(att.CPUPort)
			m.Release(seg)
			return err
		}
		t := attConn(u.spill, att, rackA)
		circuit, _, err := t.connect(att.CPUPort, att.MemPort)
		if err != nil {
			m.Ports.Release(att.MemPort)
			node.Brick.Ports.Release(att.CPUPort)
			m.Release(seg)
			return err
		}
		att.Circuit = circuit
		if err := node.Agent.Glue.Attach(att.Window); err != nil {
			t.disconnect(circuit)
			m.Ports.Release(att.MemPort)
			node.Brick.Ports.Release(att.CPUPort)
			m.Release(seg)
			return err
		}
	}
	// Registrations go back at their recorded positions.
	rackA.register(att)
	list := rackA.attachments[att.ownerID]
	rackA.attachments[att.ownerID] = insertAtt(list[:len(list)-1], u.attIdx, att)
	if !u.packet {
		hosts := rackA.hosts(u.spill)
		ord := rackA.cpuPos(att.CPU)
		hosts[ord] = insertAtt(hosts[ord], u.hostIdx, att)
	}
	if u.spill != nil {
		// Re-thread the spill walk order without re-stamping seq.
		u.spill.cross.insertBefore(att, u.crossNext)
	}
	rackA.touchCompute(att.CPU)
	u.memRack.touchMemory(u.memID)
	return nil
}

// findHost locates the live circuit-mode attachment whose circuit a
// packet rider shares: same tier, same CPU port.
func findHost(rackA *Controller, spill *spillTier, rider *Attachment) *Attachment {
	for _, a := range rackA.hosts(spill)[rackA.cpuPos(rider.CPU)] {
		if a.CPUPort == rider.CPUPort {
			return a
		}
	}
	return nil
}
