package sdm

// Batched group-commit teardown, rack tier — the inverse of batch.go's
// admission machinery. A churning pod retires VM-shaped consumers in
// bursts, and serving them one DetachRemoteMemory/ReleaseCompute call
// at a time repays an index-leaf refresh per touched brick per op.
// ReleaseBatch amortizes it the same way PlaceBatch does: index touches
// divert to the batch dirty sets and flush once per touched brick at
// batch end. Every detach, batched or sequential, is one body (detach):
// the same steps in the same order with the same latency accounting,
// counters and error surfaces, so a batch of size 1 reproduces the
// sequential detach path bit for bit.
//
// Every batched teardown appends an undo record to a journal. The
// record captures exactly what the detach destroyed — the segment
// offsets, the port IDs, the registration positions — so the pod tier's
// all-or-nothing EvictBatch can replay the journal in reverse and
// restore the pre-batch state byte-identically (segments re-carved at
// their exact offsets, the exact ports re-acquired, circuits rebuilt
// and re-keyed for any packet-mode riders, crossOrder re-threaded
// without re-stamping spill sequence numbers). A sequential detach
// keeps no journal.

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
}

// detachUndo records one teardown so an aborting batch can restore the
// attachment exactly: same segment offset, same ports, same host index
// position, same registration stamp and spill sequence number (both
// stay on the attachment).
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

	// hostIdx is the attachment's position in its tier's host index
	// (circuit mode only).
	hostIdx int

	// spill is the tier a spilled attachment belongs to (nil for
	// rack-local ones); the circuit is rebuilt through its switch, and
	// crossNext restores its walk order: the attachment is re-inserted
	// before crossNext (appended when nil) with its original seq —
	// attachSeq itself never moves on teardown.
	spill     *tier
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
		req, res := &reqs[i], &out[i]
		res.DetachLat, res.Detached, _, res.Err = c.releaseOne(req.CPU, req.VCPUs, req.LocalMem, req.Atts)
	}
	c.endBatch()
}

// evictShard is ReleaseBatch over a pod's share of a group-commit
// eviction: it returns the share's first failed request and its error,
// and records each completed compute release for rollbackEvict.
func (c *Controller) evictShard(reqs []EvictRequest, out []EvictResult) (int, error) {
	c.beginTeardown()
	failed, ferr := -1, error(nil)
	for i := range reqs {
		req, res := &reqs[i], &out[i]
		var err error
		res.DetachLat, res.Detached, res.released, err = c.releaseOne(req.CPU, req.VCPUs, req.LocalMem, req.Atts)
		if err != nil && failed < 0 {
			failed, ferr = i, err
		}
	}
	c.endBatch()
	return failed, ferr
}

// rollbackEvict undoes the rack's share of an aborted eviction: the
// teardown journal in reverse, then the compute its last evictShard
// released, newest first. It returns cause annotated with any step that
// failed to roll back.
func (c *Controller) rollbackEvict(reqs []EvictRequest, out []EvictResult, cause error) error {
	cause = replayUndo(c.undoLog, cause)
	c.undoLog = c.undoLog[:0]
	for i := len(reqs) - 1; i >= 0; i-- {
		if !out[i].released {
			continue
		}
		req := &reqs[i]
		node := c.compute(req.CPU)
		if req.VCPUs > 0 {
			if err := node.Brick.AllocCores(req.VCPUs); err != nil {
				cause = fmt.Errorf("%w (and rollback of %q failed: %v)", cause, req.Owner, err)
			}
		}
		if req.LocalMem > 0 {
			if err := node.Brick.AllocLocal(req.LocalMem); err != nil {
				cause = fmt.Errorf("%w (and rollback of %q failed: %v)", cause, req.Owner, err)
			}
		}
		c.touchCompute(req.CPU)
		out[i].released = false
	}
	return cause
}

// releaseOne serves one retirement of a batch: its detaches in order,
// then its compute release. released reports a completed compute
// release.
func (c *Controller) releaseOne(cpu topo.BrickID, vcpus int, localMem brick.Bytes, atts []*Attachment) (lat sim.Duration, detached int, released bool, err error) {
	for _, att := range atts {
		if att.spill != nil {
			// Spilled attachments are their spill tier's to tear down.
			return lat, detached, false, fmt.Errorf("sdm: %s attachment of %q in a rack-local release batch", tierWords[att.spill.level].cross, att.Owner)
		}
		d, err := c.detach(att, &c.undoLog)
		if err != nil {
			return lat, detached, false, err
		}
		lat += d
		detached++
	}
	if vcpus > 0 || localMem > 0 {
		if err := c.ReleaseCompute(cpu, vcpus, localMem); err != nil {
			return lat, detached, false, err
		}
		released = true
	}
	return lat, detached, released, nil
}

// detach tears att, registered on this rack, down in the reverse order
// of attachCircuit — window, circuit, ports, segment, registration —
// through its spill tier's switch when it spilled, else through the
// rack's own fabric; the request counts on the tier that owns it. With
// a journal it appends the undo record an aborting batch replays; a
// sequential detach passes none and skips the record's host-index scan.
func (c *Controller) detach(att *Attachment, log *[]detachUndo) (sim.Duration, error) {
	sp := att.spill
	n := c.counts(sp)
	n.requests++
	if !c.registered(att) {
		n.failures++
		return 0, fmt.Errorf("sdm: %sattachment for %q on %v not live", crossWord(sp), att.Owner, att.CPU)
	}
	rackB := c.memEnd(att)
	u := detachUndo{
		att:       att,
		cpuRack:   c,
		memRack:   rackB,
		memID:     att.Segment.Brick,
		segOffset: att.Segment.Offset,
		segSize:   att.Segment.Size,
		spill:     sp,
		// The successor in the walk order, so rollback can re-thread the
		// attachment at its exact position.
		crossNext: att.crossNext,
	}
	if att.Mode == ModePacket {
		if err := c.dropRider(att, rackB); err != nil {
			n.failures++
			return 0, err
		}
		if log != nil {
			u.packet = true
			*log = append(*log, u)
		}
		c.unregister(att)
		if sp != nil {
			sp.cross.remove(att)
		}
		rackB.touchMemory(u.memID)
		return c.cfg.DecisionLatency + 2*c.cfg.AgentRTT, nil
	}
	if k := att.Circuit.Riders; k > 0 {
		n.failures++
		return 0, fmt.Errorf("sdm: %scircuit of %q on %v carries %d packet-mode riders; detach them first", crossWord(sp), att.Owner, att.CPU, k)
	}

	node := c.compute(att.CPU)
	cpu, memID := att.CPU, u.memID
	// The op's touch hooks, deferred so every exit marks both endpoints
	// dirty exactly as Commit would have touched them.
	defer func() {
		c.touchCompute(cpu)
		rackB.touchMemory(memID)
	}()
	lat := c.cfg.DecisionLatency
	oldWindow := att.Window

	// Window removal.
	if err := node.Agent.Glue.Detach(oldWindow.Base); err != nil {
		n.failures++
		return 0, err
	}
	lat += c.cfg.AgentRTT
	// Circuit teardown.
	d, err := attConn(sp, att, c).disconnect(att.Circuit)
	lat += d
	if err != nil {
		if uerr := node.Agent.Glue.Attach(oldWindow); uerr != nil {
			n.failures++
			return 0, fmt.Errorf("sdm: detach failed (%v) and rollback failed: %w", err, uerr)
		}
		n.failures++
		return 0, err
	}
	// Ports, segment, unregistration — final and irreversible.
	if err := c.finishDetach(node, rackB.memory(memID), att); err != nil {
		n.failures++
		return 0, err
	}
	if log != nil {
		u.hostIdx = c.hostIndex(sp, att)
		*log = append(*log, u)
	}
	c.unregister(att)
	c.removeHost(sp, att)
	if sp != nil {
		sp.cross.remove(att)
	}
	return lat, nil
}

// finishDetach releases the ports and segment of a circuit teardown.
func (c *Controller) finishDetach(node *ComputeNode, m *brick.Memory, att *Attachment) error {
	if err := node.Brick.Ports.Release(att.CPUPort); err != nil {
		return err
	}
	if err := m.Ports.Release(att.MemPort); err != nil {
		return err
	}
	return m.Release(att.Segment)
}

// insertAtt re-inserts att into list at position idx.
func insertAtt(list []*Attachment, idx int, att *Attachment) []*Attachment {
	list = append(list, nil)
	copy(list[idx+1:], list[idx:])
	list[idx] = att
	return list
}

// replayUndo restores a teardown journal newest first and returns
// cause annotated with any record that failed to restore.
func replayUndo(log []detachUndo, cause error) error {
	for i := len(log) - 1; i >= 0; i-- {
		if err := log[i].undoDetach(); err != nil {
			cause = fmt.Errorf("%w (and rollback of %q failed: %v)", cause, log[i].att.Owner, err)
		}
	}
	return cause
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
	// The registration keeps its stamp, so attach order is restored;
	// the host index entry goes back at its recorded position.
	rackA.relink(att)
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
func findHost(rackA *Controller, spill *tier, rider *Attachment) *Attachment {
	for _, a := range rackA.hosts(spill)[rackA.cpuPos(rider.CPU)] {
		if a.CPUPort == rider.CPUPort {
			return a
		}
	}
	return nil
}
