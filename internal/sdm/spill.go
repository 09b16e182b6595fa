package sdm

// The spill tier: the cross-boundary half of every tier above the rack.
// The pod spills cross-rack through the pod switch and the row spills
// cross-pod through the row switch with the same operations — circuit
// attach (attachCircuit), the packet fallback onto a live spill circuit
// from the same compute brick, detach, batched detach and its rollback
// journal. Each exists once, here, on the spillTier both schedulers
// embed; the schedulers differ only in how they resolve an endpoint to
// its rack and how they pick the memory end (spillOwner), and in the
// words of their error text (tierWords).

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// Spill levels, indexing Controller.crossHosts and tierWords.
const (
	podLevel = iota
	rowLevel
	spillLevels
)

// spillWords are the words a spill tier's error text is built from.
type spillWords struct {
	tier  string // the tier's name
	local string // where the failed attempt before the spill ran
	cross string // what the spill crosses
	none  string // the failed memory pick
}

var tierWords = [spillLevels]spillWords{
	podLevel: {tier: "pod", local: "rack-locally", cross: "cross-rack", none: "no rack in the pod"},
	rowLevel: {tier: "row", local: "pod-locally", cross: "cross-pod", none: "no pod in the row"},
}

// spillOwner is the scheduler a spill tier belongs to.
type spillOwner interface {
	// rackAt resolves an endpoint to its rack controller; the pod
	// ignores pod.
	rackAt(pod, rack int) *Controller
	// pickSpill applies the placement policy to the memory end of a
	// spill from home, never inside home's own rack (pod tier) or pod
	// (row tier). It returns the rack and brick its confirming pick
	// found, so the spill does not descend again.
	pickSpill(size brick.Bytes, home topo.RowBrickID) (pod, rack int, id topo.BrickID, ok bool)
}

// spillTier is the spill half of a PodScheduler or RowScheduler. It
// owns the tier's counters, its cross fabric and the oldest-first walk
// order of its live spills. A spilled attachment registers on its
// compute rack's controller (so Attachments, scale-down and rider
// queries stay uniform) and points back here through Attachment.spill:
// its teardown routes to this tier from any entry point.
type spillTier struct {
	cfg   Config
	level int
	owner spillOwner
	// crossFabric is the tier's switch as a connector whose endpoints
	// conn fills in.
	crossFabric connector

	// cross lists every live spill in spill order (each stamped with a
	// seq from attachSeq) — the rebalancer's oldest-first walk order,
	// threaded intrusively through the attachments so re-point,
	// rebalance and detach remove in O(1) with no pointer-keyed map.
	cross     crossList
	attachSeq uint64

	requests uint64
	failures uint64
	spills   uint64
}

// conn is the connector for a spill circuit between two endpoint racks.
func (t *spillTier) conn(cpuPod, cpuRack, memPod, memRack int) connector {
	c := t.crossFabric
	c.cpuPod, c.cpuRack, c.memPod, c.memRack = cpuPod, cpuRack, memPod, memRack
	return c
}

// attConn is the connector carrying att's circuit: its spill tier's
// switch, or the compute rack's own fabric when spill is nil.
func attConn(spill *spillTier, att *Attachment, rackA *Controller) connector {
	if spill == nil {
		return rackA.rackConn()
	}
	return spill.conn(att.CPUPod, att.CPURack, att.MemPod, att.MemRack)
}

// home renders a compute brick the way the tier names it: rack-relative
// in a pod, pod-relative in a row.
func (t *spillTier) home(cpu topo.RowBrickID) fmt.Stringer {
	if t.level == podLevel {
		return topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick}
	}
	return cpu
}

// attachSpill serves a request the tier's children could not serve
// locally — localErr is their error, nil when a doom screen skipped the
// doomed local attempt — through the spill, and folds the outcome into
// the tier's counters. A failure wraps both errors.
func (t *spillTier) attachSpill(owner string, cpu topo.RowBrickID, size brick.Bytes, localErr error) (*Attachment, sim.Duration, error) {
	att, lat, err := t.attachCross(owner, cpu, size)
	if err != nil {
		if localErr == nil {
			if t.level == rowLevel {
				localErr = fmt.Errorf("sdm: no memory brick in pod %d with %v contiguous free and a spare port", cpu.Pod, size)
			} else {
				localErr = fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port", size)
			}
		}
		t.failures++
		w := &tierWords[t.level]
		return nil, 0, fmt.Errorf("sdm: %s attach for %q failed %s (%v) and %s: %w", w.tier, owner, w.local, localErr, w.cross, err)
	}
	t.spills++
	return att, lat, nil
}

// attachCross provisions a spill: a segment beyond the home rack (pod
// tier) or pod (row tier), a circuit through the tier's switch, and the
// TGL window on the home rack's compute brick — one inline commit
// (attachCircuit), so every completed step rolls back on failure.
// Exhaustion of circuit resources cascades into the packet fallback.
func (t *spillTier) attachCross(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	att, lat, fallback, err := t.owner.rackAt(cpu.Pod, cpu.Rack).attachCircuit(owner, cpu, size, t)
	if err != nil {
		if fallback {
			if att, fl, ferr := t.attachPacketCross(owner, cpu, size); ferr == nil {
				return att, lat + fl, nil
			}
		}
		return nil, 0, err
	}
	return att, lat, nil
}

// addCrossOrder stamps an attachment with the next spill sequence
// number and appends it to the oldest-first walk order.
func (t *spillTier) addCrossOrder(att *Attachment) {
	t.attachSeq++
	att.seq = t.attachSeq
	t.cross.pushBack(att)
}

// attachPacketCross preserves the packet fallback across the tier: the
// new attachment rides an existing spill circuit from the same compute
// brick, with the on-brick packet switches steering its transactions —
// two lookup-table pushes instead of a switch reconfiguration.
func (t *spillTier) attachPacketCross(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	if !t.cfg.PacketFallback {
		return nil, 0, fmt.Errorf("sdm: packet fallback disabled")
	}
	rackA := t.owner.rackAt(cpu.Pod, cpu.Rack)
	node := rackA.compute(cpu.Brick)
	var (
		host *Attachment
		m    *brick.Memory
	)
	for _, a := range rackA.hosts(t)[rackA.cpuPos(cpu.Brick)] {
		if hm := t.owner.rackAt(a.MemPod, a.MemRack).memory(a.Segment.Brick); hm.LargestGap() >= size {
			host, m = a, hm
			break
		}
	}
	if host == nil {
		w := &tierWords[t.level]
		return nil, 0, fmt.Errorf("sdm: %s packet fallback: no live %s circuit from %v to a memory brick with %v contiguous free", w.tier, w.cross, t.home(cpu), size)
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

	att := rackA.newAttachment()
	att.Owner = owner
	att.CPU = cpu.Brick
	att.Segment = seg
	att.Circuit = host.Circuit
	att.CPUPort = host.CPUPort
	att.MemPort = host.MemPort
	att.Window = window
	att.Mode = ModePacket
	att.CPURack, att.MemRack = cpu.Rack, host.MemRack
	att.CPUPod, att.MemPod = host.CPUPod, host.MemPod
	att.spill = t
	host.Circuit.Riders++
	rackA.register(att)
	t.addCrossOrder(att)
	t.owner.rackAt(host.MemPod, host.MemRack).touchMemory(host.Segment.Brick)
	return att, t.cfg.DecisionLatency + 2*t.cfg.AgentRTT, nil
}

// detachCross tears a spilled attachment down in reverse order.
func (t *spillTier) detachCross(att *Attachment) (sim.Duration, error) {
	t.requests++
	rackA := t.owner.rackAt(att.CPUPod, att.CPURack)
	if !rackA.registered(att) {
		t.failures++
		return 0, fmt.Errorf("sdm: %s attachment for %q on %v not live", tierWords[t.level].cross, att.Owner, att.CPU)
	}
	node := rackA.compute(att.CPU)
	rackB := t.owner.rackAt(att.MemPod, att.MemRack)
	m := rackB.memory(att.Segment.Brick)

	if att.Mode == ModePacket {
		memID := att.Segment.Brick
		if err := node.Agent.Glue.Detach(att.Window.Base); err != nil {
			t.failures++
			return 0, err
		}
		if err := m.Release(att.Segment); err != nil {
			t.failures++
			return 0, err
		}
		if att.Circuit.Riders > 0 {
			att.Circuit.Riders--
		}
		rackA.unregister(att)
		t.cross.remove(att)
		rackB.touchMemory(memID)
		return t.cfg.DecisionLatency + 2*t.cfg.AgentRTT, nil
	}
	if n := att.Circuit.Riders; n > 0 {
		t.failures++
		return 0, fmt.Errorf("sdm: %s circuit of %q on %v carries %d packet-mode riders; detach them first", tierWords[t.level].cross, att.Owner, att.CPU, n)
	}
	op := planDetach(t.cfg, att, rackA, rackB, attConn(t, att, rackA), func() {
		rackA.unregister(att)
		rackA.removeHost(t, att)
		t.cross.remove(att)
	})
	lat, err := op.Commit()
	if err != nil {
		t.failures++
		return 0, err
	}
	return lat, nil
}

// batchDetachCross mirrors detachCross — same validation, counters,
// latency accounting and error surfaces, executed inline as one merged
// commit — and journals the undo into the tier's phase log.
func (t *spillTier) batchDetachCross(att *Attachment, log *[]detachUndo) (sim.Duration, error) {
	t.requests++
	rackA := t.owner.rackAt(att.CPUPod, att.CPURack)
	if !rackA.registered(att) {
		t.failures++
		return 0, fmt.Errorf("sdm: %s attachment for %q on %v not live", tierWords[t.level].cross, att.Owner, att.CPU)
	}
	node := rackA.compute(att.CPU)
	rackB := t.owner.rackAt(att.MemPod, att.MemRack)
	m := rackB.memory(att.Segment.Brick)
	u := detachUndo{
		att:       att,
		cpuRack:   rackA,
		memRack:   rackB,
		memID:     att.Segment.Brick,
		segOffset: att.Segment.Offset,
		segSize:   att.Segment.Size,
		spill:     t,
		// The successor in the walk order, so rollback can re-thread the
		// attachment at its exact position.
		crossNext: att.crossNext,
	}

	if att.Mode == ModePacket {
		if err := node.Agent.Glue.Detach(att.Window.Base); err != nil {
			t.failures++
			return 0, err
		}
		if err := m.Release(att.Segment); err != nil {
			t.failures++
			return 0, err
		}
		if att.Circuit.Riders > 0 {
			att.Circuit.Riders--
		}
		u.packet = true
		*log = append(*log, u)
		rackA.unregister(att)
		t.cross.remove(att)
		rackB.touchMemory(u.memID)
		return t.cfg.DecisionLatency + 2*t.cfg.AgentRTT, nil
	}
	if n := att.Circuit.Riders; n > 0 {
		t.failures++
		return 0, fmt.Errorf("sdm: %s circuit of %q on %v carries %d packet-mode riders; detach them first", tierWords[t.level].cross, att.Owner, att.CPU, n)
	}

	cpu, memID := att.CPU, u.memID
	defer func() {
		rackA.touchCompute(cpu)
		rackB.touchMemory(memID)
	}()
	lat := t.cfg.DecisionLatency
	oldWindow := att.Window

	if err := node.Agent.Glue.Detach(oldWindow.Base); err != nil {
		t.failures++
		return 0, err
	}
	lat += t.cfg.AgentRTT
	d, err := t.crossFabric.disconnect(att.Circuit)
	lat += d
	if err != nil {
		if uerr := node.Agent.Glue.Attach(oldWindow); uerr != nil {
			t.failures++
			return 0, fmt.Errorf("sdm: detach failed (%v) and rollback failed: %w", err, uerr)
		}
		t.failures++
		return 0, err
	}
	if err := rackA.finishDetach(node, m, att); err != nil {
		t.failures++
		return 0, err
	}
	u.hostIdx = rackA.hostIndex(t, att)
	*log = append(*log, u)
	rackA.unregister(att)
	rackA.removeHost(t, att)
	t.cross.remove(att)
	return lat, nil
}
