package sdm

// The spill: the cross-boundary half of every tier. The pod spills
// cross-rack through the pod switch and the row spills cross-pod
// through the row switch with the same operations, here on the tier
// (tier.go). The steps themselves run on the compute rack's controller
// and are shared with rack-local attachments: the circuit attach
// (attachCircuit), the packet ride (ridePacket) and the teardown
// (detach, journaled in a batch). A spilled attachment registers on
// its compute rack's controller (so Attachments, scale-down and rider
// queries stay uniform) and points back at its tier through
// Attachment.spill: its teardown routes there from any entry point.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// conn is the connector for a spill circuit between two endpoint racks.
func (t *tier) conn(cpuPod, cpuRack, memPod, memRack int) connector {
	c := t.crossFabric
	c.cpuPod, c.cpuRack, c.memPod, c.memRack = cpuPod, cpuRack, memPod, memRack
	return c
}

// attConn is the connector carrying att's circuit: its spill tier's
// switch, or the compute rack's own fabric when spill is nil.
func attConn(spill *tier, att *Attachment, rackA *Controller) connector {
	if spill == nil {
		return rackA.rackConn()
	}
	return spill.conn(att.CPUPod, att.CPURack, att.MemPod, att.MemRack)
}

// home renders a compute brick the way the tier names it: rack-relative
// in a pod, pod-relative in a row.
func (t *tier) home(cpu topo.RowBrickID) fmt.Stringer {
	if t.level == podLevel {
		return topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick}
	}
	return cpu
}

// attachSpill serves a request the tier's children could not serve
// locally — localErr is their error, nil when a doom screen skipped the
// doomed local attempt — through the spill, and folds the outcome into
// the tier's counters. A failure wraps both errors.
func (t *tier) attachSpill(owner string, cpu topo.RowBrickID, size brick.Bytes, localErr error) (*Attachment, sim.Duration, error) {
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
		return nil, 0, spillFailed(t.level, owner, localErr, err)
	}
	t.spills++
	return att, lat, nil
}

// spillFailed is the error of a spill at level that failed with err
// after the local attempt failed with localErr.
func spillFailed(level int, owner string, localErr, err error) error {
	w := &tierWords[level]
	return fmt.Errorf("sdm: %s attach for %q failed %s (%v) and %s: %w", w.tier, owner, w.local, localErr, w.cross, err)
}

// attachCross provisions a spill: a segment beyond the home rack (pod
// tier) or pod (row tier), a circuit through the tier's switch, and the
// TGL window on the home rack's compute brick — one inline commit
// (attachCircuit), so every completed step rolls back on failure.
// Exhaustion of circuit resources cascades into the packet fallback.
func (t *tier) attachCross(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	att, lat, fallback, err := t.rackAt(cpu).attachCircuit(owner, cpu, size, t)
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
func (t *tier) addCrossOrder(att *Attachment) {
	t.attachSeq++
	att.seq = t.attachSeq
	t.cross.pushBack(att)
}

// attachPacketCross preserves the packet fallback across the tier: the
// new attachment rides an existing spill circuit from the same compute
// brick (ridePacket).
func (t *tier) attachPacketCross(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	if !t.cfg.PacketFallback {
		return nil, 0, fmt.Errorf("sdm: packet fallback disabled")
	}
	return t.rackAt(cpu).ridePacket(owner, cpu, size, t)
}

// detachCross tears a spilled attachment down from its compute rack.
func (t *tier) detachCross(att *Attachment) (sim.Duration, error) {
	return t.rackAt(att.cpuAt()).detach(att, nil)
}
