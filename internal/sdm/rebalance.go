package sdm

// The online rebalancer: cross-rack spills are the pod tier's relief
// valve, but they hold two pod uplinks and pay the inter-rack fiber on
// every access for as long as they live. Rebalance undoes them — it
// walks the live cross-rack attachments oldest-first and, wherever the
// home rack's memory has freed up since the spill, re-homes the
// segment rack-local through the lifecycle engine's OpPromote,
// releasing both uplinks and collapsing the access path back to the
// rack fabric.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// Promotion records one cross-rack attachment pulled rack-local.
type Promotion struct {
	Owner    string
	Size     int64 // bytes
	FromRack int   // the rack that held the spilled segment
	HomeRack int   // the compute rack the segment now lives on
	Latency  sim.Duration
}

// RebalanceReport summarizes one rebalancing sweep.
type RebalanceReport struct {
	// At is the virtual time the sweep ran.
	At sim.Time
	// Scanned counts live cross-rack attachments inspected.
	Scanned int
	// Promoted counts attachments re-homed rack-local.
	Promoted int
	// SkippedPacket counts packet-mode riders, which own no circuit and
	// cannot be promoted directly (their host circuit must go first).
	SkippedPacket int
	// SkippedRiders counts circuits left in place because packet-mode
	// riders still share them.
	SkippedRiders int
	// SkippedNoRoom counts attachments whose home rack still has no
	// contiguous gap (or spare port) for the segment.
	SkippedNoRoom int
	// Failed counts promotions that rolled back mid-plan.
	Failed int
	// FreedUplinks is the net pod-switch uplinks released by the sweep
	// (two per promoted circuit, one on each endpoint rack).
	FreedUplinks int
	// Latency is the total orchestration-plus-copy time of the sweep.
	Latency sim.Duration
	// Promotions details each re-homed attachment in sweep order.
	Promotions []Promotion
}

// Promote re-homes one cross-rack attachment onto its own compute
// rack: a fresh segment is carved rack-local, the contents shipped
// over the still-live pod circuit, the TGL window re-aimed in place
// (the guest-visible base never changes, so no hotplug is charged) and
// the pod circuit replaced by a rack-local one — one OpPromote through
// the lifecycle engine, rolled back completely on any mid-plan
// failure.
func (s *PodScheduler) Promote(att *Attachment) (sim.Duration, error) {
	if err := s.movable(att); err != nil {
		return 0, err
	}
	if !att.CrossRack() {
		return 0, fmt.Errorf("sdm: attachment of %q is already rack-local", att.Owner)
	}
	return s.Rehome(att, att.CPURack)
}

// Rehome moves an attachment's memory end onto any rack in the pod
// while the compute end — and the guest's physical address map — stays
// put. Landing on the compute rack is a promotion (the rebalancer's
// move); landing elsewhere re-spills the segment sideways, which is
// the drain primitive for emptying a rack's memory bricks.
func (s *PodScheduler) Rehome(att *Attachment, targetRack int) (sim.Duration, error) {
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
		// The partial latency is returned with the error: a rolled-back
		// re-home may still have booted a brick or shipped the copy, and
		// that virtual time was spent (same contract as Commit).
		s.failures++
		return lat, err
	}
	return lat, nil
}

// Promoted returns how many attachments the scheduler has pulled back
// rack-local over its lifetime.
func (s *PodScheduler) Promoted() uint64 { return s.promoted }

// Rebalance runs one online rebalancing sweep at virtual time now: it
// walks the live cross-rack attachments oldest-first and promotes each
// one rack-local when its home rack can hold the segment again. Circuits
// still carrying packet-mode riders, the riders themselves, and
// attachments whose home rack remains full are skipped; a promotion
// that fails mid-plan rolls back and is reported, never propagated —
// the sweep is an opportunistic background pass, not a transaction.
func (s *PodScheduler) Rebalance(now sim.Time) RebalanceReport {
	rep := RebalanceReport{At: now}
	// Every live pod cross circuit holds one uplink on each of its two
	// racks, so the uplinks freed are twice the circuits torn down.
	crossBefore := s.fabric.CrossCircuits()
	// The sweep iterates a snapshot (promotions mutate the cross walk
	// order), off a scratch buffer reused across sweeps so a periodic
	// rebalancer allocates nothing when there is nothing to promote.
	snapshot := s.rebalScratch[:0]
	for att := s.cross.head; att != nil; att = att.crossNext {
		snapshot = append(snapshot, att)
	}
	s.rebalScratch = snapshot
	for _, att := range snapshot {
		if !att.CrossRack() {
			continue
		}
		rep.Scanned++
		if att.Mode == ModePacket {
			rep.SkippedPacket++
			continue
		}
		if att.Circuit.Riders > 0 {
			rep.SkippedRiders++
			continue
		}
		if _, ok := s.racks[att.CPURack].pickMemory(att.Size()); !ok {
			rep.SkippedNoRoom++
			continue
		}
		fromRack := att.MemRack
		lat, err := s.Promote(att)
		rep.Latency += lat // failed promotions still spend their partial time
		if err != nil {
			rep.Failed++
			continue
		}
		rep.Promoted++
		rep.Promotions = append(rep.Promotions, Promotion{
			Owner:    att.Owner,
			Size:     int64(att.Size()),
			FromRack: fromRack,
			HomeRack: att.CPURack,
			Latency:  lat,
		})
	}
	rep.FreedUplinks = 2 * (crossBefore - s.fabric.CrossCircuits())
	return rep
}
