package sdm

// Consolidation: the power story's second half. The rebalancer undoes
// individual spills opportunistically; under sustained churn that is
// not enough to let whole racks go dark, because departures leave thin
// smears of remote memory on racks whose compute has already emptied.
// Consolidate drains those racks deliberately — every surviving segment
// on a drainable rack re-homes onto the consumer's own rack (a
// promotion) or side-spills onto a rack that stays up — so the
// PowerOffIdle sweep that follows can stop every brick on the drained
// rack and the pod's draw drops by a whole rack's floor.

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// RebalanceBatch is the batched promotion sweep: one Rebalance pass
// with every rack's index maintenance group-committed — leaf refreshes
// defer to the batch dirty sets and flush once per touched brick at the
// end, while every placement descent inside the sweep still flushes
// first and so answers exactly what the sequential sweep would see.
// The report is byte-identical to Rebalance's.
func (s *PodScheduler) RebalanceBatch(now sim.Time) RebalanceReport {
	for _, r := range s.racks {
		r.beginBatch()
	}
	rep := s.Rebalance(now)
	for _, r := range s.racks {
		r.endBatch()
	}
	return rep
}

// ConsolidationReport summarizes one consolidation pass.
type ConsolidationReport struct {
	// At is the virtual time the pass ran.
	At sim.Time
	// Scanned counts segments inspected on drainable racks.
	Scanned int
	// Promoted counts segments re-homed onto their consumer's own rack;
	// Rehomed counts segments side-spilled onto another surviving rack.
	Promoted int
	Rehomed  int
	// SkippedPacket counts packet-mode riders (their host circuit pins
	// the segment's brick); SkippedRiders counts host circuits still
	// carrying riders; SkippedNoRoom counts segments no surviving rack
	// could hold.
	SkippedPacket int
	SkippedRiders int
	SkippedNoRoom int
	// Failed counts re-homes that rolled back midway.
	Failed int
	// RacksDrained counts racks whose pooled memory emptied this pass;
	// PoweredOff counts bricks stopped by the closing sweep; DarkRacks
	// counts racks with every brick off afterwards.
	RacksDrained int
	PoweredOff   int
	DarkRacks    int
	// Latency is the total orchestration-plus-copy time of the pass.
	Latency sim.Duration
}

// drainable reports whether a rack is a power-down candidate: no
// compute consumer and no bare-metal tenant lives there, so the only
// thing keeping it up is remote memory parked by other racks.
func (c *Controller) drainable() bool {
	if c.bareMetalCount > 0 {
		return false
	}
	for _, n := range c.computes {
		if !n.Brick.IsIdle() {
			return false
		}
	}
	return true
}

// usedMemory reports whether any pooled-memory brick holds segments.
func (c *Controller) usedMemory() bool {
	for _, m := range c.memories {
		if !m.IsIdle() {
			return true
		}
	}
	return false
}

// Consolidate runs one consolidation pass at virtual time now: it walks
// the racks highest-index first (the packing policies fill racks in
// index order, so trailing racks empty first), and for each drainable
// rack re-homes every surviving segment off it — onto the consumer's
// own rack when it has room again, else onto the lowest-index surviving
// rack that fits. A closing PowerOffIdle sweep then stops every brick
// the drain left idle. Like the rebalancer, the pass is opportunistic:
// a re-home that fails midway rolls back and is reported, never
// propagated. Index maintenance is group-committed across the pass.
func (s *PodScheduler) Consolidate(now sim.Time) ConsolidationReport {
	rep := ConsolidationReport{At: now}
	for _, r := range s.racks {
		r.beginBatch()
	}
	for d := len(s.racks) - 1; d >= 1; d-- {
		rack := s.racks[d]
		if !rack.drainable() || !rack.usedMemory() {
			continue
		}
		// Snapshot the spills parked on this rack (re-homes mutate the
		// cross walk order), reusing the rebalancer's scratch buffer.
		snapshot := s.rebalScratch[:0]
		for att := s.cross.head; att != nil; att = att.crossNext {
			if att.MemRack == d {
				snapshot = append(snapshot, att)
			}
		}
		s.rebalScratch = snapshot
		for _, att := range snapshot {
			rep.Scanned++
			if att.Mode == ModePacket {
				rep.SkippedPacket++
				continue
			}
			if att.Circuit.Riders > 0 {
				rep.SkippedRiders++
				continue
			}
			// Home rack first — a drain that doubles as a promotion frees
			// the pod uplinks too. Else the lowest-index rack that fits,
			// skipping racks at or above the drain frontier.
			target := -1
			if _, ok := s.racks[att.CPURack].pickMemory(att.Size()); ok {
				target = att.CPURack
			} else {
				for t := 0; t < d; t++ {
					if t == att.CPURack {
						continue
					}
					if _, ok := s.racks[t].pickMemory(att.Size()); ok {
						target = t
						break
					}
				}
			}
			if target < 0 {
				rep.SkippedNoRoom++
				continue
			}
			lat, err := s.Rehome(att, target)
			rep.Latency += lat // failed re-homes still spend their partial time
			if err != nil {
				rep.Failed++
				continue
			}
			if target == att.CPURack {
				rep.Promoted++
			} else {
				rep.Rehomed++
			}
		}
		if !rack.usedMemory() {
			rep.RacksDrained++
		}
	}
	for _, r := range s.racks {
		r.endBatch()
	}
	rep.PoweredOff = s.PowerOffIdle()
	for _, r := range s.racks {
		if r.dark() {
			rep.DarkRacks++
		}
	}
	return rep
}

// dark reports whether every brick on the rack is powered off.
func (c *Controller) dark() bool {
	for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory, topo.KindAccel} {
		pc := c.Census(kind)
		if pc.Idle > 0 || pc.Active > 0 {
			return false
		}
	}
	return true
}

// DarkRacks counts racks with every brick powered off.
func (s *PodScheduler) DarkRacks() int {
	n := 0
	for _, r := range s.racks {
		if r.dark() {
			n++
		}
	}
	return n
}
