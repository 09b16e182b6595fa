package sdm

// Conservation invariants for the randomized churn harness. After any
// quiesced batch — admission, eviction, rebalance, consolidation — the
// scheduler's derived state (index roots, registration indexes, rider
// counts, the rebalancer walk order, the power census) must answer
// exactly what a ground-truth rescan of the bricks answers. The checker
// is O(everything) by design: it is a test oracle, not a hot path.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
)

// CheckInvariants cross-checks every rack's derived state against
// ground truth and returns the first violation found, or nil.
func (s *PodScheduler) CheckInvariants() error {
	live := make(map[*brick.Segment]*Attachment)
	if _, err := s.checkPod(live, nil, nil); err != nil {
		return err
	}
	return checkSegments(live, s)
}

// CheckInvariants is the row analog: every pod's own invariants, plus
// the cross-pod registrations, their circuits' rider counts and the
// row's walk order, with segment ownership checked row-wide.
func (s *RowScheduler) CheckInvariants() error {
	live := make(map[*brick.Segment]*Attachment)
	riders := make(map[*optical.Circuit]int)
	registered := 0
	for p, ps := range s.pods {
		n, err := ps.checkPod(live, &s.spillTier, riders)
		if err != nil {
			return fmt.Errorf("pod %d: %w", p, err)
		}
		registered += n
	}
	if err := checkRiders("row", riders); err != nil {
		return err
	}
	if err := checkWalk("row", &s.cross, s.attachSeq, live, registered); err != nil {
		return err
	}
	return checkSegments(live, s.pods...)
}

// checkPod checks the pod's racks, registrations, cross-rack riders and
// walk order, recording every live attachment's segment in live.
// Attachments of the row's spill tier — the cross-pod ones this pod's
// racks register — are tallied into rowRiders and counted in the
// result.
func (s *PodScheduler) checkPod(live map[*brick.Segment]*Attachment, row *spillTier, rowRiders map[*optical.Circuit]int) (int, error) {
	tiers := [spillLevels]*spillTier{podLevel: &s.spillTier, rowLevel: row}
	riders := [spillLevels]map[*optical.Circuit]int{podLevel: make(map[*optical.Circuit]int), rowLevel: rowRiders}
	var registered [spillLevels]int
	for ri, r := range s.racks {
		if r.batch != nil && r.batch.active {
			return 0, fmt.Errorf("rack %d: invariants checked mid-batch", ri)
		}
		if err := r.checkRack(ri); err != nil {
			return 0, err
		}
		rackRiders := make(map[*optical.Circuit]int)
		hostSeen := make(map[*Attachment]bool)
		for oid, list := range r.attachments {
			owner := r.owners[oid]
			for _, att := range list {
				if att.Owner != owner {
					return 0, fmt.Errorf("rack %d: attachment of %q registered under %q", ri, att.Owner, owner)
				}
				if int(att.ownerID) != oid {
					return 0, fmt.Errorf("rack %d: attachment of %q carries owner id %d, registered at %d", ri, att.Owner, att.ownerID, oid)
				}
				if prev, dup := live[att.Segment]; dup {
					return 0, fmt.Errorf("rack %d: segment %v+%v owned by both %q and %q", ri, att.Segment.Offset, att.Segment.Size, prev.Owner, att.Owner)
				}
				live[att.Segment] = att
				if sp := att.spill; sp != nil {
					w := &tierWords[sp.level]
					if sp != tiers[sp.level] {
						return 0, fmt.Errorf("rack %d: attachment of %q tagged with a foreign %s scheduler", ri, att.Owner, w.tier)
					}
					if att.CPURack != ri {
						return 0, fmt.Errorf("rack %d: %s attachment of %q registered off its compute rack %d", ri, w.cross, att.Owner, att.CPURack)
					}
					if !sp.cross.contains(att) {
						return 0, fmt.Errorf("rack %d: %s attachment of %q missing from the %s walk order", ri, w.cross, att.Owner, w.tier)
					}
					registered[sp.level]++
					tallyRider(riders[sp.level], att)
				} else {
					if att.CPURack != att.MemRack {
						return 0, fmt.Errorf("rack %d: attachment of %q spans racks %d→%d without a pod tag", ri, att.Owner, att.CPURack, att.MemRack)
					}
					tallyRider(rackRiders, att)
				}
				if att.Mode == ModePacket {
					continue
				}
				found := false
				for _, h := range r.hosts(att.spill)[r.cpuPos(att.CPU)] {
					if h == att {
						if found {
							return 0, fmt.Errorf("rack %d: attachment of %q twice in its host index", ri, att.Owner)
						}
						found = true
					}
				}
				if !found {
					return 0, fmt.Errorf("rack %d: circuit attachment of %q missing from its host index", ri, att.Owner)
				}
				hostSeen[att] = true
			}
		}
		// The host indexes carry no stale entries.
		for _, index := range [...][][]*Attachment{r.circuitHosts, r.crossHosts[podLevel], r.crossHosts[rowLevel]} {
			for ord, hosts := range index {
				for _, h := range hosts {
					if !hostSeen[h] {
						return 0, fmt.Errorf("rack %d: orphaned host index entry for %q on %v", ri, h.Owner, r.computeOrder[ord])
					}
				}
			}
		}
		if err := checkRiders(fmt.Sprintf("rack %d", ri), rackRiders); err != nil {
			return 0, err
		}
	}
	if err := checkRiders("pod", riders[podLevel]); err != nil {
		return 0, err
	}
	if err := checkWalk("pod", &s.cross, s.attachSeq, live, registered[podLevel]); err != nil {
		return 0, err
	}
	return registered[rowLevel], nil
}

// tallyRider records att's circuit in a rider census: every circuit an
// attachment uses is present, and packet-mode attachments count as
// riders on it.
func tallyRider(riders map[*optical.Circuit]int, att *Attachment) {
	if att.Mode == ModePacket {
		riders[att.Circuit]++
	} else if _, ok := riders[att.Circuit]; !ok {
		riders[att.Circuit] = 0
	}
}

// checkRiders verifies each circuit's rider count against its live
// packet attachments.
func checkRiders(tier string, riders map[*optical.Circuit]int) error {
	for circuit, n := range riders {
		if circuit.Riders != n {
			return fmt.Errorf("%s: rider count %d on a circuit with %d live packet attachments", tier, circuit.Riders, n)
		}
	}
	return nil
}

// checkWalk verifies a cross walk order: every element live, seq
// strictly increasing and bounded by attachSeq, and exactly registered
// elements long.
func checkWalk(tier string, l *crossList, attachSeq uint64, live map[*brick.Segment]*Attachment, registered int) error {
	var lastSeq uint64
	n := 0
	for att := l.head; att != nil; att = att.crossNext {
		n++
		if att.seq <= lastSeq {
			return fmt.Errorf("%s: cross walk seq %d after %d — walk order corrupted", tier, att.seq, lastSeq)
		}
		lastSeq = att.seq
		if att.seq > attachSeq {
			return fmt.Errorf("%s: cross walk seq %d exceeds attachSeq %d", tier, att.seq, attachSeq)
		}
		if _, ok := live[att.Segment]; !ok {
			return fmt.Errorf("%s: cross walk entry for %q is not a registered attachment", tier, att.Owner)
		}
	}
	if n != registered {
		return fmt.Errorf("%s: %d cross walk entries but %d registered cross attachments", tier, n, registered)
	}
	if l.n != n {
		return fmt.Errorf("%s: cross walk length %d but %d elements counted", tier, l.n, n)
	}
	return nil
}

// checkSegments is the ground-truth segment scan: every carved segment
// on the pods' memory bricks belongs to exactly one live attachment,
// and every live attachment's segment is carved.
func checkSegments(live map[*brick.Segment]*Attachment, pods ...*PodScheduler) error {
	for _, s := range pods {
		for ri, r := range s.racks {
			for pos, m := range r.memories {
				id := r.memoryOrder[pos]
				for _, seg := range m.Segments() {
					att, ok := live[seg]
					if !ok {
						return fmt.Errorf("rack %d: orphaned segment %v+%v owned by %q on %v", ri, seg.Offset, seg.Size, seg.Owner, id)
					}
					if att.Segment.Brick != id {
						return fmt.Errorf("rack %d: attachment of %q names brick %v but its segment lives on %v", ri, att.Owner, att.Segment.Brick, id)
					}
					delete(live, seg)
				}
			}
		}
	}
	for _, att := range live {
		return fmt.Errorf("attachment of %q holds a segment no memory brick carries", att.Owner)
	}
	return nil
}

// checkRack cross-checks one rack's index roots, gap caches and power
// states against ground-truth scans.
func (c *Controller) checkRack(ri int) error {
	coreScan := 0
	for pos, node := range c.computes {
		id := c.computeOrder[pos]
		b := node.Brick
		coreScan += b.FreeCores()
		if !b.IsIdle() && b.State() != brick.PowerActive {
			return fmt.Errorf("rack %d: compute %v has allocations but state %v", ri, id, b.State())
		}
		if b.State() == brick.PowerOff && !b.IsIdle() {
			return fmt.Errorf("rack %d: compute %v powered off with allocations", ri, id)
		}
	}
	if got := c.FreeCores(); got != coreScan {
		return fmt.Errorf("rack %d: index root says %d free cores, scan says %d", ri, got, coreScan)
	}
	var memScan, maxGapScan brick.Bytes
	for pos, m := range c.memories {
		id := c.memoryOrder[pos]
		memScan += m.Free()
		if g := m.LargestGapScan(); g != m.LargestGap() {
			return fmt.Errorf("rack %d: memory %v gap cache %v diverged from scan %v", ri, id, m.LargestGap(), g)
		} else if g > maxGapScan {
			maxGapScan = g
		}
		if !m.IsIdle() && m.State() != brick.PowerActive {
			return fmt.Errorf("rack %d: memory %v has segments but state %v", ri, id, m.State())
		}
		if m.State() == brick.PowerOff && !m.IsIdle() {
			return fmt.Errorf("rack %d: memory %v powered off with segments", ri, id)
		}
	}
	if got := c.FreeMemory(); got != memScan {
		return fmt.Errorf("rack %d: index root says %v free memory, scan says %v", ri, got, memScan)
	}
	if got := c.MaxMemoryGap(); got != maxGapScan {
		return fmt.Errorf("rack %d: index root says %v max gap, scan says %v", ri, got, maxGapScan)
	}
	return nil
}
