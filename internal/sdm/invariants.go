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
	"repro/internal/topo"
)

// invCheck is one CheckInvariants walk's state.
type invCheck struct {
	live map[*brick.Segment]*Attachment
	// tiers, riders and registered hold, per level, the tier being
	// walked, the rider census of its spill circuits and its registered
	// spills.
	tiers      [spillLevels]*tier
	riders     [spillLevels]map[*optical.Circuit]int
	registered [spillLevels]int
	// pod is the index of the pod being walked in a row, -1 in a lone
	// pod (whose attachments' pod coordinate is not checked).
	pod int
	// racks lists every rack walked, with its index in its pod, for the
	// closing segment scan.
	racks []checkedRack
}

type checkedRack struct {
	ri int
	c  *Controller
}

// CheckInvariants cross-checks every rack's derived state against
// ground truth — and, in a row, every pod's cached summary — plus each
// tier's spill registrations, their circuits' rider counts and its walk
// order, with segment ownership checked tier-wide. It returns the first
// violation found, or nil.
func (t *tier) CheckInvariants() error {
	c := &invCheck{live: make(map[*brick.Segment]*Attachment), pod: -1}
	if err := t.check(c); err != nil {
		return err
	}
	return c.checkSegments()
}

// check walks the tier's children, then its spills' riders and walk
// order.
func (t *tier) check(c *invCheck) error {
	c.tiers[t.level] = t
	c.riders[t.level] = make(map[*optical.Circuit]int)
	c.registered[t.level] = 0
	for i, child := range t.children {
		if err := child.checkIn(c, i); err != nil {
			return err
		}
	}
	w := tierWords[t.level].tier
	if err := checkRiders(w, c.riders[t.level]); err != nil {
		return err
	}
	return checkWalk(w, &t.cross, t.attachSeq, c.live, c.registered[t.level])
}

// checkIn walks pod i of a row: its tier, then its cached summary.
func (s *PodScheduler) checkIn(c *invCheck, i int) error {
	c.pod = i
	err := s.check(c)
	if err == nil {
		err = s.agg.check()
	}
	if err != nil {
		return fmt.Errorf("pod %d: %w", i, err)
	}
	return nil
}

// check recomputes the pod summary from its racks' index roots (which
// checkRack pins to the bricks) and compares every cached aggregate.
func (g *podAgg) check() error {
	var cores int64
	var mem, gap brick.Bytes
	var cpuCensus, memCensus [nStates]int32
	for _, r := range g.racks {
		cores += int64(r.FreeCores())
		mem += r.FreeMemory()
		if rg := r.MaxMemoryGap(); rg > gap {
			gap = rg
		}
		cc, mc := r.cpuIdx.stateCounts(), r.memIdx.stateCounts()
		for st := range cpuCensus {
			cpuCensus[st] += cc[st]
			memCensus[st] += mc[st]
		}
	}
	switch {
	case g.FreeCores() != cores:
		return fmt.Errorf("aggregate says %d free cores, rack roots say %d", g.FreeCores(), cores)
	case g.FreeMemory() != mem:
		return fmt.Errorf("aggregate says %v free memory, rack roots say %v", g.FreeMemory(), mem)
	case g.MaxGap() != gap:
		return fmt.Errorf("aggregate says %v max gap, rack roots say %v", g.MaxGap(), gap)
	case g.cpuCensus != cpuCensus:
		return fmt.Errorf("aggregate compute census %v, rack roots say %v", g.cpuCensus, cpuCensus)
	case g.memCensus != memCensus:
		return fmt.Errorf("aggregate memory census %v, rack roots say %v", g.memCensus, memCensus)
	}
	return nil
}

// checkIn checks rack ri of a pod — its index roots, registrations,
// host indexes and rack-local riders — tallying its spills into their
// tiers' censuses and recording every live attachment's segment.
func (r *Controller) checkIn(c *invCheck, ri int) error {
	if r.batch != nil && r.batch.active {
		return fmt.Errorf("rack %d: invariants checked mid-batch", ri)
	}
	if err := r.checkRack(ri); err != nil {
		return err
	}
	c.racks = append(c.racks, checkedRack{ri, r})
	rackRiders := make(map[*optical.Circuit]int)
	hostSeen := make(map[*Attachment]bool)
	stamps := make(map[uint32]bool, len(r.live))
	for i, att := range r.live {
		if int(att.slot) != i {
			return fmt.Errorf("rack %d: attachment of %q at live slot %d records slot %d", ri, att.Owner, i, att.slot)
		}
		if att.stamp >= r.nextStamp {
			return fmt.Errorf("rack %d: attachment of %q stamped %d, counter at %d", ri, att.Owner, att.stamp, r.nextStamp)
		}
		if stamps[att.stamp] {
			return fmt.Errorf("rack %d: registration stamp %d issued twice", ri, att.stamp)
		}
		stamps[att.stamp] = true
		if att.CPURack != ri || c.pod >= 0 && att.CPUPod != c.pod {
			return fmt.Errorf("rack %d: attachment of %q registered off its compute rack p%d.r%d", ri, att.Owner, att.CPUPod, att.CPURack)
		}
		if prev, dup := c.live[att.Segment]; dup {
			return fmt.Errorf("rack %d: segment %v+%v owned by both %q and %q", ri, att.Segment.Offset, att.Segment.Size, prev.Owner, att.Owner)
		}
		c.live[att.Segment] = att
		if sp := att.spill; sp != nil {
			w := &tierWords[sp.level]
			if sp != c.tiers[sp.level] {
				return fmt.Errorf("rack %d: attachment of %q tagged with a foreign %s scheduler", ri, att.Owner, w.tier)
			}
			if !sp.cross.contains(att) {
				return fmt.Errorf("rack %d: %s attachment of %q missing from the %s walk order", ri, w.cross, att.Owner, w.tier)
			}
			c.registered[sp.level]++
			tallyRider(c.riders[sp.level], att)
		} else {
			if att.CPURack != att.MemRack {
				return fmt.Errorf("rack %d: attachment of %q spans racks %d→%d without a pod tag", ri, att.Owner, att.CPURack, att.MemRack)
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
					return fmt.Errorf("rack %d: attachment of %q twice in its host index", ri, att.Owner)
				}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("rack %d: circuit attachment of %q missing from its host index", ri, att.Owner)
		}
		hostSeen[att] = true
	}
	// The host indexes carry no stale entries.
	for _, index := range [...][][]*Attachment{r.circuitHosts, r.crossHosts[podLevel], r.crossHosts[rowLevel]} {
		for ord, hosts := range index {
			for _, h := range hosts {
				if !hostSeen[h] {
					return fmt.Errorf("rack %d: orphaned host index entry for %q on %v", ri, h.Owner, r.computeOrder[ord])
				}
			}
		}
	}
	return checkRiders(fmt.Sprintf("rack %d", ri), rackRiders)
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
// on the walked racks' memory bricks belongs to exactly one live
// attachment, and every live attachment's segment is carved.
func (c *invCheck) checkSegments() error {
	for _, cr := range c.racks {
		ri, r := cr.ri, cr.c
		for pos, m := range r.memories {
			id := r.memoryOrder[pos]
			for _, seg := range m.Segments() {
				att, ok := c.live[seg]
				if !ok {
					return fmt.Errorf("rack %d: orphaned segment %v+%v owned by %q on %v", ri, seg.Offset, seg.Size, seg.Owner, id)
				}
				if att.Segment.Brick != id {
					return fmt.Errorf("rack %d: attachment of %q names brick %v but its segment lives on %v", ri, att.Owner, att.Segment.Brick, id)
				}
				delete(c.live, seg)
			}
		}
	}
	for _, att := range c.live {
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
	if got, want := c.cpuIdx.stateCounts(), c.Census(topo.KindCompute); got != censusCounts(want) {
		return fmt.Errorf("rack %d: compute index root census %v, scan says %+v", ri, got, want)
	}
	if got, want := c.memIdx.stateCounts(), c.Census(topo.KindMemory); got != censusCounts(want) {
		return fmt.Errorf("rack %d: memory index root census %v, scan says %+v", ri, got, want)
	}
	return nil
}

// censusCounts lays a census out as an index root's per-state counts.
func censusCounts(pc PowerCensus) [nStates]int32 {
	var cnt [nStates]int32
	cnt[brick.PowerOff], cnt[brick.PowerIdle], cnt[brick.PowerActive] = int32(pc.Off), int32(pc.Idle), int32(pc.Active)
	return cnt
}
