package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ReserveCompute selects a compute brick with the requested cores and
// local memory, reserves them for owner, and returns the brick plus the
// control-plane latency (decision time, plus boot time if the brick had
// to be powered on).
func (c *Controller) ReserveCompute(owner string, vcpus int, localMem brick.Bytes) (topo.BrickID, sim.Duration, error) {
	c.requests++
	if vcpus <= 0 {
		c.failures++
		return topo.BrickID{}, 0, fmt.Errorf("sdm: reserve of %d vcpus", vcpus)
	}
	lat := c.cfg.DecisionLatency
	id, ok := c.pickCompute(vcpus, localMem)
	if !ok {
		c.failures++
		return topo.BrickID{}, 0, fmt.Errorf("sdm: no compute brick with %d free cores and %v local memory", vcpus, localMem)
	}
	node := c.compute(id)
	if node.Brick.State() == brick.PowerOff {
		node.Brick.PowerOn()
		lat += c.cfg.BrickBoot
		c.boots.log(c, id, false)
	}
	if err := node.Brick.AllocCores(vcpus); err != nil {
		c.failures++
		return topo.BrickID{}, 0, err
	}
	if localMem > 0 {
		if err := node.Brick.AllocLocal(localMem); err != nil {
			// Roll back the core reservation; selection should have
			// prevented this, so any failure here is a bug surfaced loudly.
			node.Brick.FreeCoresBack(vcpus)
			c.touchCompute(id)
			c.failures++
			return topo.BrickID{}, 0, err
		}
	}
	c.touchCompute(id)
	return id, lat, nil
}

// ReleaseCompute returns cores and local memory to a brick.
func (c *Controller) ReleaseCompute(id topo.BrickID, vcpus int, localMem brick.Bytes) error {
	node := c.compute(id)
	if node == nil {
		return fmt.Errorf("sdm: no compute brick %v", id)
	}
	if err := node.Brick.FreeCoresBack(vcpus); err != nil {
		return err
	}
	if localMem > 0 {
		if err := node.Brick.FreeLocal(localMem); err != nil {
			c.touchCompute(id)
			return err
		}
	}
	c.touchCompute(id)
	return nil
}

// pickCompute applies the placement policy to compute brick selection,
// dispatching to the placement index (O(log n) descents) or, in
// linear-scan mode, to the pre-index full scan. Both paths select the
// byte-identical brick (see TestPickEquivalence).
func (c *Controller) pickCompute(vcpus int, localMem brick.Bytes) (topo.BrickID, bool) {
	if c.cfg.Scan == ScanLinear {
		return c.pickComputeLinear(vcpus, localMem)
	}
	if c.batch != nil && c.batch.active {
		// A batched sweep (rebalance, consolidation) routed a sequential
		// pick here while index touches divert to the dirty sets: flush
		// them first so the descent runs on an exact tree.
		c.flushDirtyCPU()
	}
	return c.pickComputeIndexed(vcpus, localMem, -1)
}

// pickComputeIndexed serves compute selection from the placement index;
// exclude (an order position, -1 for none) supports migration's
// anywhere-but-here variant.
func (c *Controller) pickComputeIndexed(vcpus int, localMem brick.Bytes, exclude int) (topo.BrickID, bool) {
	minA, minB := int64(vcpus), int64(localMem)
	switch c.cfg.Policy {
	case PolicyFirstFit:
		if pos := c.cpuIdx.firstFit(minA, minB, exclude); pos >= 0 {
			return c.computeOrder[pos], true
		}
	case PolicySpread:
		if pos := c.cpuIdx.spreadBest(minA, minB, exclude); pos >= 0 {
			return c.computeOrder[pos], true
		}
	default:
		// Power-aware: active first (pack), then idle, then powered-off.
		for _, want := range powerPreference {
			if pos := c.cpuIdx.firstFitState(want, minA, minB, exclude); pos >= 0 {
				return c.computeOrder[pos], true
			}
		}
	}
	return topo.BrickID{}, false
}

// pickComputeLinear is the pre-index scan over computeOrder.
func (c *Controller) pickComputeLinear(vcpus int, localMem brick.Bytes) (topo.BrickID, bool) {
	fits := func(n *ComputeNode) bool {
		if n.Brick.FreeCores() < vcpus {
			return false
		}
		return n.Brick.LocalMemory-n.Brick.UsedLocal() >= localMem
	}
	switch c.cfg.Policy {
	case PolicyFirstFit:
		for pos, n := range c.computes {
			if fits(n) {
				return c.computeOrder[pos], true
			}
		}
	case PolicySpread:
		best, found := topo.BrickID{}, false
		bestFree := -1
		for pos, n := range c.computes {
			if fits(n) && n.Brick.FreeCores() > bestFree {
				best, bestFree, found = c.computeOrder[pos], n.Brick.FreeCores(), true
			}
		}
		return best, found
	default:
		for _, want := range powerPreference {
			for pos, n := range c.computes {
				if n.Brick.State() == want && fits(n) {
					return c.computeOrder[pos], true
				}
			}
		}
	}
	return topo.BrickID{}, false
}

// pickMemory applies the placement policy to memory brick selection,
// requiring a contiguous gap of at least size and a free transceiver
// port to terminate the new circuit.
func (c *Controller) pickMemory(size brick.Bytes) (topo.BrickID, bool) {
	if c.cfg.Scan == ScanLinear {
		return c.pickMemoryLinear(size)
	}
	if c.batch != nil && c.batch.active {
		c.flushDirtyMem()
	}
	return c.pickMemoryIndexed(size)
}

// pickMemoryIndexed serves memory selection from the placement index.
func (c *Controller) pickMemoryIndexed(size brick.Bytes) (topo.BrickID, bool) {
	minA, minB := int64(size), int64(1)
	switch c.cfg.Policy {
	case PolicyFirstFit:
		if pos := c.memIdx.firstFit(minA, minB, -1); pos >= 0 {
			return c.memoryOrder[pos], true
		}
	case PolicySpread:
		if pos := c.memIdx.spreadBest(minA, minB, -1); pos >= 0 {
			return c.memoryOrder[pos], true
		}
	default:
		for _, want := range powerPreference {
			if pos := c.memIdx.firstFitState(want, minA, minB, -1); pos >= 0 {
				return c.memoryOrder[pos], true
			}
		}
	}
	return topo.BrickID{}, false
}

// pickMemoryLinear is the pre-index scan over memoryOrder; its fitness
// probe rescans each brick's segment list (LargestGapScan), faithfully
// reproducing the pre-index cost profile.
func (c *Controller) pickMemoryLinear(size brick.Bytes) (topo.BrickID, bool) {
	fits := func(m *brick.Memory) bool { return m.LargestGapScan() >= size && m.Ports.Free() > 0 }
	switch c.cfg.Policy {
	case PolicyFirstFit:
		for pos, m := range c.memories {
			if fits(m) {
				return c.memoryOrder[pos], true
			}
		}
	case PolicySpread:
		best, found := topo.BrickID{}, false
		var bestFree brick.Bytes
		for pos, m := range c.memories {
			if fits(m) && (!found || m.Free() > bestFree) {
				best, bestFree, found = c.memoryOrder[pos], m.Free(), true
			}
		}
		return best, found
	default:
		for _, want := range powerPreference {
			for pos, m := range c.memories {
				if m.State() == want && fits(m) {
					return c.memoryOrder[pos], true
				}
			}
		}
	}
	return topo.BrickID{}, false
}

// AttachRemoteMemory performs the full orchestration sequence for one
// memory attachment: select and reserve a segment, set up the circuit,
// and push the TGL window to the compute brick's agent — one inline
// commit (attachCircuit), so on any failure every completed step is
// rolled back, honouring the paper's "safely reserve" requirement.
// The returned latency is the orchestration delay a scale-up request
// observes before the OS-level hotplug begins.
func (c *Controller) AttachRemoteMemory(owner string, cpu topo.BrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	c.requests++
	att, lat, fallback, err := c.attachCircuit(owner, topo.RowBrickID{Brick: cpu}, size, nil, nil)
	if err != nil {
		if fallback && c.cfg.PacketFallback {
			if att, fl, ferr := c.attachPacket(owner, cpu, size); ferr == nil {
				return att, lat + fl, nil
			}
		}
		c.failures++
		return nil, 0, err
	}
	return att, lat, nil
}

// DetachRemoteMemory tears an attachment down in reverse order and
// returns the orchestration latency. Pod-tier cross-rack attachments
// route to their owning pod scheduler, so rack-local callers need not
// distinguish them.
func (c *Controller) DetachRemoteMemory(att *Attachment) (sim.Duration, error) {
	if att.crossRow != nil {
		return att.crossRow.detachCross(att)
	}
	if att.cross != nil {
		return att.cross.detachCross(att)
	}
	c.requests++
	idx := -1
	if id, ok := c.ownerIDs[att.Owner]; ok {
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
		return c.detachPacket(att, idx)
	}
	if n := att.Circuit.Riders; n > 0 {
		c.failures++
		return 0, fmt.Errorf("sdm: circuit of %q on %v carries %d packet-mode riders; detach them first", att.Owner, att.CPU, n)
	}
	op := planDetach(c.cfg, att, c, c, c.rackTier(), func() {
		c.unregister(att)
		c.removeCircuitHost(att)
	})
	lat, err := op.Commit()
	if err != nil {
		c.failures++
		return 0, err
	}
	return lat, nil
}

// removeCircuitHost drops a circuit-mode attachment from the host index.
func (c *Controller) removeCircuitHost(att *Attachment) {
	p := c.cpuPos(att.CPU)
	if p < 0 {
		return
	}
	hosts := c.circuitHosts[p]
	for i, a := range hosts {
		if a == att {
			c.circuitHosts[p] = append(hosts[:i], hosts[i+1:]...)
			return
		}
	}
}

// ReserveAccel binds an accelerator slot for owner, selecting a brick by
// the placement policy.
func (c *Controller) ReserveAccel(owner, bitstream string) (topo.BrickID, int, sim.Duration, error) {
	c.requests++
	lat := c.cfg.DecisionLatency
	pick := func() (topo.BrickID, bool) {
		if c.cfg.Policy == PolicyFirstFit {
			for pos, a := range c.accels {
				if a.FreeSlots() > 0 {
					return c.accelOrder[pos], true
				}
			}
			return topo.BrickID{}, false
		}
		for _, want := range []brick.PowerState{brick.PowerActive, brick.PowerIdle, brick.PowerOff} {
			for pos, a := range c.accels {
				if a.State() == want && a.FreeSlots() > 0 {
					return c.accelOrder[pos], true
				}
			}
		}
		return topo.BrickID{}, false
	}
	id, ok := pick()
	if !ok {
		c.failures++
		return topo.BrickID{}, 0, 0, fmt.Errorf("sdm: no accelerator slots free")
	}
	a := c.accels[c.accPos(id)]
	if a.State() == brick.PowerOff {
		a.PowerOn()
		lat += c.cfg.BrickBoot
	}
	slot, err := a.Bind(owner, bitstream)
	if err != nil {
		c.failures++
		return topo.BrickID{}, 0, 0, err
	}
	lat += c.cfg.AgentRTT
	return id, slot, lat, nil
}

// ReleaseAccel unbinds a slot.
func (c *Controller) ReleaseAccel(id topo.BrickID, slot int) error {
	p := c.accPos(id)
	if p < 0 {
		return fmt.Errorf("sdm: no accel brick %v", id)
	}
	return c.accels[p].Unbind(slot)
}
