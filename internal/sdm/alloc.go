package sdm

import (
	"errors"
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
	id, lat, err := c.reserveCompute(owner, vcpus, localMem, nil)
	if err == errNoCompute {
		err = noComputeError(vcpus, localMem)
	}
	return id, lat, err
}

// errNoCompute is reserveCompute's refusal when no brick has the cores
// and local memory. It carries no text: inside a pod's shard the tier
// above re-places a refused request, so the text would be thrown away.
// Where a refusal surfaces, noComputeError builds it.
var errNoCompute = errors.New("sdm: no compute brick")

// noComputeError is the text of a rack's compute refusal.
func noComputeError(vcpus int, localMem brick.Bytes) error {
	return fmt.Errorf("sdm: no compute brick with %d free cores and %v local memory", vcpus, localMem)
}

// reserveCompute is ReserveCompute never choosing brick avoid, unless
// avoid is nil, when a refusal is errNoCompute. It is the one compute
// reservation, sequential and batched: while the rack's batch is open
// and no brick is avoided the batch planner's pick cache serves the
// pick (batch.go), and a boot or a failed local allocation drops the
// cache; otherwise the pick is an exact descent.
func (c *Controller) reserveCompute(owner string, vcpus int, localMem brick.Bytes, avoid *topo.BrickID) (topo.BrickID, sim.Duration, error) {
	c.requests++
	if vcpus <= 0 {
		c.failures++
		return topo.BrickID{}, 0, fmt.Errorf("sdm: reserve of %d vcpus", vcpus)
	}
	lat := c.cfg.DecisionLatency
	b := c.batch
	batched := b != nil && b.active
	var (
		id topo.BrickID
		ok bool
	)
	if batched && avoid == nil {
		id, ok = c.batchPickCompute(vcpus, localMem)
	} else {
		exclude := -1
		if avoid != nil {
			exclude = c.cpuPos(*avoid)
		}
		id, ok = c.pickCompute(vcpus, localMem, exclude)
	}
	if !ok {
		c.failures++
		if avoid != nil {
			return topo.BrickID{}, 0, fmt.Errorf("sdm: no compute brick other than %v with %d free cores and %v local memory", *avoid, vcpus, localMem)
		}
		return topo.BrickID{}, 0, errNoCompute
	}
	node := c.compute(id)
	if node.Brick.State() == brick.PowerOff {
		node.Brick.PowerOn()
		lat += c.cfg.BrickBoot
		if batched {
			b.cpuCache.valid = false
		}
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
			if batched {
				b.invalidateCaches()
			}
			c.failures++
			return topo.BrickID{}, 0, err
		}
	}
	c.touchCompute(id)
	return id, lat, nil
}

// ReleaseCompute returns cores and local memory to a brick. It is
// all-or-nothing: a release either half of which the brick would
// refuse changes neither.
func (c *Controller) ReleaseCompute(id topo.BrickID, vcpus int, localMem brick.Bytes) error {
	node := c.compute(id)
	if node == nil {
		return fmt.Errorf("sdm: no compute brick %v", id)
	}
	b := node.Brick
	if vcpus > 0 && vcpus <= b.UsedCores() && localMem > b.UsedLocal() {
		// The cores would go back but the local memory cannot: fail with
		// the brick's own refusal before either half changes.
		return b.FreeLocal(localMem)
	}
	if err := b.FreeCoresBack(vcpus); err != nil {
		return err
	}
	if localMem > 0 {
		if err := b.FreeLocal(localMem); err != nil {
			c.touchCompute(id)
			return err
		}
	}
	c.touchCompute(id)
	return nil
}

// pickCompute applies the placement policy to compute brick selection
// through the placement index (O(log n) descents). It selects the
// brick the pre-index full scan in linear_test.go would (see
// TestPickEquivalence).
func (c *Controller) pickCompute(vcpus int, localMem brick.Bytes, exclude int) (topo.BrickID, bool) {
	if c.batch != nil && c.batch.active {
		// A batched sweep (rebalance, consolidation) routed a sequential
		// pick here while index touches divert to the dirty sets: flush
		// them first so the descent runs on an exact tree.
		c.flushDirtyCPU()
	}
	return c.pickComputeIndexed(vcpus, localMem, exclude)
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

// pickMemory applies the placement policy to memory brick selection,
// requiring a contiguous gap of at least size and a free transceiver
// port to terminate the new circuit.
func (c *Controller) pickMemory(size brick.Bytes) (topo.BrickID, bool) {
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

// AttachRemoteMemory performs the full orchestration sequence for one
// memory attachment: select and reserve a segment, set up the circuit,
// and push the TGL window to the compute brick's agent — one inline
// commit (attachCircuit), so on any failure every completed step is
// rolled back, honouring the paper's "safely reserve" requirement.
// The returned latency is the orchestration delay a scale-up request
// observes before the OS-level hotplug begins.
func (c *Controller) AttachRemoteMemory(owner string, cpu topo.BrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	c.requests++
	att, lat, fallback, err := c.attachCircuit(owner, topo.RowBrickID{Brick: cpu}, size, nil)
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
// returns the orchestration latency. Spilled attachments route to their
// owning spill tier, so rack-local callers need not distinguish them.
func (c *Controller) DetachRemoteMemory(att *Attachment) (sim.Duration, error) {
	if att.spill != nil {
		return att.spill.detachCross(att)
	}
	return c.detach(att, nil)
}

// hosts is the host index the packet fallback of a tier searches, by
// compute ordinal: this rack's own circuits when spill is nil, else the
// spill circuits of that tier leaving this rack.
func (c *Controller) hosts(spill *tier) [][]*Attachment {
	if spill == nil {
		return c.circuitHosts
	}
	return c.crossHosts[spill.level]
}

// addHost appends a circuit-mode attachment from compute ordinal ord to
// its tier's host index.
func (c *Controller) addHost(spill *tier, ord int, att *Attachment) {
	hosts := c.hosts(spill)
	hosts[ord] = append(hosts[ord], att)
}

// hostIndex is att's position in its compute brick's host list, or 0
// when it is not there.
func (c *Controller) hostIndex(spill *tier, att *Attachment) int {
	for i, a := range c.hosts(spill)[c.cpuPos(att.CPU)] {
		if a == att {
			return i
		}
	}
	return 0
}

// removeHost drops a circuit-mode attachment from its tier's host index.
func (c *Controller) removeHost(spill *tier, att *Attachment) {
	p := c.cpuPos(att.CPU)
	if p < 0 {
		return
	}
	hosts := c.hosts(spill)
	for i, a := range hosts[p] {
		if a == att {
			hosts[p] = append(hosts[p][:i], hosts[p][i+1:]...)
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
