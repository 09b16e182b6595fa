package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// powerPreference is the power-aware selection order: pack active
// bricks, then wake idle ones, and only then boot powered-off ones.
var powerPreference = []brick.PowerState{brick.PowerActive, brick.PowerIdle, brick.PowerOff}

// ReserveComputeExcept selects and reserves a compute brick like
// ReserveCompute, but never the excluded brick — used by VM migration,
// which must land the VM somewhere other than its current host.
func (c *Controller) ReserveComputeExcept(owner string, vcpus int, localMem brick.Bytes, exclude topo.BrickID) (topo.BrickID, sim.Duration, error) {
	c.requests++
	if vcpus <= 0 {
		c.failures++
		return topo.BrickID{}, 0, fmt.Errorf("sdm: reserve of %d vcpus", vcpus)
	}
	lat := c.cfg.DecisionLatency
	id, ok := c.pickComputeExcept(vcpus, localMem, exclude)
	if !ok {
		c.failures++
		return topo.BrickID{}, 0, fmt.Errorf("sdm: no compute brick other than %v with %d free cores and %v local memory", exclude, vcpus, localMem)
	}
	node := c.compute(id)
	if node.Brick.State() == brick.PowerOff {
		node.Brick.PowerOn()
		lat += c.cfg.BrickBoot
	}
	if err := node.Brick.AllocCores(vcpus); err != nil {
		c.failures++
		return topo.BrickID{}, 0, err
	}
	if localMem > 0 {
		if err := node.Brick.AllocLocal(localMem); err != nil {
			node.Brick.FreeCoresBack(vcpus)
			c.touchCompute(id)
			c.failures++
			return topo.BrickID{}, 0, err
		}
	}
	c.touchCompute(id)
	return id, lat, nil
}

// ReattachRemoteMemory re-points a live attachment at a new compute
// brick without touching the segment: the data stays exactly where it is
// on the dMEMBRICK — this is what makes VM migration cheap in a
// disaggregated rack. The old circuit is torn down, a new circuit is set
// up from the new brick, the TGL window is installed on the new brick's
// agent and removed from the old one — one OpRepoint through the
// lifecycle engine, so on failure the attachment is left in its
// original state. Pod-tier cross-rack attachments route to their owning
// scheduler, which rebuilds the circuit through the pod switch so the
// re-point never silently drops the pod tier.
//
// It returns the new window (migration callers must re-home the
// baremetal hotplug range) and the orchestration latency.
func (c *Controller) ReattachRemoteMemory(att *Attachment, newCPU topo.BrickID) (tgl.Entry, sim.Duration, error) {
	if att.spill != nil {
		if att.spill.level == rowLevel {
			// Cross-pod circuits would have to be rebuilt through the row
			// switch; row-tier migration is not modeled yet.
			return tgl.Entry{}, 0, fmt.Errorf("sdm: cannot repoint cross-pod attachment of %q", att.Owner)
		}
		return att.spill.owner.(*PodScheduler).Repoint(att, topo.PodBrickID{Rack: att.CPURack, Brick: newCPU})
	}
	c.requests++
	if !c.registered(att) {
		c.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: attachment for %q not live", att.Owner)
	}
	if c.cpuPos(newCPU) < 0 {
		c.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: no compute brick %v", newCPU)
	}
	if newCPU == att.CPU {
		c.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: reattach to the same brick %v", newCPU)
	}
	if err := c.CanRepoint(att); err != nil {
		c.failures++
		return tgl.Entry{}, 0, err
	}
	op := planRepoint(c.cfg, att, c, c, newCPU, c.rackConn(), c.rackConn(),
		func(newCPUPort topo.PortID, circuit *optical.Circuit, window tgl.Entry) {
			c.removeHost(nil, att)
			att.CPU = newCPU
			att.CPUPort = newCPUPort
			att.Circuit = circuit
			att.Window = window
			c.addHost(nil, c.cpuPos(newCPU), att)
		})
	lat, err := op.Commit()
	if err != nil {
		c.failures++
		return tgl.Entry{}, 0, err
	}
	return att.Window, lat, nil
}

func (c *Controller) pickComputeExcept(vcpus int, localMem brick.Bytes, exclude topo.BrickID) (topo.BrickID, bool) {
	if c.cfg.Scan != ScanLinear {
		return c.pickComputeIndexed(vcpus, localMem, c.cpuPos(exclude))
	}
	fits := func(pos int) bool {
		if c.computeOrder[pos] == exclude {
			return false
		}
		n := c.computes[pos]
		if n.Brick.FreeCores() < vcpus {
			return false
		}
		return n.Brick.LocalMemory-n.Brick.UsedLocal() >= localMem
	}
	switch c.cfg.Policy {
	case PolicyFirstFit:
		for pos := range c.computes {
			if fits(pos) {
				return c.computeOrder[pos], true
			}
		}
	case PolicySpread:
		best, found := topo.BrickID{}, false
		bestFree := -1
		for pos, n := range c.computes {
			if fits(pos) && n.Brick.FreeCores() > bestFree {
				best, bestFree, found = c.computeOrder[pos], n.Brick.FreeCores(), true
			}
		}
		return best, found
	default:
		for _, want := range powerPreference {
			for pos, n := range c.computes {
				if n.Brick.State() == want && fits(pos) {
					return c.computeOrder[pos], true
				}
			}
		}
	}
	return topo.BrickID{}, false
}
