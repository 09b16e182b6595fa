package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The paper's SDM-C receives "VM/bare-metal allocation requests": a
// bare-metal tenant takes a whole dCOMPUBRICK exclusively — all cores,
// all local memory — and runs directly on the baremetal OS layer. The
// brick still reaches disaggregated memory through its TGL, so
// AttachRemoteMemory works for bare-metal owners exactly as for VMs.

// ReserveBareMetal reserves an entire idle compute brick exclusively for
// owner. Power-aware selection prefers already-powered idle bricks over
// booting cold ones (an active brick can never be taken — exclusivity).
func (c *Controller) ReserveBareMetal(owner string) (topo.BrickID, sim.Duration, error) {
	c.requests++
	if owner == "" {
		c.failures++
		return topo.BrickID{}, 0, fmt.Errorf("sdm: bare-metal reservation needs an owner")
	}
	lat := c.cfg.DecisionLatency
	pick := func() (int, bool) {
		for _, want := range []brick.PowerState{brick.PowerIdle, brick.PowerOff} {
			for pos, n := range c.computes {
				if c.bareMetal[pos] != "" {
					continue
				}
				if n.Brick.State() == want && n.Brick.IsIdle() {
					return pos, true
				}
			}
		}
		return -1, false
	}
	pos, ok := pick()
	if !ok {
		c.failures++
		return topo.BrickID{}, 0, fmt.Errorf("sdm: no fully idle compute brick for bare-metal tenant %q", owner)
	}
	id := c.computeOrder[pos]
	node := c.computes[pos]
	if node.Brick.State() == brick.PowerOff {
		node.Brick.PowerOn()
		lat += c.cfg.BrickBoot
	}
	if err := node.Brick.AllocCores(node.Brick.Cores); err != nil {
		c.failures++
		return topo.BrickID{}, 0, err
	}
	if err := node.Brick.AllocLocal(node.Brick.LocalMemory); err != nil {
		node.Brick.FreeCoresBack(node.Brick.Cores)
		c.failures++
		return topo.BrickID{}, 0, err
	}
	c.bareMetal[pos] = owner
	c.bareMetalCount++
	c.touchCompute(id)
	return id, lat, nil
}

// ReleaseBareMetal returns a bare-metal brick to the pool. Any remote
// memory the tenant attached must be detached first.
func (c *Controller) ReleaseBareMetal(id topo.BrickID) error {
	pos := c.cpuPos(id)
	var owner string
	if pos >= 0 {
		owner = c.bareMetal[pos]
	}
	if owner == "" {
		return fmt.Errorf("sdm: brick %v is not a bare-metal reservation", id)
	}
	if n := len(c.Attachments(owner)); n > 0 {
		return fmt.Errorf("sdm: bare-metal tenant %q still holds %d attachments", owner, n)
	}
	node := c.computes[pos]
	if err := node.Brick.FreeCoresBack(node.Brick.Cores); err != nil {
		return err
	}
	if err := node.Brick.FreeLocal(node.Brick.LocalMemory); err != nil {
		c.touchCompute(id)
		return err
	}
	c.bareMetal[pos] = ""
	c.bareMetalCount--
	c.touchCompute(id)
	return nil
}

// BareMetalTenants returns the live bare-metal reservations in brick
// order.
func (c *Controller) BareMetalTenants() map[topo.BrickID]string {
	out := make(map[topo.BrickID]string, c.bareMetalCount)
	for pos, owner := range c.bareMetal {
		if owner != "" {
			out[c.computeOrder[pos]] = owner
		}
	}
	return out
}
