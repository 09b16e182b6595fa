package sdm

import (
	"repro/internal/brick"
	"repro/internal/topo"
)

// PowerCensus counts bricks by power state, per kind.
type PowerCensus struct {
	Off, Idle, Active int
}

// Total returns the brick count.
func (p PowerCensus) Total() int { return p.Off + p.Idle + p.Active }

// OffFraction returns the fraction of bricks powered off.
func (p PowerCensus) OffFraction() float64 {
	if p.Total() == 0 {
		return 0
	}
	return float64(p.Off) / float64(p.Total())
}

// PowerOffIdle sweeps the rack and powers off every idle brick — the
// operation behind the paper's TCO claim that unutilized bricks can be
// powered down independently. It returns the number of bricks turned off.
// A sweep that stopped nothing leaves the indexes alone; otherwise the
// only leaves rewritten are those of the bricks it stopped.
func (c *Controller) PowerOffIdle() int {
	n := 0
	for _, node := range c.computes {
		b := node.Brick
		if b.State() == brick.PowerIdle && b.IsIdle() && b.PowerDown() == nil {
			n++
		}
	}
	for _, m := range c.memories {
		if m.State() == brick.PowerIdle && m.IsIdle() && m.PowerDown() == nil {
			n++
		}
	}
	for _, a := range c.accels {
		if a.State() == brick.PowerIdle && a.IsIdle() && a.PowerDown() == nil {
			n++
		}
	}
	if n > 0 {
		c.reindex()
	}
	return n
}

// PowerOnAll powers every brick up (rack bring-up).
func (c *Controller) PowerOnAll() {
	for _, node := range c.computes {
		node.Brick.PowerOn()
	}
	for _, m := range c.memories {
		m.PowerOn()
	}
	for _, a := range c.accels {
		a.PowerOn()
	}
	c.reindex()
}

// Census returns the power census for one brick kind.
func (c *Controller) Census(kind topo.BrickKind) PowerCensus {
	var pc PowerCensus
	count := func(s brick.PowerState) {
		switch s {
		case brick.PowerOff:
			pc.Off++
		case brick.PowerIdle:
			pc.Idle++
		default:
			pc.Active++
		}
	}
	switch kind {
	case topo.KindCompute:
		for _, node := range c.computes {
			count(node.Brick.State())
		}
	case topo.KindMemory:
		for _, m := range c.memories {
			count(m.State())
		}
	case topo.KindAccel:
		for _, a := range c.accels {
			count(a.State())
		}
	}
	return pc
}

// DrawW returns the rack's brick power draw in watts under the given
// per-kind profiles, plus the optical switch draw.
func (c *Controller) DrawW(profiles map[topo.BrickKind]brick.PowerProfile) float64 {
	var w float64
	for _, node := range c.computes {
		w += profiles[topo.KindCompute].Draw(node.Brick.State())
	}
	for _, m := range c.memories {
		w += profiles[topo.KindMemory].Draw(m.State())
	}
	for _, a := range c.accels {
		w += profiles[topo.KindAccel].Draw(a.State())
	}
	w += c.fabric.Switch().PowerW()
	return w
}
