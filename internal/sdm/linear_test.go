package sdm

// The pre-index linear scans: every pick walks the brick (or rack)
// lists in order, and every memory fitness probe rescans the segment
// list. They are the reference the indexed pickers are checked against
// (TestPickEquivalence, TestPickComputeExceptEquivalence, the spread
// pick-fallback tests, the row spill-ordering property) and the
// baseline BenchmarkPickIndexedVsLinear times them against. They never
// read the placement indexes or the row's cached pod aggregates: each
// tier's picker calls the linear picker one tier down and sums free
// capacity brick by brick.

import (
	"fmt"
	"testing"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/topo"
)

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

// pickComputeRackLinear is the pre-index nested scan: every rack runs a
// full brick pick per probe.
func (s *PodScheduler) pickComputeRackLinear(vcpus int, localMem brick.Bytes, exclude int) (int, bool) {
	if s.cfg.Policy == PolicySpread {
		best, bestFree, found := -1, -1, false
		for i, r := range s.racks {
			if i == exclude {
				continue
			}
			if _, ok := r.pickComputeLinear(vcpus, localMem); ok && r.freeCoresLinear() > bestFree {
				best, bestFree, found = i, r.freeCoresLinear(), true
			}
		}
		return best, found
	}
	for i, r := range s.racks {
		if i == exclude {
			continue
		}
		if _, ok := r.pickComputeLinear(vcpus, localMem); ok {
			return i, true
		}
	}
	return -1, false
}

// pickMemoryRackLinear is the pre-index nested scan over racks and
// bricks.
func (s *PodScheduler) pickMemoryRackLinear(size brick.Bytes, home int) (int, topo.BrickID, bool) {
	if s.cfg.Policy == PolicySpread {
		best, bestID, found := -1, topo.BrickID{}, false
		var bestFree brick.Bytes
		for i, r := range s.racks {
			if i == home {
				continue
			}
			if id, ok := r.pickMemoryLinear(size); ok && (!found || r.freeMemoryLinear() > bestFree) {
				best, bestID, bestFree, found = i, id, r.freeMemoryLinear(), true
			}
		}
		return best, bestID, found
	}
	for i, r := range s.racks {
		if i == home {
			continue
		}
		if id, ok := r.pickMemoryLinear(size); ok {
			return i, id, true
		}
	}
	return -1, topo.BrickID{}, false
}

// pickComputeExceptLinear is the pre-index scan behind
// pickComputeExcept: the first (or, under spread, the most-free) brick
// other than exclude that fits.
func (c *Controller) pickComputeExceptLinear(vcpus int, localMem brick.Bytes, exclude topo.BrickID) (topo.BrickID, bool) {
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

// pickComputePodLinear is the pre-aggregate pod choice for a compute
// reservation: the first pod (under spread, the pod with the most free
// cores, lowest index on ties) whose linear rack pick succeeds.
func (s *RowScheduler) pickComputePodLinear(vcpus int, localMem brick.Bytes) (int, bool) {
	best, bestFree, found := -1, -1, false
	for i, p := range s.pods {
		if _, ok := p.pickComputeRackLinear(vcpus, localMem, -1); !ok {
			continue
		}
		if s.cfg.Policy != PolicySpread {
			return i, true
		}
		if free := p.freeCoresLinear(); free > bestFree {
			best, bestFree, found = i, free, true
		}
	}
	return best, found
}

// pickMemoryPodLinear is the pre-aggregate pod choice of a cross-pod
// spill, never returning home: the first pod (under spread, the pod
// with the most free memory, lowest index on ties) whose linear rack
// pick succeeds, with the rack and brick that pick found.
func (s *RowScheduler) pickMemoryPodLinear(size brick.Bytes, home int) (pod, rack int, id topo.BrickID, ok bool) {
	pod, rack = -1, -1
	var bestFree brick.Bytes
	for i, p := range s.pods {
		if i == home {
			continue
		}
		r, b, fits := p.pickMemoryRackLinear(size, -1)
		if !fits {
			continue
		}
		if s.cfg.Policy != PolicySpread {
			return i, r, b, true
		}
		if free := p.freeMemoryLinear(); !ok || free > bestFree {
			pod, rack, id, bestFree, ok = i, r, b, free, true
		}
	}
	return pod, rack, id, ok
}

// freeCoresLinear sums the pod's free cores brick by brick.
func (s *PodScheduler) freeCoresLinear() int {
	n := 0
	for _, r := range s.racks {
		n += r.freeCoresLinear()
	}
	return n
}

// freeMemoryLinear sums the pod's unreserved pooled memory brick by
// brick.
func (s *PodScheduler) freeMemoryLinear() brick.Bytes {
	var n brick.Bytes
	for _, r := range s.racks {
		n += r.freeMemoryLinear()
	}
	return n
}

// freeCoresLinear sums the rack's free cores brick by brick.
func (c *Controller) freeCoresLinear() int {
	n := 0
	for _, node := range c.computes {
		n += node.Brick.FreeCores()
	}
	return n
}

// freeMemoryLinear sums the rack's unreserved pooled memory brick by
// brick.
func (c *Controller) freeMemoryLinear() brick.Bytes {
	var n brick.Bytes
	for _, m := range c.memories {
		n += m.Free()
	}
	return n
}

// pickBenchRacks and pickBenchSpec size the pick benchmark's fixture:
// 16 racks of 24 compute and 24 memory bricks, the inventory of the
// root BenchmarkFig10Pod.
const pickBenchRacks = 16

var pickBenchSpec = topo.BuildSpec{
	Trays: 6, ComputePerTray: 4, MemoryPerTray: 4, AccelPerTray: 0, PortsPerBrick: 16,
}

var pickBenchBricks = BrickConfigs{
	Compute: brick.ComputeConfig{Cores: 8, LocalMemory: 32 * brick.GiB},
	Memory:  brick.MemoryConfig{Capacity: 24 * brick.GiB},
}

// pickBenchFill fragments a controller's memory bricks: rounds passes
// of one 2 GiB segment per brick, rotated evenly by the spread policy.
// Eleven rounds leave each 24 GiB brick with a 2 GiB tail gap.
func pickBenchFill(b *testing.B, c *Controller, rounds int, tag string) {
	b.Helper()
	for round := 0; round < rounds; round++ {
		for j := range c.memories {
			cpu := c.computeOrder[j%len(c.computeOrder)]
			if _, _, err := c.AttachRemoteMemory(fmt.Sprintf("fill-%s-%d-%d", tag, round, j), cpu, 2*brick.GiB); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// pickBenchFabric builds one circuit fabric of the given port count.
func pickBenchFabric(b *testing.B, ports int) *optical.Fabric {
	b.Helper()
	sw, err := optical.NewSwitch(optical.SwitchConfig{
		Ports:           ports,
		InsertionLossDB: optical.Polatis48.InsertionLossDB,
		PortPowerW:      optical.Polatis48.PortPowerW,
		ReconfigTime:    optical.Polatis48.ReconfigTime,
	})
	if err != nil {
		b.Fatal(err)
	}
	return optical.NewFabric(sw)
}

// BenchmarkPickIndexedVsLinear times the placement picks behind the
// root BenchmarkFig10Pod, indexed against the linear oracle, under the
// spread policy on one fragmented fixture. pod-16racks is the pod
// tier's spill-rack pick for a 3 GiB segment: racks 0-14 are filled to
// 2 GiB tail gaps, so only rack 15 fits and every pick must rule out
// fifteen racks. global-sdm is one monolithic controller over all 16
// racks' bricks picking a 2 GiB memory brick. The picks reserve
// nothing, so every iteration sees the same state; the metric is picks
// per second.
func BenchmarkPickIndexedVsLinear(b *testing.B) {
	cfg := DefaultConfig
	cfg.Policy = PolicySpread

	b.Run("pod-16racks", func(b *testing.B) {
		pod, err := topo.BuildPod(pickBenchRacks, pickBenchSpec)
		if err != nil {
			b.Fatal(err)
		}
		fabrics := make([]*optical.Fabric, pickBenchRacks)
		for i := range fabrics {
			fabrics[i] = pickBenchFabric(b, 768)
		}
		pf, err := optical.NewPodFabric(optical.DefaultPodProfile, fabrics)
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewPodScheduler(pod, pf, pickBenchBricks, cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.PowerOnAll()
		for r := 0; r < pickBenchRacks-1; r++ {
			pickBenchFill(b, s.Rack(r), 11, fmt.Sprint(r))
		}
		pickBenchFill(b, s.Rack(pickBenchRacks-1), 6, "target")
		for _, v := range []struct {
			name string
			pick func(size brick.Bytes, home int) (int, topo.BrickID, bool)
		}{{"indexed", s.pickMemoryRack}, {"linear", s.pickMemoryRackLinear}} {
			b.Run(v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if r, _, ok := v.pick(3*brick.GiB, i%(pickBenchRacks-1)); !ok || r != pickBenchRacks-1 {
						b.Fatalf("spill pick = rack %d, %t; want rack %d", r, ok, pickBenchRacks-1)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "picks/s")
			})
		}
	})

	b.Run("global-sdm", func(b *testing.B) {
		spec := pickBenchSpec
		spec.Trays *= pickBenchRacks
		rack, err := topo.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		c, err := NewController(rack, pickBenchFabric(b, 768*pickBenchRacks), pickBenchBricks, cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.PowerOnAll()
		pickBenchFill(b, c, 11, "global")
		for _, v := range []struct {
			name string
			pick func(size brick.Bytes) (topo.BrickID, bool)
		}{{"indexed", c.pickMemory}, {"linear", c.pickMemoryLinear}} {
			b.Run(v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, ok := v.pick(2 * brick.GiB); !ok {
						b.Fatal("memory pick failed")
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "picks/s")
			})
		}
	})
}
