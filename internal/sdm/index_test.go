package sdm

import (
	"fmt"
	"testing"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/topo"
)

// indexTestController assembles a controller with a mid-sized inventory
// for the equivalence trace.
func indexTestController(t *testing.T, policy Policy) *Controller {
	t.Helper()
	rack, err := topo.Build(topo.BuildSpec{
		Trays: 4, ComputePerTray: 3, MemoryPerTray: 3, AccelPerTray: 0, PortsPerBrick: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := optical.NewSwitch(optical.SwitchConfig{
		Ports:           128,
		InsertionLossDB: optical.Polatis48.InsertionLossDB,
		PortPowerW:      optical.Polatis48.PortPowerW,
		ReconfigTime:    optical.Polatis48.ReconfigTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	fabric := optical.NewFabric(sw)
	cfg := DefaultConfig
	cfg.Policy = policy
	bc := BrickConfigs{
		Compute: brick.ComputeConfig{Cores: 8, LocalMemory: 8 * brick.GiB},
		Memory:  brick.MemoryConfig{Capacity: 8 * brick.GiB},
	}
	c, err := NewController(rack, fabric, bc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// verifyIndexes cross-checks every index leaf against live brick state.
func verifyIndexes(t *testing.T, c *Controller, step int) {
	t.Helper()
	for pos := range c.computeOrder {
		if got, want := c.cpuIdx.stats[pos], c.computeStat(pos); got != want {
			t.Fatalf("step %d: compute index leaf %d stale: %+v, brick says %+v", step, pos, got, want)
		}
	}
	for pos := range c.memoryOrder {
		if got, want := c.memIdx.stats[pos], c.memoryStat(pos); got != want {
			t.Fatalf("step %d: memory index leaf %d stale: %+v, brick says %+v", step, pos, got, want)
		}
	}
}

// TestPickEquivalence drives a randomized placement/teardown trace
// through the controller and asserts, before every mutation, that the
// indexed pickCompute/pickMemory select the byte-identical brick as the
// pre-index linear scan — for all three policies.
func TestPickEquivalence(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicyFirstFit, PolicySpread} {
		t.Run(policy.String(), func(t *testing.T) {
			c := indexTestController(t, policy)
			rng := sim.NewRand(42)
			type vm struct {
				owner string
				host  topo.BrickID
				cpus  int
				local brick.Bytes
				atts  []*Attachment
			}
			var vms []*vm
			checkPicks := func(step int, vcpus int, localMem, size brick.Bytes) {
				t.Helper()
				li, lok := c.pickComputeLinear(vcpus, localMem)
				ii, iok := c.pickComputeIndexed(vcpus, localMem, -1)
				if lok != iok || li != ii {
					t.Fatalf("step %d: pickCompute(%d,%v) linear=(%v,%v) indexed=(%v,%v)",
						step, vcpus, localMem, li, lok, ii, iok)
				}
				lm, lmok := c.pickMemoryLinear(size)
				im, imok := c.pickMemoryIndexed(size)
				if lmok != imok || lm != im {
					t.Fatalf("step %d: pickMemory(%v) linear=(%v,%v) indexed=(%v,%v)",
						step, size, lm, lmok, im, imok)
				}
			}
			for step := 0; step < 400; step++ {
				vcpus := 1 + int(rng.Uint64()%4)
				local := brick.Bytes(1+rng.Uint64()%2) * brick.GiB
				size := brick.Bytes(1+rng.Uint64()%3) * brick.GiB / 2
				checkPicks(step, vcpus, local, size)
				verifyIndexes(t, c, step)

				switch rng.Uint64() % 10 {
				case 0, 1, 2: // create a VM
					owner := fmt.Sprintf("vm%d", step)
					host, _, err := c.ReserveCompute(owner, vcpus, local)
					if err == nil {
						vms = append(vms, &vm{owner: owner, host: host, cpus: vcpus, local: local})
					}
				case 3, 4, 5, 6: // attach remote memory to a random VM
					if len(vms) == 0 {
						continue
					}
					v := vms[rng.Uint64()%uint64(len(vms))]
					att, _, err := c.AttachRemoteMemory(v.owner, v.host, size)
					if err == nil {
						v.atts = append(v.atts, att)
					}
				case 7, 8: // detach a random attachment
					if len(vms) == 0 {
						continue
					}
					v := vms[rng.Uint64()%uint64(len(vms))]
					if len(v.atts) == 0 {
						continue
					}
					i := int(rng.Uint64() % uint64(len(v.atts)))
					if _, err := c.DetachRemoteMemory(v.atts[i]); err != nil {
						t.Fatalf("step %d: detach: %v", step, err)
					}
					v.atts = append(v.atts[:i], v.atts[i+1:]...)
				default: // tear a random VM down, or sweep power
					if len(vms) == 0 || rng.Uint64()%4 == 0 {
						c.PowerOffIdle()
						continue
					}
					i := int(rng.Uint64() % uint64(len(vms)))
					v := vms[i]
					for _, att := range v.atts {
						if _, err := c.DetachRemoteMemory(att); err != nil {
							t.Fatalf("step %d: teardown detach: %v", step, err)
						}
					}
					if err := c.ReleaseCompute(v.host, v.cpus, v.local); err != nil {
						t.Fatalf("step %d: release: %v", step, err)
					}
					vms = append(vms[:i], vms[i+1:]...)
				}
			}
		})
	}
}

// TestPickComputeExceptEquivalence checks the migration variant agrees
// between the indexed and linear paths while bricks fill unevenly.
func TestPickComputeExceptEquivalence(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicyFirstFit, PolicySpread} {
		c := indexTestController(t, policy)
		rng := sim.NewRand(7)
		for step := 0; step < 120; step++ {
			if _, _, err := c.ReserveCompute(fmt.Sprintf("bm%d", step), 1+int(rng.Uint64()%3), brick.GiB); err != nil {
				break
			}
			exclude := c.computeOrder[rng.Uint64()%uint64(len(c.computeOrder))]
			vcpus := 1 + int(rng.Uint64()%4)

			li, lok := c.pickComputeExceptLinear(vcpus, brick.GiB, exclude)
			ii, iok := c.pickCompute(vcpus, brick.GiB, c.cpuPos(exclude))
			if lok != iok || li != ii {
				t.Fatalf("%v step %d: pickComputeExcept linear=(%v,%v) indexed=(%v,%v)",
					policy, step, li, lok, ii, iok)
			}
		}
	}
}
