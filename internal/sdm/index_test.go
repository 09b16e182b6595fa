package sdm

import (
	"fmt"
	"slices"
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

// propIndex builds a placement index over a copy of the leaf vectors.
func propIndex(vals []pstat) *placementIndex {
	return newPlacementIndex(slices.Clone(vals))
}

// propUpdate hands the index the vectors at poss: one leaf through
// touch, several through stage and touchMany.
func propUpdate(idx *placementIndex, vals []pstat, poss []int) {
	if len(poss) == 1 {
		idx.touch(poss[0], vals[poss[0]])
		return
	}
	for _, pos := range poss {
		idx.stage(pos, vals[pos])
	}
	idx.touchMany()
}

// propVector draws one random leaf vector: any power state, small
// values so ties and exact-threshold fits are common.
func propVector(rng *sim.Rand) pstat {
	return pstat{
		state: brick.PowerState(rng.Intn(nStates)),
		fitA:  int64(rng.Intn(9)),
		fitB:  int64(rng.Intn(5)),
		rank:  int64(rng.Intn(11)),
	}
}

// propSplit writes a "split maxima" pair at pos and pos^1: one leaf has
// the gap but no port, its sibling the port but no gap, both in one
// state, so their parent looks viable for (8, 1) while neither leaf is.
func propSplit(rng *sim.Rand, vals []pstat, pos int) []int {
	st := brick.PowerState(rng.Intn(nStates))
	vals[pos] = pstat{state: st, fitA: 8, fitB: 0, rank: int64(rng.Intn(11))}
	if sib := pos ^ 1; sib < len(vals) {
		vals[sib] = pstat{state: st, fitA: 0, fitB: 4, rank: int64(rng.Intn(11))}
		return []int{pos, sib}
	}
	return []int{pos}
}

// linearFirst is the oracle for firstFit (state < 0) and firstFitState.
func linearFirst(vals []pstat, state int, minA, minB int64, exclude int) int {
	for pos, s := range vals {
		if pos != exclude && (state < 0 || int(s.state) == state) && s.fitA >= minA && s.fitB >= minB {
			return pos
		}
	}
	return -1
}

// linearSpread is the oracle for spreadBest: the maximum rank among
// fitting leaves, lowest position on ties.
func linearSpread(vals []pstat, minA, minB int64, exclude int) int {
	best, bestRank := -1, int64(-1)
	for pos, s := range vals {
		if pos != exclude && s.fitA >= minA && s.fitB >= minB && s.rank > bestRank {
			best, bestRank = pos, s.rank
		}
	}
	return best
}

// checkPropIndex asserts every descent against its linear oracle and
// the tree against a fresh build over the same leaves.
func checkPropIndex(t *testing.T, rng *sim.Rand, idx *placementIndex, vals []pstat, where string) {
	t.Helper()
	if !slices.Equal(idx.stats, vals) {
		t.Fatalf("%s: leaves %+v, want %+v", where, idx.stats, vals)
	}
	if fresh := propIndex(vals); !slices.Equal(idx.tree, fresh.tree) {
		t.Fatalf("%s: tree differs from a fresh build", where)
	}
	queries := [][2]int64{{8, 1}, {0, 0}, {1, 1}}
	for i := 0; i < 4; i++ {
		queries = append(queries, [2]int64{int64(rng.Intn(10)), int64(rng.Intn(6))})
	}
	for _, q := range queries {
		minA, minB := q[0], q[1]
		for _, exclude := range []int{-1, rng.Intn(len(vals))} {
			if got, want := idx.firstFit(minA, minB, exclude), linearFirst(vals, -1, minA, minB, exclude); got != want {
				t.Fatalf("%s: firstFit(%d,%d,%d) = %d, scan says %d", where, minA, minB, exclude, got, want)
			}
			for st := 0; st < nStates; st++ {
				if got, want := idx.firstFitState(brick.PowerState(st), minA, minB, exclude), linearFirst(vals, st, minA, minB, exclude); got != want {
					t.Fatalf("%s: firstFitState(%d,%d,%d,%d) = %d, scan says %d", where, st, minA, minB, exclude, got, want)
				}
			}
			if got, want := idx.spreadBest(minA, minB, exclude), linearSpread(vals, minA, minB, exclude); got != want {
				t.Fatalf("%s: spreadBest(%d,%d,%d) = %d, scan says %d", where, minA, minB, exclude, got, want)
			}
		}
	}
}

// TestPlacementIndexProperty drives random single- and multi-leaf
// updates through indexes of 1 to 70 leaves (powers of two and not)
// and checks, after every update, each descent against a linear scan
// over the leaves and the tree against a fresh build.
func TestPlacementIndexProperty(t *testing.T) {
	rng := sim.NewRand(25)
	for n := 1; n <= 70; n++ {
		vals := make([]pstat, n)
		for i := range vals {
			vals[i] = propVector(rng)
		}
		idx := propIndex(vals)
		checkPropIndex(t, rng, idx, vals, fmt.Sprintf("n=%d build", n))
		for step := 0; step < 60; step++ {
			var poss []int
			switch rng.Intn(5) {
			case 0: // one leaf, possibly to the value it already has
				pos := rng.Intn(n)
				if rng.Intn(3) > 0 {
					vals[pos] = propVector(rng)
				}
				poss = []int{pos}
			case 1: // a split-maxima pair
				poss = propSplit(rng, vals, rng.Intn(n))
			case 2: // one leaf changes power state only
				pos := rng.Intn(n)
				vals[pos].state = brick.PowerState(rng.Intn(nStates))
				poss = []int{pos}
			default: // several leaves, possibly repeated
				for k := 1 + rng.Intn(min(n, 12)); k > 0; k-- {
					pos := rng.Intn(n)
					vals[pos] = propVector(rng)
					poss = append(poss, pos)
				}
			}
			propUpdate(idx, vals, poss)
			checkPropIndex(t, rng, idx, vals, fmt.Sprintf("n=%d step %d", n, step))
		}
	}
}

// benchIndexVectors draws n deterministic leaf vectors, mostly active
// bricks as under steady load.
func benchIndexVectors(n int, seed uint64) []pstat {
	rng := sim.NewRand(seed)
	vals := make([]pstat, n)
	for i := range vals {
		vals[i] = pstat{
			state: brick.PowerActive,
			fitA:  int64(rng.Intn(8)),
			fitB:  int64(rng.Intn(8)),
			rank:  int64(rng.Intn(64)),
		}
		if rng.Intn(8) == 0 {
			vals[i].state = brick.PowerIdle
		}
	}
	return vals
}

// BenchmarkPlacementIndex times the index's hot operations on 4 leaves
// (each index of a Fig. 10 sweep rack: 4 compute and 4 memory bricks)
// and on 384: a touch whose vector changed, a touch whose vector did
// not (the port-only refresh), a spread descent and a power-state
// first-fit descent.
func BenchmarkPlacementIndex(b *testing.B) {
	for _, n := range []int{4, 384} {
		vals, alt := benchIndexVectors(n, 1), benchIndexVectors(n, 2)
		for i := range alt {
			alt[i].rank = vals[i].rank + 1 // differs from vals at every leaf
		}
		b.Run(fmt.Sprintf("n=%d/touch-changed", n), func(b *testing.B) {
			idx := newPlacementIndex(slices.Clone(vals))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pos := i % n
				if (i/n)&1 == 0 {
					idx.touch(pos, alt[pos])
				} else {
					idx.touch(pos, vals[pos])
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/touch-unchanged", n), func(b *testing.B) {
			idx := newPlacementIndex(slices.Clone(vals))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pos := i % n
				idx.touch(pos, vals[pos])
			}
		})
		b.Run(fmt.Sprintf("n=%d/spreadBest", n), func(b *testing.B) {
			idx := newPlacementIndex(slices.Clone(vals))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx.spreadBest(4, 2, -1)
			}
		})
		b.Run(fmt.Sprintf("n=%d/firstFitState", n), func(b *testing.B) {
			idx := newPlacementIndex(slices.Clone(vals))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx.firstFitState(brick.PowerIdle, 6, 6, -1)
			}
		})
	}
}

// TestPlacementIndexAllocFree pins the index's touches and descents at
// zero allocations.
func TestPlacementIndexAllocFree(t *testing.T) {
	vals, alt := benchIndexVectors(384, 1), benchIndexVectors(384, 2)
	idx := newPlacementIndex(slices.Clone(vals))
	i := 0
	step := func() {
		pos := i % len(vals)
		idx.touch(pos, alt[pos])
		idx.touch(pos, vals[pos])
		idx.stage(pos, alt[pos])
		idx.stage((pos+1)%len(vals), alt[(pos+1)%len(vals)])
		idx.stage((pos+2)%len(vals), alt[(pos+2)%len(vals)])
		idx.touchMany()
		idx.spreadBest(4, 2, pos)
		idx.firstFit(6, 6, pos)
		idx.firstFitState(brick.PowerIdle, 6, 6, -1)
		i++
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("index touches and descents allocate %.1f times, want 0", allocs)
	}
}
