package sdm

import (
	"fmt"
	"testing"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// pickTraceVM is one live consumer of a picker property trace.
type pickTraceVM struct {
	owner string
	cpu   topo.RowBrickID
	vcpus int
	local brick.Bytes
	atts  []*Attachment
}

// pickTrace drives a randomized reserve/attach/detach/release trace
// through a tier's sequential entry points, calling probe before every
// mutation. Requests mix core-heavy and local-memory-heavy shapes and
// small segments, so bricks fill unevenly: the cores fit on one brick
// and the local memory on another, and the largest gap sits on a brick
// whose ports are all taken — the states where a spread choice's
// most-free candidate passes its O(1) screen but fails its confirming
// pick.
func pickTrace(t *testing.T, rng *sim.Rand, steps int, maxVCPUs int, maxLocal brick.Bytes,
	reserve func(owner string, vcpus int, local brick.Bytes) (topo.RowBrickID, error),
	attach func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error),
	detach func(att *Attachment) error,
	release func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error,
	probe func(step int)) {
	t.Helper()
	var vms []*pickTraceVM
	for step := 0; step < steps; step++ {
		probe(step)
		switch op := rng.Intn(10); {
		case op < 4:
			v := &pickTraceVM{owner: fmt.Sprintf("vm%03d", step), vcpus: 1 + rng.Intn(maxVCPUs)}
			v.local = brick.Bytes(rng.Intn(int(maxLocal/brick.GiB)+1)) * brick.GiB
			cpu, err := reserve(v.owner, v.vcpus, v.local)
			if err != nil {
				continue
			}
			v.cpu = cpu
			vms = append(vms, v)
		case op < 8:
			if len(vms) == 0 {
				continue
			}
			v := vms[rng.Intn(len(vms))]
			size := brick.Bytes(1+rng.Intn(4)) * brick.GiB / 4
			if att, err := attach(v.owner, v.cpu, size); err == nil {
				v.atts = append(v.atts, att)
			}
		case op < 9:
			if len(vms) == 0 {
				continue
			}
			v := vms[rng.Intn(len(vms))]
			if n := len(v.atts); n > 0 {
				if err := detach(v.atts[n-1]); err != nil {
					t.Fatalf("step %d: detach: %v", step, err)
				}
				v.atts = v.atts[:n-1]
			}
		default:
			if len(vms) == 0 {
				continue
			}
			i := rng.Intn(len(vms))
			v := vms[i]
			for n := len(v.atts) - 1; n >= 0; n-- {
				if err := detach(v.atts[n]); err != nil {
					t.Fatalf("step %d: teardown detach: %v", step, err)
				}
			}
			if err := release(v.cpu, v.vcpus, v.local); err != nil {
				t.Fatalf("step %d: release: %v", step, err)
			}
			vms = append(vms[:i], vms[i+1:]...)
		}
	}
}

// TestSpreadPodPickFallbackMatchesLinear: under spread, the pod tier's
// indexed rack choices confirm only the most-free candidate first and
// fall back to confirming every improving candidate when that fails.
// On a randomized trace they must agree with the linear twins at every
// step, and the fallback must actually run for both the compute and
// the memory choice.
func TestSpreadPodPickFallbackMatchesLinear(t *testing.T) {
	cfg := DefaultConfig
	cfg.Policy = PolicySpread
	s := buildBatchPod(t, 4, 2, 2, 8*brick.GiB, cfg)
	rng := sim.NewRand(11)
	var cpuFallbacks, memFallbacks uint64
	probe := func(step int) {
		for k := 0; k < 4; k++ {
			vcpus := 1 + rng.Intn(8)
			local := brick.Bytes(rng.Intn(9)) * brick.GiB
			exclude := rng.Intn(len(s.racks)+1) - 1
			li, lok := s.pickComputeRackLinear(vcpus, local, exclude)
			n := s.spreadFallbacks
			ii, iok := s.pickCompute(vcpus, local, exclude)
			cpuFallbacks += s.spreadFallbacks - n
			if lok != iok || li != ii {
				t.Fatalf("step %d: rack for %d vCPUs + %v local (exclude %d): linear (%d,%v), indexed (%d,%v)",
					step, vcpus, local, exclude, li, lok, ii, iok)
			}

			size := brick.Bytes(1+rng.Intn(16)) * brick.GiB / 4
			home := rng.Intn(len(s.racks)+1) - 1
			lr, lb, lok := s.pickMemoryRackLinear(size, home)
			n = s.spreadFallbacks
			ir, ib, iok := s.pickMemoryRack(size, home)
			memFallbacks += s.spreadFallbacks - n
			if lok != iok || lr != ir || lb != ib {
				t.Fatalf("step %d: memory rack for %v (home %d): linear (%d,%v,%v), indexed (%d,%v,%v)",
					step, size, home, lr, lb, lok, ir, ib, iok)
			}
		}
	}
	pickTrace(t, rng, 600, 6, 6*brick.GiB,
		func(owner string, vcpus int, local brick.Bytes) (topo.RowBrickID, error) {
			id, _, err := s.ReserveCompute(owner, vcpus, local)
			return topo.RowBrickID{Rack: id.Rack, Brick: id.Brick}, err
		},
		func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error) {
			att, _, err := s.AttachRemoteMemory(owner, topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, size)
			return att, err
		},
		func(att *Attachment) error { _, err := s.DetachRemoteMemory(att); return err },
		func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error {
			return s.ReleaseCompute(topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, vcpus, local)
		},
		probe)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if cpuFallbacks == 0 || memFallbacks == 0 {
		t.Fatalf("fallback ran %d times for compute and %d for memory rack choice; the trace must reach both",
			cpuFallbacks, memFallbacks)
	}
	t.Logf("fallbacks: compute %d, memory %d", cpuFallbacks, memFallbacks)
}

// rowPickComputeOracle is the spread pod choice's definition: the
// most-free pod whose confirming rack pick succeeds, lowest index on
// ties, with every pod confirmed through the pod tier's linear twin.
func rowPickComputeOracle(s *RowScheduler, vcpus int, local brick.Bytes) (int, bool) {
	best, bestFree := -1, int64(-1)
	for i, p := range s.pods {
		if _, ok := p.pickComputeRackLinear(vcpus, local, -1); ok && s.PodFreeCores(i) > bestFree {
			best, bestFree = i, s.PodFreeCores(i)
		}
	}
	return best, best >= 0
}

// rowPickMemoryOracle is the same definition for the cross-pod spill's
// pod choice, returning the rack and brick of the winner's pick.
func rowPickMemoryOracle(s *RowScheduler, size brick.Bytes, home int) (int, int, topo.BrickID, bool) {
	best, bestRack, bestID := -1, -1, topo.BrickID{}
	var bestFree brick.Bytes
	for i, p := range s.pods {
		if i == home {
			continue
		}
		if r, id, ok := p.pickMemoryRackLinear(size, -1); ok && (best < 0 || s.PodFreeMemory(i) > bestFree) {
			best, bestRack, bestID, bestFree = i, r, id, s.PodFreeMemory(i)
		}
	}
	return best, bestRack, bestID, best >= 0
}

// TestSpreadRowPickFallbackMatchesLinear is the row twin of
// TestSpreadPodPickFallbackMatchesLinear: the row's pod choices must
// agree with the confirm-every-candidate definition, evaluated through
// the linear rack pickers, and the fallback must run for both.
func TestSpreadRowPickFallbackMatchesLinear(t *testing.T) {
	cfg := DefaultConfig
	cfg.Policy = PolicySpread
	s := buildRowSched(t, 3, 2, 2*brick.GiB, cfg)
	rng := sim.NewRand(13)
	var cpuFallbacks, memFallbacks uint64
	probe := func(step int) {
		for k := 0; k < 4; k++ {
			vcpus := 1 + rng.Intn(4)
			local := brick.Bytes(rng.Intn(5)) * brick.GiB
			op, ook := rowPickComputeOracle(s, vcpus, local)
			n := s.spreadFallbacks
			ip, iok := s.pickComputePod(vcpus, local)
			cpuFallbacks += s.spreadFallbacks - n
			if ook != iok || op != ip {
				t.Fatalf("step %d: pod for %d vCPUs + %v local: oracle (%d,%v), indexed (%d,%v)",
					step, vcpus, local, op, ook, ip, iok)
			}

			size := brick.Bytes(1+rng.Intn(8)) * brick.GiB / 4
			home := rng.Intn(len(s.pods)+1) - 1
			mp, mr, mb, mok := rowPickMemoryOracle(s, size, home)
			n = s.spreadFallbacks
			jp, jr, jb, jok := s.pickMemoryPod(size, home)
			memFallbacks += s.spreadFallbacks - n
			if mok != jok || (mok && (mp != jp || mr != jr || mb != jb)) {
				t.Fatalf("step %d: memory pod for %v (home %d): oracle (%d,%d,%v,%v), indexed (%d,%d,%v,%v)",
					step, size, home, mp, mr, mb, mok, jp, jr, jb, jok)
			}
		}
	}
	pickTrace(t, rng, 600, 3, 3*brick.GiB,
		func(owner string, vcpus int, local brick.Bytes) (topo.RowBrickID, error) {
			id, _, err := s.ReserveCompute(owner, vcpus, local)
			return id, err
		},
		func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error) {
			att, _, err := s.AttachRemoteMemory(owner, cpu, size)
			return att, err
		},
		func(att *Attachment) error { _, err := s.DetachRemoteMemory(att); return err },
		s.ReleaseCompute,
		probe)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if cpuFallbacks == 0 || memFallbacks == 0 {
		t.Fatalf("fallback ran %d times for compute and %d for memory pod choice; the trace must reach both",
			cpuFallbacks, memFallbacks)
	}
	t.Logf("fallbacks: compute %d, memory %d", cpuFallbacks, memFallbacks)
}

// TestBatchOfOnePicksOnce: a batch of one runs each tier's compute pick
// once. On a spread row whose only pod with free cores has a most-free
// rack that passes its screen but fails its confirming pick (its cores
// and its local memory sit on different bricks), the row's choice
// confirms that pod through the pod's own pick, which falls back once.
// The pod's shard takes the brick that pick confirmed instead of
// picking again, so the pod's fallback counter moves by one, through
// the batch entry and the sequential one alike, and the request lands
// where the linear oracle says.
func TestBatchOfOnePicksOnce(t *testing.T) {
	cfg := DefaultConfig
	cfg.Policy = PolicySpread
	s := attachDiffRow(t, cfg)
	// take reserves cores and local memory on the compute brick at pos,
	// keeping the rack's index and its pod's summary exact.
	take := func(c *Controller, pos, cores int, local brick.Bytes) {
		t.Helper()
		b := c.computes[pos].Brick
		if cores > 0 {
			if err := b.AllocCores(cores); err != nil {
				t.Fatal(err)
			}
		}
		if local > 0 {
			if err := b.AllocLocal(local); err != nil {
				t.Fatal(err)
			}
		}
		c.touchCompute(c.computeOrder[pos])
	}
	pod := s.pods[0]
	take(pod.racks[0], 0, 0, 8*brick.GiB) // 8 cores, no local memory
	take(pod.racks[0], 1, 6, 0)           // 2 cores, all local memory
	take(pod.racks[1], 0, 4, 0)           // 4 cores, all local memory
	take(pod.racks[1], 1, 8, 0)
	take(pod.racks[2], 0, 8, 0)
	take(pod.racks[2], 1, 8, 0)
	for _, p := range s.pods[1:] {
		for _, c := range p.racks {
			take(c, 0, 8, 0)
			take(c, 1, 8, 0)
		}
	}
	const vcpus, local = 4, 2 * brick.GiB
	want := topo.RowBrickID{Pod: 0, Rack: 1, Brick: pod.racks[1].computeOrder[0]}
	if p, ok := rowPickComputeOracle(s, vcpus, local); !ok || p != want.Pod {
		t.Fatalf("oracle picks pod %d (%v), want pod %d", p, ok, want.Pod)
	}
	if r, ok := pod.pickComputeRackLinear(vcpus, local, -1); !ok || r != want.Rack {
		t.Fatalf("linear twin picks rack %d (%v), want rack %d", r, ok, want.Rack)
	}

	entries := []struct {
		name  string
		admit func() (topo.RowBrickID, error)
	}{
		{"AdmitBatchInto", func() (topo.RowBrickID, error) {
			out := make([]AdmitResult, 1)
			err := s.AdmitBatchInto([]AdmitRequest{{Owner: "one", VCPUs: vcpus, LocalMem: local}}, out, 0)
			return topo.RowBrickID{Pod: out[0].Pod, Rack: out[0].Rack, Brick: out[0].CPU}, err
		}},
		{"ReserveCompute", func() (topo.RowBrickID, error) {
			id, _, err := s.ReserveCompute("one", vcpus, local)
			return id, err
		}},
	}
	for _, e := range entries {
		rowBefore, podBefore := s.spreadFallbacks, pod.spreadFallbacks
		got, err := e.admit()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if got != want {
			t.Fatalf("%s: placed on %v, want %v", e.name, got, want)
		}
		if n := pod.spreadFallbacks - podBefore; n != 1 {
			t.Fatalf("%s: the pod's rack choice fell back %d times, want 1", e.name, n)
		}
		if n := s.spreadFallbacks - rowBefore; n != 0 {
			t.Fatalf("%s: the row's pod choice fell back %d times, want 0", e.name, n)
		}
		if err := s.ReleaseCompute(got, vcpus, local); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
