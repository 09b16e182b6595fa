package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sdm"
	"repro/internal/topo"
)

// burstRackConfig is the Fig. 10 sweep rack: one tray of four compute
// bricks (8 cores, 32 GiB local) and four 64 GiB memory bricks behind a
// 64-port circuit switch, under the spread policy. It repeats
// exp.Fig10PodRackSpec because exp imports core, so a core test cannot
// import exp.
func burstRackConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = topo.BuildSpec{Trays: 1, ComputePerTray: 4, MemoryPerTray: 4, PortsPerBrick: 8}
	cfg.Switch = optical.SwitchConfig{
		Ports:           64,
		InsertionLossDB: optical.Polatis48.InsertionLossDB,
		PortPowerW:      optical.Polatis48.PortPowerW,
		ReconfigTime:    optical.Polatis48.ReconfigTime,
	}
	cfg.Bricks.Compute = brick.ComputeConfig{Cores: 8, LocalMemory: 32 * brick.GiB}
	cfg.Bricks.Memory = brick.MemoryConfig{Capacity: 64 * brick.GiB}
	cfg.SDM.Policy = sdm.PolicySpread
	return cfg
}

// burstReqs is an n-VM burst of mixed shapes, each with 2 or 4 GiB of
// remote memory.
func burstReqs(n int) []VMCreate {
	reqs := make([]VMCreate, n)
	for i := range reqs {
		reqs[i] = VMCreate{
			ID:     fmt.Sprintf("vm-%04d", i),
			VCPUs:  1 + i%4,
			Memory: brick.Bytes(1+i%3) * brick.GiB,
			Remote: brick.Bytes(2<<(i%2)) * brick.GiB,
		}
	}
	return reqs
}

// burstAllocsPerVM warms target with create+destroy cycles of reqs,
// then measures the allocations of one more cycle per VM.
func burstAllocsPerVM(t *testing.T, target PipelineTarget, reqs []VMCreate) float64 {
	t.Helper()
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		ids[i] = r.ID
	}
	cycle := func() {
		if _, err := target.CreateVMs(reqs, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := target.DestroyVMs(ids, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	n := testing.AllocsPerRun(5, cycle) / float64(len(reqs))
	t.Logf("%d-VM burst: %.2f allocations per VM", len(reqs), n)
	return n
}

// TestFacadeSteadyStateAllocs pins the per-VM allocation cost of a
// warmed facade burst: the SDM group commit allocates nothing, and the
// software stack above it makes one allocation per VM — the Scale-up
// controller's record, which embeds the hypervisor VM with its guest
// kernel and first binding — plus each burst's returned results.
func TestFacadeSteadyStateAllocs(t *testing.T) {
	const maxPerVM = 2
	t.Run("pod", func(t *testing.T) {
		cfg := DefaultPodConfig(4)
		cfg.Rack = burstRackConfig()
		pod, err := NewPod(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pod.Scheduler().PowerOnAll()
		if n := burstAllocsPerVM(t, pod, burstReqs(32)); n > maxPerVM {
			t.Fatalf("pod create+destroy allocates %.2f per VM, want <= %d", n, maxPerVM)
		}
	})
	t.Run("pod-spill", func(t *testing.T) {
		// The pod-spill shape: 16 racks, 12 of them with every memory
		// brick pre-filled to 1 GiB short of full, so every VM homed on
		// one of them spills its remote memory cross-rack.
		cfg := DefaultPodConfig(16)
		cfg.Rack = burstRackConfig()
		cfg.Fabric.Switch.Ports = max(cfg.Fabric.Switch.Ports, cfg.Racks*cfg.Fabric.UplinksPerRack)
		pod, err := NewPod(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sched := pod.Scheduler()
		sched.PowerOnAll()
		for r := 0; r < cfg.Racks; r++ {
			if r%4 != 0 {
				fillRack(t, sched, pod.Topology().Rack(r), r, 63*brick.GiB)
			}
		}
		_, _, spillsBefore := sched.Stats()
		if n := burstAllocsPerVM(t, pod, burstReqs(32)); n > maxPerVM {
			t.Fatalf("pod create+destroy with spills allocates %.2f per VM, want <= %d", n, maxPerVM)
		}
		if _, _, spills := sched.Stats(); spills == spillsBefore {
			t.Fatal("no VM spilled cross-rack")
		}
	})
	t.Run("row", func(t *testing.T) {
		cfg := DefaultRowConfig(4, 8)
		cfg.Rack = burstRackConfig()
		cfg.Fabric.Switch.Ports = max(cfg.Fabric.Switch.Ports, cfg.Racks*cfg.Fabric.UplinksPerRack)
		row, err := NewRow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		row.Scheduler().PowerOnAll()
		if n := burstAllocsPerVM(t, row, burstReqs(256)); n > maxPerVM {
			t.Fatalf("row create+destroy allocates %.2f per VM, want <= %d", n, maxPerVM)
		}
	})
}

// fillRack carves size on every memory brick of rack r through the
// scheduler's own attach path, so indexes, ports and circuits stay
// consistent.
func fillRack(t *testing.T, sched *sdm.PodScheduler, rack *topo.Rack, r int, size brick.Bytes) {
	t.Helper()
	cpus := rack.BricksOfKind(topo.KindCompute)
	for k := 0; k < rack.Count(topo.KindMemory); k++ {
		cpu := topo.PodBrickID{Rack: r, Brick: cpus[k%len(cpus)].ID}
		att, _, err := sched.AttachRemoteMemory(fmt.Sprintf("ballast-%d-%d", r, k), cpu, size)
		if err != nil {
			t.Fatal(err)
		}
		if att.CrossRack() {
			t.Fatalf("ballast for rack %d spilled cross-rack", r)
		}
	}
}

// TestBurstRejectsRepeatedID: a burst naming one VM twice is refused as
// a duplicate within the burst — not as a missing or existing VM — and
// touches nothing, on both facades.
func TestBurstRejectsRepeatedID(t *testing.T) {
	podCfg := DefaultPodConfig(2)
	podCfg.Rack = burstRackConfig()
	pod, err := NewPod(podCfg)
	if err != nil {
		t.Fatal(err)
	}
	rowCfg := DefaultRowConfig(2, 2)
	rowCfg.Rack = burstRackConfig()
	row, err := NewRow(rowCfg)
	if err != nil {
		t.Fatal(err)
	}
	facades := []struct {
		name   string
		target PipelineTarget
		live   func(id string) bool
	}{
		{"pod", pod, func(id string) bool { _, ok := pod.VMRack(id); return ok }},
		{"row", row, func(id string) bool { _, _, ok := row.VMLoc(id); return ok }},
	}
	for _, f := range facades {
		t.Run(f.name, func(t *testing.T) {
			reqs := burstReqs(3)
			dupCreate := append(append([]VMCreate(nil), reqs...), reqs[1])
			if _, err := f.target.CreateVMs(dupCreate, 0); err == nil || !strings.Contains(err.Error(), "twice") {
				t.Fatalf("create burst naming %q twice: err = %v, want a duplicate-in-burst error", reqs[1].ID, err)
			}
			for _, r := range reqs {
				if f.live(r.ID) {
					t.Fatalf("refused create burst left %q live", r.ID)
				}
			}
			if _, err := f.target.CreateVMs(reqs, 0); err != nil {
				t.Fatal(err)
			}
			ids := []string{reqs[0].ID, reqs[1].ID, reqs[0].ID}
			_, err := f.target.DestroyVMs(ids, 0)
			if err == nil || !strings.Contains(err.Error(), "twice") || !strings.Contains(err.Error(), reqs[0].ID) {
				t.Fatalf("destroy burst naming %q twice: err = %v, want a duplicate-in-burst error", reqs[0].ID, err)
			}
			for _, r := range reqs {
				if !f.live(r.ID) {
					t.Fatalf("refused destroy burst retired %q", r.ID)
				}
			}
			if _, err := f.target.DestroyVMs([]string{reqs[0].ID, reqs[1].ID, reqs[2].ID}, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}
