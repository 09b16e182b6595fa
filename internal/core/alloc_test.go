package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/optical"
	"repro/internal/scaleup"
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

// burstAllocs warms target with create+destroy cycles of reqs, then
// measures the allocations of one more cycle.
func burstAllocs(t *testing.T, target PipelineTarget, reqs []VMCreate) float64 {
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
	n := testing.AllocsPerRun(5, cycle)
	t.Logf("%d-VM burst: %.0f allocations per create+destroy cycle, %.4f per VM", len(reqs), n, n/float64(len(reqs)))
	return n
}

// churnAllocs warms pod with pod-churn rounds, then measures the
// allocations of one round: a 32-VM CreateVMs, a newest-first
// DestroyVMs down to the round's target population, RebalanceBatch and
// Consolidate. Targets alternate between two populations, so each pair
// of rounds is one steady cycle. The rounds must move VMs and re-home
// or promote memory, or the measurement would not cover the moves.
func churnAllocs(t *testing.T, pod *Pod) float64 {
	t.Helper()
	const burst = 32
	names := make([]string, 4*burst)
	free := make([]string, 0, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("vm-%04d", i)
	}
	for i := len(names) - 1; i >= 0; i-- {
		free = append(free, names[i])
	}
	reqs := make([]VMCreate, burst)
	live := make([]string, 0, len(names))
	ids := make([]string, 0, len(names))
	var moved, rehomed int
	round := func(target int) {
		for i := range reqs {
			reqs[i] = VMCreate{
				ID:     free[len(free)-1],
				VCPUs:  1 + i%4,
				Memory: brick.Bytes(1+i%3) * brick.GiB,
				Remote: brick.Bytes(1+i%2) * brick.GiB,
			}
			free = free[:len(free)-1]
			live = append(live, reqs[i].ID)
		}
		if _, err := pod.CreateVMs(reqs, 0); err != nil {
			t.Fatal(err)
		}
		if len(live) > target {
			ids = ids[:0]
			for i := len(live) - 1; i >= target; i-- {
				ids = append(ids, live[i])
			}
			if _, err := pod.DestroyVMs(ids, 0); err != nil {
				t.Fatal(err)
			}
			live = live[:target]
			for i := len(ids) - 1; i >= 0; i-- {
				free = append(free, ids[i])
			}
		}
		pod.RebalanceBatch()
		rep := pod.Consolidate()
		moved += rep.VMsMoved
		rehomed += rep.Promoted + rep.Rehomed
	}
	cycle := func() {
		round(2 * burst)
		round(burst + burst/2)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	moved, rehomed = 0, 0
	n := testing.AllocsPerRun(10, cycle) / 2
	if moved == 0 || rehomed == 0 {
		t.Fatalf("pod-churn rounds moved %d VMs and re-homed %d segments; the shape must exercise both", moved, rehomed)
	}
	t.Logf("pod-churn round: %.2f allocations, %.4f per VM (%d VMs moved, %d segments re-homed over the runs)", n, n/burst, moved, rehomed)
	return n
}

// TestFacadeSteadyStateAllocs pins the allocation cost of a warmed
// facade burst at the two []scaleup.Result slices that CreateVMs and
// DestroyVMs return, and nothing per VM, also in a pod-churn round that
// migrates VMs and moves their memory between racks: the SDM group commit
// allocates nothing, the burst buffers and the name table's slots are
// reused, and each VM boots into a Scale-up record (which embeds the
// hypervisor VM with its guest kernel and first binding) that an
// earlier DestroyVMs parked in the facade's arena.
func TestFacadeSteadyStateAllocs(t *testing.T) {
	const maxPerCycle = 2
	t.Run("pod", func(t *testing.T) {
		cfg := DefaultPodConfig(4)
		cfg.Rack = burstRackConfig()
		pod, err := NewPod(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pod.Scheduler().PowerOnAll()
		if n := burstAllocs(t, pod, burstReqs(32)); n > maxPerCycle {
			t.Fatalf("pod create+destroy allocates %.0f per cycle, want <= %d", n, maxPerCycle)
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
		if n := burstAllocs(t, pod, burstReqs(32)); n > maxPerCycle {
			t.Fatalf("pod create+destroy with spills allocates %.0f per cycle, want <= %d", n, maxPerCycle)
		}
		if _, _, spills := sched.Stats(); spills == spillsBefore {
			t.Fatal("no VM spilled cross-rack")
		}
	})
	t.Run("pod-churn", func(t *testing.T) {
		// The pod-churn shape: a dark power-aware pod of 16 racks where
		// each round admits a 32-VM burst, retires the newest VMs down
		// to a target population, rebalances and consolidates, so VMs
		// migrate between racks and their remote memory re-points,
		// re-homes and promotes beside admission.
		cfg := DefaultPodConfig(16)
		cfg.Rack = burstRackConfig()
		cfg.Rack.SDM.Policy = sdm.PolicyPowerAware
		cfg.Fabric.Switch.Ports = max(cfg.Fabric.Switch.Ports, cfg.Racks*cfg.Fabric.UplinksPerRack)
		pod, err := NewPod(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := churnAllocs(t, pod); n > maxPerCycle {
			t.Fatalf("pod-churn round allocates %.2f, want <= %d", n, maxPerCycle)
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
		if n := burstAllocs(t, row, burstReqs(256)); n > maxPerCycle {
			t.Fatalf("row create+destroy allocates %.0f per cycle, want <= %d", n, maxPerCycle)
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
// touches nothing, on both facades. So are the other ways a create
// burst aborts after claiming names: a name that already exists past
// the burst's first position, a burst too large to admit, and a boot
// failure after earlier VMs of the burst were adopted and bound. Each
// refusal leaves the facade's table, every rack's Scale-up table and
// free capacity as they were, and the same names create afterwards.
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
	var podRacks, rowRacks []*scaleup.Controller
	for _, stack := range pod.stacks {
		podRacks = append(podRacks, stack.scale)
	}
	for _, stacks := range row.stacks {
		for _, stack := range stacks {
			rowRacks = append(rowRacks, stack.scale)
		}
	}
	facades := []struct {
		name       string
		target     PipelineTarget
		live       func(id string) bool
		table      *vmTable
		racks      []*scaleup.Controller
		invariants func() error
	}{
		{"pod", pod, func(id string) bool { _, ok := pod.VMRack(id); return ok }, &pod.vms, podRacks, pod.Scheduler().CheckInvariants},
		{"row", row, func(id string) bool { _, _, ok := row.VMLoc(id); return ok }, &row.vms, rowRacks, row.Scheduler().CheckInvariants},
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

			// state is what a refused burst must leave as it found it.
			state := func() string {
				var b strings.Builder
				fmt.Fprintf(&b, "table holds %d\n", f.table.len())
				for i, scale := range f.racks {
					fmt.Fprintf(&b, "rack %d: %d cores, %v free;", i, scale.SDM().FreeCores(), scale.SDM().FreeMemory())
					for _, vm := range scale.AppendVMs(nil) {
						fmt.Fprintf(&b, " %s@%p", vm.ID, vm)
					}
					b.WriteByte('\n')
				}
				return b.String()
			}
			refused := func(what string, burst []VMCreate, want string) {
				t.Helper()
				before := state()
				_, err := f.target.CreateVMs(burst, 0)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: err = %v, want one containing %q", what, err, want)
				}
				if after := state(); after != before {
					t.Fatalf("%s changed the facade:\nbefore:\n%safter:\n%s", what, before, after)
				}
				if err := f.invariants(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if err := f.table.consistent(); err != nil {
					t.Fatalf("%s: facade table: %v", what, err)
				}
			}
			rename := func(burst []VMCreate, prefix string) []VMCreate {
				burst = append([]VMCreate(nil), burst...)
				for i := range burst {
					burst[i].ID = fmt.Sprintf("%s%d", prefix, i)
				}
				return burst
			}
			create := func(burst []VMCreate) {
				t.Helper()
				if _, err := f.target.CreateVMs(burst, 0); err != nil {
					t.Fatalf("the refused burst's names: %v", err)
				}
				if err := f.table.consistent(); err != nil {
					t.Fatal(err)
				}
			}

			// A name that already exists, at position 1.
			exists := rename(burstReqs(3), "vm-x")
			exists[1].ID = reqs[1].ID
			refused("burst naming an existing VM", exists, fmt.Sprintf("core: VM %q already exists in the %s", reqs[1].ID, f.name))
			create([]VMCreate{exists[0], exists[2]})

			// A burst asking for more cores than the facade has.
			big := rename(burstReqs(48), "vm-b")
			for i := range big {
				big[i].VCPUs = 4
			}
			refused("burst too large to admit", big, "")
			for i := range big {
				big[i].VCPUs, big[i].Memory, big[i].Remote = 1, brick.GiB, 0
			}
			create(big)
			bigIDs := make([]string, len(big))
			for i, r := range big {
				bigIDs[i] = r.ID
			}
			if _, err := f.target.DestroyVMs(bigIDs, 0); err != nil {
				t.Fatal(err)
			}

			// A boot failure at position 1, after position 0 was adopted
			// and bound: every rack's Scale-up controller already holds a
			// stray VM of that name, which the facade does not know.
			boot := rename(burstReqs(3), "vm-s")
			removeStrays := strayVMs(t, f.racks, boot[1].ID)
			refused("burst failing to boot", boot, fmt.Sprintf("core: batch boot of %q: scaleup: VM %q already exists", boot[1].ID, boot[1].ID))
			removeStrays()
			create(boot)

			var all []string
			for _, burst := range [][]VMCreate{reqs, {exists[0], exists[2]}, boot} {
				for _, r := range burst {
					all = append(all, r.ID)
				}
			}
			if _, err := f.target.DestroyVMs(all, 0); err != nil {
				t.Fatal(err)
			}
			if n := f.table.len(); n != 0 {
				t.Fatalf("table holds %d VMs after the last destroy", n)
			}
		})
	}
}

// strayVMs boots a VM named id on each rack's Scale-up controller
// behind the facade's back, so a burst that names id fails to boot
// there, and returns the function that tears the strays down again.
func strayVMs(t *testing.T, racks []*scaleup.Controller, id string) (remove func()) {
	t.Helper()
	for _, scale := range racks {
		if _, _, err := scale.CreateVM(0, hypervisor.VMID(id), hypervisor.VMSpec{VCPUs: 1, Memory: brick.GiB}); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		t.Helper()
		for _, scale := range racks {
			stray, _ := scale.Lookup(hypervisor.VMID(id))
			req, _, _ := scale.EvictRequest(stray, nil)
			if err := scale.SDM().ReleaseCompute(req.CPU, req.VCPUs, req.LocalMem); err != nil {
				t.Fatal(err)
			}
			if _, err := scale.EvictVM(0, stray, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}
