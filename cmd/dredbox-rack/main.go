// Command dredbox-rack assembles a full-stack dReDBox rack, runs a short
// mixed scenario (VMs, elasticity, migration, accelerator offload,
// power-off sweep) and prints the rack state plus the orchestration
// journal — a one-shot tour of the whole system. For the paper's
// evaluation artifacts use dredbox-report, which runs the internal/exp
// registry (DESIGN.md §4).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/accel"
	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/scaleup"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	seed := flag.Uint64("seed", 1, "deterministic simulation seed")
	journalCap := flag.Int("journal", 64, "journal ring capacity")
	jsonOut := flag.Bool("json", false, "print the final SDM state snapshot as JSON")
	racks := flag.Int("racks", 1, "rack count; above 1 assembles a multi-rack pod and runs the pod tour instead (racks per pod with -pods)")
	pods := flag.Int("pods", 0, "pod count; above 1 assembles a row of pods and runs the row tour — cross-pod memory spill through the row switch, group-commit burst and per-pod aggregates")
	rebalance := flag.Bool("rebalance", false, "with -racks > 1: free home-rack capacity and run an online rebalancing sweep at the end of the tour")
	burst := flag.Int("burst", 0, "with -racks > 1: batch-admit this many VMs (boot + remote memory) in one group commit at the end of the tour; admission is all-or-nothing, so a burst too big for the tour's tiny racks aborts the tour with the batch rolled back")
	drain := flag.Bool("drain", false, "with -burst: tear the burst back down in one group-commit eviction (DestroyVMs), then run a consolidation pass that re-packs survivors and powers drained racks down")
	pipeline := flag.Int("pipeline", 0, "with -burst: serve the burst through a core.BatchPipeline of this depth (0 or 1 = no pipelining)")
	flag.Parse()

	if *drain && *burst <= 0 {
		fail(fmt.Errorf("-drain needs a burst to tear down: pass -burst 1 or more"))
	}
	if *pods > 1 {
		if *rebalance {
			fail(fmt.Errorf("-rebalance is a pod-tier sweep: drop -pods or run with -racks alone"))
		}
		nRacks := *racks
		if nRacks < 2 {
			nRacks = 2
		}
		rowTour(*pods, nRacks, *seed, *journalCap, *jsonOut, *burst, *drain, *pipeline)
		return
	}
	if *racks > 1 {
		podTour(*racks, *seed, *journalCap, *jsonOut, *rebalance, *burst, *drain, *pipeline)
		return
	}
	if *rebalance {
		fail(fmt.Errorf("-rebalance needs a pod: pass -racks 2 or more"))
	}
	if *burst > 0 {
		fail(fmt.Errorf("-burst needs a pod: pass -racks 2 or more"))
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	dc, err := core.New(cfg)
	if err != nil {
		fail(err)
	}
	j, err := trace.New(*journalCap)
	if err != nil {
		fail(err)
	}
	dc.ScaleController().SetJournal(j)

	fmt.Println("== rack inventory ==")
	for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory, topo.KindAccel} {
		fmt.Printf("  %-12v x%d\n", kind, dc.Rack().Count(kind))
	}
	fmt.Printf("  switch fabric: %d ports, %.1f W\n\n",
		cfg.Switch.Ports, dc.Fabric().Switch().PowerW())

	// Scenario: boot three VMs, scale them, migrate one, offload work.
	for i, spec := range []struct {
		id   string
		cpus int
		mem  brick.Bytes
	}{
		{"web", 2, 2 * brick.GiB},
		{"db", 4, 4 * brick.GiB},
		{"batch", 1, brick.GiB},
	} {
		if _, err := dc.CreateVM(spec.id, spec.cpus, spec.mem); err != nil {
			fail(fmt.Errorf("VM %d: %w", i, err))
		}
	}
	dc.SDM().PowerOnAll()

	if _, err := dc.ScaleUpVM("db", 8*brick.GiB); err != nil {
		fail(err)
	}
	if _, err := dc.ScaleUpVM("web", 2*brick.GiB); err != nil {
		fail(err)
	}
	mig, err := dc.MigrateVM("db")
	if err != nil {
		fail(err)
	}
	fmt.Printf("migrated db %v -> %v: downtime %v (full copy would take %v)\n",
		mig.From, mig.To, mig.Downtime, mig.FullCopyBaseline)

	bs := accel.Bitstream{Name: "compress", Size: 5 * brick.MiB}
	accBrick, slot, _, err := dc.AttachAccelerator("batch", bs)
	if err != nil {
		fail(err)
	}
	if _, _, err := dc.Offload(accBrick, slot, accel.Task{
		InputBytes: 128 * brick.MiB, OutputBytes: 32 * brick.MiB, AccelBytesPerSec: 2e9,
	}); err != nil {
		fail(err)
	}

	// Auto-scaler pass: the db VM's working set grows.
	auto, err := scaleup.NewAutoScaler(dc.ScaleController(), hypervisor.OOMGuard{
		HeadroomFraction: 0.9, StepSize: 2 * brick.GiB,
	})
	if err != nil {
		fail(err)
	}
	vm, _ := dc.VM("db")
	vm.SetUsage(vm.AvailableMemory() * 95 / 100)
	tick, err := auto.Tick(dc.Now().Add(sim.Duration(sim.Minute)))
	if err != nil {
		fail(err)
	}
	fmt.Printf("auto-scaler: %d scale-ups, worst delay %v\n\n", tick.ScaleUps, tick.WorstDelay)

	n := dc.PowerOffIdle()
	fmt.Printf("== power census after sweeping %d idle bricks ==\n", n)
	for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory, topo.KindAccel} {
		c := dc.Census(kind)
		fmt.Printf("  %-12v active %d  idle %d  off %d\n", kind, c.Active, c.Idle, c.Off)
	}
	fmt.Printf("  rack draw: %.1f W\n\n", dc.DrawW())

	fmt.Println("== orchestration journal ==")
	fmt.Print(j.Dump())

	if *jsonOut {
		data, err := dc.SDM().Snapshot().JSON()
		if err != nil {
			fail(err)
		}
		fmt.Println("\n== SDM state snapshot (JSON) ==")
		fmt.Println(string(data))
	}
}

// podTour shards the scenario across racks: deliberately tiny racks
// (one compute and one 4 GiB memory brick each) so the tour exercises
// the pod tier — a scale-up that spills cross-rack, remote reads on
// both sides of the pod switch, a cross-rack VM migration and,
// with -rebalance, an online rebalancing sweep that pulls the spill
// home once capacity frees. -burst batch-admits a VM burst in one group
// commit; -drain tears it back down the same way and consolidates.
func podTour(racks int, seed uint64, journalCap int, jsonOut, rebalance bool, burst int, drain bool, pipeline int) {
	cfg := core.DefaultPodConfig(racks)
	cfg.Rack.Seed = seed
	cfg.Rack.Topology = topo.BuildSpec{
		Trays: 1, ComputePerTray: 1, MemoryPerTray: 1, AccelPerTray: 0, PortsPerBrick: 8,
	}
	cfg.Rack.Switch.Ports = 16
	cfg.Rack.Bricks.Memory.Capacity = 4 * brick.GiB
	pod, err := core.NewPod(cfg)
	if err != nil {
		fail(err)
	}
	// One shared journal across every rack's scale controller gives a
	// pod-wide, interleaved view of the orchestration events.
	j, err := trace.New(journalCap)
	if err != nil {
		fail(err)
	}
	for i := 0; i < pod.Racks(); i++ {
		sc, _ := pod.ScaleController(i)
		sc.SetJournal(j)
	}

	fmt.Printf("== pod inventory (%d racks) ==\n", pod.Racks())
	for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory} {
		fmt.Printf("  %-12v x%d (x%d per rack)\n", kind, pod.Topology().Count(kind), pod.Rack(0).Count(kind))
	}
	fmt.Printf("  pod switch: %d ports, %.1f W; %d uplinks per rack\n\n",
		cfg.Fabric.Switch.Ports, pod.Fabric().PowerW(), cfg.Fabric.UplinksPerRack)

	if _, err := pod.CreateVM("web", 1, brick.GiB); err != nil {
		fail(err)
	}
	if _, err := pod.CreateVM("db", 2, 2*brick.GiB); err != nil {
		fail(err)
	}

	// Fill the db VM's home-rack memory brick, then spill cross-rack.
	if _, err := pod.ScaleUpVM("db", 4*brick.GiB); err != nil {
		fail(err)
	}
	if _, err := pod.ScaleUpVM("db", 2*brick.GiB); err != nil {
		fail(err)
	}
	atts := pod.Scheduler().Attachments("db")
	for _, att := range atts {
		fmt.Printf("db attachment: %v on rack %d (%v mode, %d hops, %.0f m fiber)\n",
			att.Size(), att.MemRack, att.Mode, att.Circuit.Hops, att.Circuit.FiberMeters)
	}
	intra, err := pod.RemoteAccess("db", mem.OpRead, 0, 64)
	if err != nil {
		fail(err)
	}
	cross, err := pod.RemoteAccess("db", mem.OpRead, 4*uint64(brick.GiB), 64)
	if err != nil {
		fail(err)
	}
	fmt.Printf("64B read RTT: intra-rack %v, cross-rack %v\n\n", intra.Total, cross.Total)

	mig, err := pod.MigrateVM("web")
	if err != nil {
		fail(err)
	}
	fmt.Printf("migrated web rack %d -> rack %d (host %v): downtime %v\n\n",
		mig.FromRack, mig.ToRack, mig.To, mig.Downtime)

	if rebalance {
		// Free the home rack's memory, then let the sweep pull the
		// cross-rack spill back rack-local.
		if _, err := pod.ScaleDownVM("db", 4*brick.GiB); err != nil {
			fail(err)
		}
		rep := pod.Rebalance()
		fmt.Printf("== rebalancing sweep ==\n")
		fmt.Printf("scanned %d cross-rack attachments: promoted %d, freed %d pod uplinks in %v\n",
			rep.Scanned, rep.Promoted, rep.FreedUplinks, rep.Latency)
		for _, p := range rep.Promotions {
			fmt.Printf("  %s: %v came home r%d -> r%d in %v\n",
				p.Owner, brick.Bytes(p.Size), p.FromRack, p.HomeRack, p.Latency)
		}
		fmt.Printf("pod circuits now: %d\n\n", pod.Fabric().CrossCircuits())
	}

	if burst > 0 {
		// Batch admission: one burst from the workload generator, booted
		// in a single group commit — the pod scheduler partitions the
		// burst across rack shards, plans and commits each shard, and
		// merges cross-rack spills in request order.
		src, err := workload.NewBurstSource(workload.HalfHalf, seed, burst, 0)
		if err != nil {
			fail(err)
		}
		b, err := src.Next(pod.Now())
		if err != nil {
			fail(err)
		}
		reqs := make([]core.VMCreate, burst)
		for i, r := range b.Reqs {
			// Scale Table I shapes down to the tour's tiny racks; remote
			// memory stays hotplug-block (GiB) aligned.
			reqs[i] = core.VMCreate{
				ID:     fmt.Sprintf("burst%02d", i),
				VCPUs:  1 + r.VCPUs/32,
				Memory: brick.Bytes(r.RAMGiB) * brick.MiB * 8,
				Remote: brick.Bytes(1+r.RAMGiB/32) * brick.GiB,
			}
		}
		var pipe *core.BatchPipeline
		if pipeline > 1 {
			if pipe, err = core.NewBatchPipeline(pod, pipeline); err != nil {
				fail(err)
			}
		}
		_, _, spillsBefore := pod.Scheduler().Stats()
		var results []scaleup.Result
		if pipe != nil {
			results, err = pipe.CreateVMs(reqs)
		} else {
			results, err = pod.CreateVMs(reqs, 0)
		}
		if err != nil {
			fail(err)
		}
		_, _, spillsAfter := pod.Scheduler().Stats()
		var worst sim.Duration
		for _, r := range results {
			if d := r.Delay(); d > worst {
				worst = d
			}
		}
		fmt.Printf("== batch admission (%d VMs, one group commit) ==\n", burst)
		// Self-describing commit plane for determinism-matrix CI logs:
		// the shard count and pipeline depth the burst ran at.
		fmt.Printf("commit plane: serial, %d rack shards, pipeline depth %d\n", pod.Racks(), pipelineDepth(pipe))
		perRack := make([]int, pod.Racks())
		for i := range reqs {
			if r, ok := pod.VMRack(reqs[i].ID); ok {
				perRack[r]++
			}
		}
		fmt.Printf("placed per rack: %v; %d attachments spilled cross-rack; worst admission delay %v\n\n",
			perRack, spillsAfter-spillsBefore, worst)

		if drain {
			// The inverse group commit: the whole burst retires in one
			// batched eviction (all-or-nothing, one index refresh per
			// touched brick), then a consolidation pass re-packs what
			// is left and powers the drained racks down.
			ids := make([]string, burst)
			for i := range ids {
				ids[i] = reqs[i].ID
			}
			if pipe != nil {
				_, err = pipe.DestroyVMs(ids)
			} else {
				_, err = pod.DestroyVMs(ids, 0)
			}
			if err != nil {
				fail(err)
			}
			if pipe != nil {
				// Consolidation migrates VMs: land in-flight boots first.
				pipe.Drain()
			}
			rep := pod.Consolidate()
			fmt.Printf("== batch teardown (%d VMs, one group commit) + consolidation ==\n", burst)
			fmt.Printf("moved %d VMs off sparse racks, re-homed %d remote segments, drained %d racks, powered off %d bricks; %d racks now fully dark\n\n",
				rep.VMsMoved, rep.Rehomed, rep.RacksDrained, rep.PoweredOff, rep.DarkRacks)
		}
	}

	// The scheduler's per-rack free aggregates — O(1) reads off each
	// rack controller's placement-index root, the quantities pod-tier
	// rack choice is arithmetic over.
	fmt.Println("== per-rack free aggregates (placement-index roots) ==")
	for i := 0; i < pod.Racks(); i++ {
		r := pod.Scheduler().Rack(i)
		fmt.Printf("  rack %d: %3d free cores, %8v free memory, largest gap %8v, %d free uplinks\n",
			i, r.FreeCores(), r.FreeMemory(), r.MaxMemoryGap(), pod.Fabric().FreeUplinks(i))
	}
	fmt.Println()

	n := pod.PowerOffIdle()
	fmt.Printf("== power census after sweeping %d idle bricks ==\n", n)
	for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory} {
		c := pod.Census(kind)
		fmt.Printf("  %-12v active %d  idle %d  off %d\n", kind, c.Active, c.Idle, c.Off)
	}
	fmt.Printf("  pod draw: %.1f W\n\n", pod.DrawW())

	fmt.Println("== orchestration journal (pod-wide) ==")
	fmt.Print(j.Dump())

	if jsonOut {
		fmt.Println("\n== SDM state snapshots (JSON, one per rack) ==")
		for i := 0; i < pod.Racks(); i++ {
			data, err := pod.Scheduler().Rack(i).Snapshot().JSON()
			if err != nil {
				fail(err)
			}
			fmt.Printf("-- rack %d --\n%s\n", i, data)
		}
	}
}

// rowTour recurses the pod tour one tier up: the same deliberately tiny
// racks assembled into -pods pods under the row circuit switch. The db
// VM's scale-ups walk the whole spill cascade — home rack, cross-rack
// inside the pod, then cross-pod through the row switch — and the
// closing section reads the per-pod aggregates pod choice is O(1)
// arithmetic over. -burst group-commits a VM burst across pod shards;
// -drain tears it back down and consolidates every pod.
func rowTour(pods, racks int, seed uint64, journalCap int, jsonOut bool, burst int, drain bool, pipeline int) {
	cfg := core.DefaultRowConfig(pods, racks)
	cfg.Rack.Seed = seed
	cfg.Rack.Topology = topo.BuildSpec{
		Trays: 1, ComputePerTray: 1, MemoryPerTray: 1, AccelPerTray: 0, PortsPerBrick: 8,
	}
	cfg.Rack.Switch.Ports = 16
	cfg.Rack.Bricks.Memory.Capacity = 4 * brick.GiB
	if need := racks * cfg.Fabric.UplinksPerRack; cfg.Fabric.Switch.Ports < need {
		cfg.Fabric.Switch.Ports = need
	}
	if need := pods * cfg.Row.UplinksPerPod; cfg.Row.Switch.Ports < need {
		cfg.Row.Switch.Ports = need
	}
	row, err := core.NewRow(cfg)
	if err != nil {
		fail(err)
	}
	j, err := trace.New(journalCap)
	if err != nil {
		fail(err)
	}
	for p := 0; p < row.Pods(); p++ {
		for i := 0; i < row.RacksPerPod(); i++ {
			sc, _ := row.ScaleController(p, i)
			sc.SetJournal(j)
		}
	}

	fmt.Printf("== row inventory (%d pods x %d racks) ==\n", row.Pods(), row.RacksPerPod())
	for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory} {
		fmt.Printf("  %-12v x%d (x%d per rack)\n", kind, row.Topology().Count(kind), row.Topology().Pod(0).Rack(0).Count(kind))
	}
	fmt.Printf("  row switch: %d ports, %.1f W; %d uplinks per pod, +%d hops, %.0f m inter-pod fiber\n\n",
		cfg.Row.Switch.Ports, row.Fabric().RowSwitch().PowerW(),
		cfg.Row.UplinksPerPod, cfg.Row.ExtraHops, cfg.Row.InterPodFiberMeters)

	if _, err := row.CreateVM("web", 1, brick.GiB); err != nil {
		fail(err)
	}
	if _, err := row.CreateVM("db", 2, 2*brick.GiB); err != nil {
		fail(err)
	}

	// Walk the db VM down the whole spill cascade: fill the home rack,
	// fill the rest of the home pod, then force the row switch.
	for i := 0; i < racks; i++ {
		if _, err := row.ScaleUpVM("db", 4*brick.GiB); err != nil {
			fail(err)
		}
	}
	if _, err := row.ScaleUpVM("db", 2*brick.GiB); err != nil {
		fail(err)
	}
	for _, att := range row.Scheduler().Attachments("db") {
		where := "rack-local"
		if att.CrossPod() {
			where = "cross-pod"
		} else if att.CrossRack() {
			where = "cross-rack"
		}
		fmt.Printf("db attachment: %v on pod %d rack %d — %s (%v mode, %d hops, %.0f m fiber)\n",
			att.Size(), att.MemPod, att.MemRack, where, att.Mode, att.Circuit.Hops, att.Circuit.FiberMeters)
	}
	_, _, spills := row.Scheduler().Stats()
	fmt.Printf("row spills so far: %d; row cross circuits: %d\n\n", spills, row.Fabric().CrossCircuits())

	if burst > 0 {
		// Group-commit admission one tier up: the row partitions the
		// burst by pod over the planned-adjusted aggregates, runs each
		// pod shard through the pod's batch engine, and merges the
		// rack -> pod -> row spill cascade in request order.
		src, err := workload.NewBurstSource(workload.HalfHalf, seed, burst, 0)
		if err != nil {
			fail(err)
		}
		b, err := src.Next(row.Now())
		if err != nil {
			fail(err)
		}
		reqs := make([]core.VMCreate, burst)
		for i, r := range b.Reqs {
			reqs[i] = core.VMCreate{
				ID:     fmt.Sprintf("burst%02d", i),
				VCPUs:  1 + r.VCPUs/32,
				Memory: brick.Bytes(r.RAMGiB) * brick.MiB * 8,
				Remote: brick.Bytes(1+r.RAMGiB/32) * brick.GiB,
			}
		}
		var pipe *core.BatchPipeline
		if pipeline > 1 {
			if pipe, err = core.NewBatchPipeline(row, pipeline); err != nil {
				fail(err)
			}
		}
		_, _, spillsBefore := row.Scheduler().Stats()
		var results []scaleup.Result
		if pipe != nil {
			results, err = pipe.CreateVMs(reqs)
		} else {
			results, err = row.CreateVMs(reqs, 0)
		}
		if err != nil {
			fail(err)
		}
		_, _, spillsAfter := row.Scheduler().Stats()
		var worst sim.Duration
		for _, r := range results {
			if d := r.Delay(); d > worst {
				worst = d
			}
		}
		perPod := make([]int, row.Pods())
		for i := range reqs {
			if p, _, ok := row.VMLoc(reqs[i].ID); ok {
				perPod[p]++
			}
		}
		fmt.Printf("== batch admission (%d VMs, one group commit across pods) ==\n", burst)
		// Self-describing commit plane for determinism-matrix CI logs:
		// the shard count and pipeline depth the burst ran at.
		fmt.Printf("commit plane: serial, %d pod shards, pipeline depth %d\n", row.Pods(), pipelineDepth(pipe))
		fmt.Printf("placed per pod: %v; %d attachments spilled cross-pod; worst admission delay %v\n\n",
			perPod, spillsAfter-spillsBefore, worst)

		if drain {
			ids := make([]string, burst)
			for i := range ids {
				ids[i] = reqs[i].ID
			}
			if pipe != nil {
				_, err = pipe.DestroyVMs(ids)
			} else {
				_, err = row.DestroyVMs(ids, 0)
			}
			if err != nil {
				fail(err)
			}
			if pipe != nil {
				// Consolidation migrates VMs: land in-flight boots first.
				pipe.Drain()
			}
			rep := row.Consolidate()
			fmt.Printf("== batch teardown (%d VMs, one group commit) + per-pod consolidation ==\n", burst)
			fmt.Printf("moved %d VMs off sparse racks (%d pinned cross-pod), re-homed %d remote segments, drained %d racks, powered off %d bricks; %d racks now fully dark\n\n",
				rep.VMsMoved, rep.MovesFailed, rep.Rehomed, rep.RacksDrained, rep.PoweredOff, rep.DarkRacks)
		}
	}

	// The per-pod summaries rolled up from the rack index roots — the
	// quantities row-tier pod choice is O(1) arithmetic over.
	fmt.Println("== per-pod aggregates (rolled up from rack index roots) ==")
	s := row.Scheduler()
	for p := 0; p < row.Pods(); p++ {
		fmt.Printf("  pod %d: %3d free cores, %8v free memory, largest gap %8v, %d free row uplinks\n",
			p, s.PodFreeCores(p), s.PodFreeMemory(p), s.PodMaxGap(p), row.Fabric().FreeUplinks(p))
	}
	fmt.Println()

	n := row.PowerOffIdle()
	fmt.Printf("== power census after sweeping %d idle bricks (O(pods) aggregate read) ==\n", n)
	for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory} {
		c := row.Census(kind)
		fmt.Printf("  %-12v active %d  idle %d  off %d\n", kind, c.Active, c.Idle, c.Off)
	}
	fmt.Printf("  row draw: %.1f W\n\n", row.DrawW())

	fmt.Println("== orchestration journal (row-wide) ==")
	fmt.Print(j.Dump())

	if jsonOut {
		fmt.Println("\n== SDM state snapshots (JSON, one per rack) ==")
		for p := 0; p < row.Pods(); p++ {
			for i := 0; i < row.RacksPerPod(); i++ {
				data, err := s.Pod(p).Rack(i).Snapshot().JSON()
				if err != nil {
					fail(err)
				}
				fmt.Printf("-- pod %d rack %d --\n%s\n", p, i, data)
			}
		}
	}
}

// pipelineDepth reports the depth a burst ran at: 1 when unpipelined.
func pipelineDepth(pipe *core.BatchPipeline) int {
	if pipe == nil {
		return 1
	}
	return pipe.Depth()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dredbox-rack:", err)
	os.Exit(1)
}
