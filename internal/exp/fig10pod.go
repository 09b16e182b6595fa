package exp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/optical"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// fig10PodConcurrencies are the paper's Fig. 10 bar groups, re-run at
// pod scale.
var fig10PodConcurrencies = []int{32, 16, 8}

// defaultFig10PodRacks sizes the pod when Params.Racks is zero.
const defaultFig10PodRacks = 4

// fig10PodStep is the per-request scale-up increment.
const fig10PodStep = 2 * brick.GiB

// Fig10PodRow is one concurrency level of the pod-scale sweep: the
// per-VM average scale-up delay and the virtual placement throughput,
// for the sharded pod (one SDM controller per rack) against the single
// global SDM controller serving the same aggregate inventory.
type Fig10PodRow struct {
	Concurrency           int
	ShardedAvgS           float64 // per-VM avg scale-up delay, sharded pod
	GlobalAvgS            float64 // per-VM avg scale-up delay, one global SDM
	ShardedPlacementsPerS float64 // placements/s over the burst makespan
	GlobalPlacementsPerS  float64
}

// Speedup returns the sharded-over-global throughput ratio.
func (r Fig10PodRow) Speedup() float64 {
	if r.GlobalPlacementsPerS == 0 {
		return 0
	}
	return r.ShardedPlacementsPerS / r.GlobalPlacementsPerS
}

// fig10PodLevel is one concurrency level's measurement on one side.
type fig10PodLevel struct {
	avgS, placementsPerS float64
}

// Fig10PodResult holds the pod-scale Fig. 10 sweep.
type Fig10PodResult struct {
	Racks    int
	StepSize brick.Bytes
	Rows     []Fig10PodRow
}

// fig10PodRackSpec is the per-rack inventory: 4 compute bricks (8 cores,
// 32 GiB local) and 4 memory bricks (64 GiB) behind a 64-port switch.
func fig10PodRackSpec() core.Config {
	cfg := core.DefaultConfig()
	cfg.Topology = topo.BuildSpec{
		Trays: 1, ComputePerTray: 4, MemoryPerTray: 4, AccelPerTray: 0, PortsPerBrick: 8,
	}
	cfg.Switch = optical.SwitchConfig{
		Ports:           64,
		InsertionLossDB: optical.Polatis48.InsertionLossDB,
		PortPowerW:      optical.Polatis48.PortPowerW,
		ReconfigTime:    optical.Polatis48.ReconfigTime,
	}
	cfg.Bricks.Compute = brick.ComputeConfig{Cores: 8, LocalMemory: 32 * brick.GiB}
	cfg.Bricks.Memory = brick.MemoryConfig{Capacity: 64 * brick.GiB}
	// A throughput sweep balances load: spread is the policy whose rack
	// choice the pod tier's free-capacity aggregates accelerate.
	cfg.SDM.Policy = sdm.PolicySpread
	return cfg
}

// RunFig10Pod runs the paper's Fig. 10 scale-up concurrency sweep at
// pod scale — the ROADMAP "Pod-scale Fig. 10" item. For each
// concurrency level, a burst of simultaneous scale-up requests is
// served twice over the same aggregate inventory of N racks:
//
//   - sharded: a pod of N racks, each with its own autonomous SDM
//     controller and request queue, VMs balanced across racks by the
//     pod tier's spread policy;
//   - global: one monolithic rack holding all N racks' bricks behind a
//     single SDM controller, whose one queue serializes every request.
//
// Reported per level: the per-VM average scale-up delay and the
// placement throughput (requests over the burst's virtual makespan).
// The two sides are independent simulations, so they fan out across
// the worker pool; each derives its randomness from TrialSeed(seed,
// side) and the result is bit-identical for every worker count.
func RunFig10Pod(p Params) (Fig10PodResult, error) {
	racks := p.Racks
	if racks == 0 {
		racks = defaultFig10PodRacks
	}
	if racks < 2 {
		return Fig10PodResult{}, fmt.Errorf("fig10pod needs at least 2 racks, got %d", racks)
	}
	res := Fig10PodResult{Racks: racks, StepSize: fig10PodStep}
	rows := make([]Fig10PodRow, len(fig10PodConcurrencies))
	sides := make([][]fig10PodLevel, 2)
	err := ForEach(p.Workers, 2, func(side int) error {
		var ls []fig10PodLevel
		var err error
		if side == 0 {
			ls, err = runFig10PodSharded(p.Seed, racks, p.Batch || p.Pipeline > 1, p.BatchSize, p.Pipeline)
		} else {
			ls, err = runFig10PodGlobal(p.Seed, racks)
		}
		sides[side] = ls
		return err
	})
	if err != nil {
		return Fig10PodResult{}, err
	}
	for i, conc := range fig10PodConcurrencies {
		rows[i] = Fig10PodRow{
			Concurrency:           conc,
			ShardedAvgS:           sides[0][i].avgS,
			GlobalAvgS:            sides[1][i].avgS,
			ShardedPlacementsPerS: sides[0][i].placementsPerS,
			GlobalPlacementsPerS:  sides[1][i].placementsPerS,
		}
	}
	res.Rows = rows
	return res, nil
}

// runFig10PodSharded runs every concurrency level against a pod of N
// racks. Levels share the pod (VMs accumulate; attachments are torn
// down between levels), mirroring a tenant population that grows.
//
// With batch set, boots go through core.Pod.CreateVMs and the measured
// scale-up bursts through sdm.PodScheduler.AdmitBatch — the batched
// group-commit admission engine — in groups of batchSize (0 = the whole
// burst), with the per-VM hotplug bound through the scale-up
// controller's BindAttachment. At batchSize 1 this is byte-identical
// to the per-request path. With pipeline > 1 the boot chunks go
// through a core.BatchPipeline of that depth and drain before the
// measured burst — placement and artifact stay byte-identical to the
// unpipelined batch run.
func runFig10PodSharded(seed uint64, racks int, batch bool, batchSize, pipeline int) ([]fig10PodLevel, error) {
	cfg := core.DefaultPodConfig(racks)
	cfg.Rack = fig10PodRackSpec()
	cfg.Rack.Seed = seed
	// Keep the rack sweep unbounded by the stock pod switch: above the
	// default 384-port radix the sweep provisions a larger switch with
	// the same per-port profile, preserving the per-rack uplink budget.
	if need := racks * cfg.Fabric.UplinksPerRack; need > cfg.Fabric.Switch.Ports {
		cfg.Fabric.Switch.Ports = need
	}
	pod, err := core.NewPod(cfg)
	if err != nil {
		return nil, err
	}
	var pipe *core.BatchPipeline
	if pipeline > 1 {
		if pipe, err = core.NewBatchPipeline(pod, pipeline); err != nil {
			return nil, err
		}
	}
	rng := sim.NewRand(TrialSeed(seed, 0))
	pod.Scheduler().PowerOnAll()

	out := make([]fig10PodLevel, 0, len(fig10PodConcurrencies))
	base := sim.Time(0)
	for li, conc := range fig10PodConcurrencies {
		chunk := conc
		if batch && batchSize > 0 {
			chunk = batchSize
		}
		// Boot this level's fleet; the pod tier's spread policy balances
		// the VMs across the rack shards.
		type vmRef struct {
			id   hypervisor.VMID
			rack int
		}
		vms := make([]vmRef, 0, conc)
		if batch {
			for lo := 0; lo < conc; lo += chunk {
				hi := lo + chunk
				if hi > conc {
					hi = conc
				}
				boots := make([]core.VMCreate, 0, hi-lo)
				for i := lo; i < hi; i++ {
					boots = append(boots, core.VMCreate{
						ID: fmt.Sprintf("c%02dv%02d", conc, i), VCPUs: 1, Memory: 2 * brick.GiB,
					})
				}
				if pipe != nil {
					if _, err := pipe.CreateVMs(boots); err != nil {
						return nil, fmt.Errorf("fig10pod sharded batch boot: %w", err)
					}
				} else if _, err := pod.CreateVMs(boots, 0); err != nil {
					return nil, fmt.Errorf("fig10pod sharded batch boot: %w", err)
				}
			}
			if pipe != nil {
				// The measured scale-ups target booted VMs: land every
				// in-flight boot before the burst.
				pipe.Drain()
			}
			for i := 0; i < conc; i++ {
				id := fmt.Sprintf("c%02dv%02d", conc, i)
				rack, _ := pod.VMRack(id)
				vms = append(vms, vmRef{id: hypervisor.VMID(id), rack: rack})
			}
		} else {
			for i := 0; i < conc; i++ {
				id := fmt.Sprintf("c%02dv%02d", conc, i)
				if _, err := pod.CreateVM(id, 1, 2*brick.GiB); err != nil {
					return nil, fmt.Errorf("fig10pod sharded boot %s: %w", id, err)
				}
				rack, _ := pod.VMRack(id)
				vms = append(vms, vmRef{id: hypervisor.VMID(id), rack: rack})
			}
		}
		base = base.Add(sim.Duration((li + 1) * int(sim.Hour)))

		arrivals, err := workload.Burst(rng, conc, base, 0)
		if err != nil {
			return nil, err
		}
		var sum float64
		var lastDone sim.Time
		if batch {
			sched := pod.Scheduler()
			for lo := 0; lo < conc; lo += chunk {
				hi := lo + chunk
				if hi > conc {
					hi = conc
				}
				areqs := make([]sdm.AdmitRequest, 0, hi-lo)
				for i := lo; i < hi; i++ {
					v := vms[i]
					ctl, _ := pod.ScaleController(v.rack)
					host, _ := ctl.VMHost(v.id)
					areqs = append(areqs, sdm.AdmitRequest{
						Owner: string(v.id), Remote: fig10PodStep, CPU: host, Rack: v.rack,
					})
				}
				admitted, err := sched.AdmitBatch(areqs)
				if err != nil {
					return nil, fmt.Errorf("fig10pod sharded batch scale-up: %w", err)
				}
				for k, res := range admitted {
					i := lo + k
					v := vms[i]
					ctl, _ := pod.ScaleController(v.rack)
					r, err := ctl.BindAttachment(arrivals[i], v.id, res.Att, res.AttachLat)
					if err != nil {
						return nil, fmt.Errorf("fig10pod sharded batch bind %s: %w", v.id, err)
					}
					sum += r.Delay().Seconds()
					if r.Done > lastDone {
						lastDone = r.Done
					}
				}
			}
		} else {
			for i, at := range arrivals {
				v := vms[i]
				ctl, _ := pod.ScaleController(v.rack)
				r, err := ctl.ScaleUpVia(at, v.id, fig10PodStep,
					func(owner string, cpu topo.BrickID, size brick.Bytes) (*sdm.Attachment, sim.Duration, error) {
						return pod.Scheduler().AttachRemoteMemory(owner, topo.PodBrickID{Rack: v.rack, Brick: cpu}, size)
					})
				if err != nil {
					return nil, fmt.Errorf("fig10pod sharded scale-up %s: %w", v.id, err)
				}
				sum += r.Delay().Seconds()
				if r.Done > lastDone {
					lastDone = r.Done
				}
			}
		}
		makespan := lastDone.Sub(base).Seconds()
		out = append(out, fig10PodLevel{
			avgS:           sum / float64(conc),
			placementsPerS: float64(conc) / makespan,
		})

		// Tear the attachments down so ports and segments are free for
		// the next level (the VMs themselves stay).
		base = base.Add(sim.Duration(sim.Hour))
		downs, err := workload.Burst(rng, conc, base, 0)
		if err != nil {
			return nil, err
		}
		for i, at := range downs {
			v := vms[i]
			ctl, _ := pod.ScaleController(v.rack)
			if _, err := ctl.ScaleDown(at, v.id, fig10PodStep); err != nil {
				return nil, fmt.Errorf("fig10pod sharded scale-down %s: %w", v.id, err)
			}
		}
	}
	return out, nil
}

// runFig10PodGlobal runs the same levels against one monolithic rack
// holding the whole pod's bricks behind a single SDM controller.
func runFig10PodGlobal(seed uint64, racks int) ([]fig10PodLevel, error) {
	cfg := fig10PodRackSpec()
	cfg.Seed = seed
	cfg.Topology.Trays *= racks
	cfg.Switch.Ports *= racks
	dc, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRand(TrialSeed(seed, 1))
	dc.SDM().PowerOnAll()
	ctl := dc.ScaleController()

	out := make([]fig10PodLevel, 0, len(fig10PodConcurrencies))
	base := sim.Time(0)
	for li, conc := range fig10PodConcurrencies {
		ids := make([]hypervisor.VMID, 0, conc)
		for i := 0; i < conc; i++ {
			id := hypervisor.VMID(fmt.Sprintf("c%02dv%02d", conc, i))
			if _, _, err := ctl.CreateVM(0, id, hypervisor.VMSpec{VCPUs: 1, Memory: 2 * brick.GiB}); err != nil {
				return nil, fmt.Errorf("fig10pod global boot %s: %w", id, err)
			}
			ids = append(ids, id)
		}
		base = base.Add(sim.Duration((li + 1) * int(sim.Hour)))

		arrivals, err := workload.Burst(rng, conc, base, 0)
		if err != nil {
			return nil, err
		}
		var sum float64
		var lastDone sim.Time
		for i, at := range arrivals {
			r, err := ctl.ScaleUp(at, ids[i], fig10PodStep)
			if err != nil {
				return nil, fmt.Errorf("fig10pod global scale-up %s: %w", ids[i], err)
			}
			sum += r.Delay().Seconds()
			if r.Done > lastDone {
				lastDone = r.Done
			}
		}
		makespan := lastDone.Sub(base).Seconds()
		out = append(out, fig10PodLevel{
			avgS:           sum / float64(conc),
			placementsPerS: float64(conc) / makespan,
		})

		base = base.Add(sim.Duration(sim.Hour))
		downs, err := workload.Burst(rng, conc, base, 0)
		if err != nil {
			return nil, err
		}
		for i, at := range downs {
			if _, err := ctl.ScaleDown(at, ids[i], fig10PodStep); err != nil {
				return nil, fmt.Errorf("fig10pod global scale-down %s: %w", ids[i], err)
			}
		}
	}
	return out, nil
}

// Format renders the sweep as text.
func (r Fig10PodResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pod-scale Fig. 10 — scale-up bursts against %d rack shards vs one global SDM (step %v; delay lower / placements/s higher is better)\n\n",
		r.Racks, r.StepSize)
	t := stats.NewTable("concurrency", "sharded avg s", "global avg s", "sharded placements/s", "global placements/s", "sharding speedup")
	for _, row := range r.Rows {
		t.AddRowf("%d VMs|%.3f|%.3f|%.1f|%.1f|%.1fx",
			row.Concurrency, row.ShardedAvgS, row.GlobalAvgS,
			row.ShardedPlacementsPerS, row.GlobalPlacementsPerS, row.Speedup())
	}
	b.WriteString(t.String())
	b.WriteString("\nshape: per-rack SDM controllers serve bursts in parallel, so per-VM delay stays near the single-request cost while the global controller's one queue stretches it with concurrency.\n")
	return b.String()
}

// artifact packages the typed result for the registry. The leading
// racks column makes per-rack-count CSVs concatenable into one
// saturation chart (`make saturation`).
func (r Fig10PodResult) artifact() Result {
	csv := make([][]string, 0, 1+len(r.Rows))
	csv = append(csv, []string{"racks", "concurrency", "sharded_avg_s", "global_avg_s", "sharded_placements_per_s", "global_placements_per_s", "speedup"})
	for _, row := range r.Rows {
		csv = append(csv, []string{
			strconv.Itoa(r.Racks),
			strconv.Itoa(row.Concurrency),
			fmtF(row.ShardedAvgS), fmtF(row.GlobalAvgS),
			fmtF(row.ShardedPlacementsPerS), fmtF(row.GlobalPlacementsPerS),
			fmtF(row.Speedup()),
		})
	}
	var metrics []Metric
	if len(r.Rows) > 0 {
		top := r.Rows[0]
		metrics = []Metric{
			{Name: "racks", Value: float64(r.Racks)},
			{Name: "sharded32-avg-s", Value: top.ShardedAvgS},
			{Name: "global32-avg-s", Value: top.GlobalAvgS},
			{Name: "sharded32-placements/s", Value: top.ShardedPlacementsPerS},
			{Name: "global32-placements/s", Value: top.GlobalPlacementsPerS},
			{Name: "sharding-speedup-x", Value: top.Speedup()},
		}
	}
	return Result{Text: r.Format(), Metrics: metrics, CSV: csv}
}
