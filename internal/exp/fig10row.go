package exp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// fig10RowConcurrencies are the paper's Fig. 10 bar groups, re-run at
// row scale.
var fig10RowConcurrencies = []int{32, 16, 8}

// defaultFig10RowPods and defaultFig10RowRacks size the row when
// Params.Pods / Params.Racks are zero. The saturation sweep
// (`make saturation-row`) passes -pods 8/16/32 with -racks 32 for the
// 256-1024 rack datacenter-scale points.
const (
	defaultFig10RowPods  = 2
	defaultFig10RowRacks = 4
)

// fig10RowStep is the per-request scale-up increment.
const fig10RowStep = 2 * brick.GiB

// Fig10RowRow is one concurrency level of the row-scale sweep: the
// per-VM average scale-up delay and the virtual placement throughput,
// for the hierarchical row (pods of rack shards behind the recursive
// O(1) aggregates) against one flat pod holding the same aggregate
// rack inventory behind a single pod scheduler.
type Fig10RowRow struct {
	Concurrency        int
	RowAvgS            float64 // per-VM avg scale-up delay, hierarchical row
	FlatAvgS           float64 // per-VM avg scale-up delay, one flat pod
	RowPlacementsPerS  float64 // placements/s over the burst makespan
	FlatPlacementsPerS float64
}

// Speedup returns the row-over-flat throughput ratio.
func (r Fig10RowRow) Speedup() float64 {
	if r.FlatPlacementsPerS == 0 {
		return 0
	}
	return r.RowPlacementsPerS / r.FlatPlacementsPerS
}

// fig10RowLevel is one concurrency level's measurement on one side.
type fig10RowLevel struct {
	avgS, placementsPerS float64
}

// Fig10RowResult holds the row-scale Fig. 10 sweep.
type Fig10RowResult struct {
	Pods     int
	Racks    int // racks per pod
	StepSize brick.Bytes
	Rows     []Fig10RowRow
}

// RunFig10Row runs the Fig. 10 scale-up concurrency sweep at row
// scale — the ROADMAP "row tier" item. For each concurrency level, a
// burst of simultaneous scale-up requests is served twice over the
// same aggregate inventory of P pods x R racks:
//
//   - row: a hierarchical row, pod choice by the O(1) recursive
//     aggregates and bursts group-committed across pod shards;
//   - flat: one pod holding all P*R racks behind a single pod
//     scheduler, every rack choice scanning one flat tier.
//
// Reported per level: the per-VM average scale-up delay and the
// placement throughput (requests over the burst's virtual makespan).
// The two sides are independent simulations, so they fan out across
// the worker pool; each derives its randomness from TrialSeed(seed,
// side) and the result is bit-identical for every worker count.
func RunFig10Row(p Params) (Fig10RowResult, error) {
	pods := p.Pods
	if pods == 0 {
		pods = defaultFig10RowPods
	}
	if pods < 2 {
		return Fig10RowResult{}, fmt.Errorf("fig10row needs at least 2 pods, got %d", pods)
	}
	racks := p.Racks
	if racks == 0 {
		racks = defaultFig10RowRacks
	}
	if racks < 2 {
		return Fig10RowResult{}, fmt.Errorf("fig10row needs at least 2 racks per pod, got %d", racks)
	}
	res := Fig10RowResult{Pods: pods, Racks: racks, StepSize: fig10RowStep}
	rows := make([]Fig10RowRow, len(fig10RowConcurrencies))
	sides := make([][]fig10RowLevel, 2)
	err := ForEach(p.Workers, 2, func(side int) error {
		var ls []fig10RowLevel
		var err error
		if side == 0 {
			ls, err = runFig10RowSharded(p.Seed, pods, racks, p.Batch || p.Pipeline > 1, p.BatchSize, p.Pipeline)
		} else {
			ls, err = runFig10RowFlat(p.Seed, pods, racks)
		}
		sides[side] = ls
		return err
	})
	if err != nil {
		return Fig10RowResult{}, err
	}
	for i, conc := range fig10RowConcurrencies {
		rows[i] = Fig10RowRow{
			Concurrency:        conc,
			RowAvgS:            sides[0][i].avgS,
			FlatAvgS:           sides[1][i].avgS,
			RowPlacementsPerS:  sides[0][i].placementsPerS,
			FlatPlacementsPerS: sides[1][i].placementsPerS,
		}
	}
	res.Rows = rows
	return res, nil
}

// fig10RowConfig sizes a row of pods x racks with the Fig. 10 rack
// inventory, growing the pod and row switches past their stock radix
// when the sweep demands it.
func fig10RowConfig(seed uint64, pods, racks int) core.RowConfig {
	cfg := core.DefaultRowConfig(pods, racks)
	cfg.Rack = fig10PodRackSpec()
	cfg.Rack.Seed = seed
	if need := racks * cfg.Fabric.UplinksPerRack; need > cfg.Fabric.Switch.Ports {
		cfg.Fabric.Switch.Ports = need
	}
	if need := pods * cfg.Row.UplinksPerPod; need > cfg.Row.Switch.Ports {
		cfg.Row.Switch.Ports = need
	}
	return cfg
}

// runFig10RowSharded runs every concurrency level against a
// hierarchical row. Levels share the row (VMs accumulate; attachments
// are torn down between levels), mirroring a tenant population that
// grows.
//
// With batch set, boots go through core.Row.CreateVMs and the measured
// scale-up bursts through sdm.RowScheduler.AdmitBatch — the pod-
// sharded group-commit engine — in groups of batchSize (0 = the whole
// burst). At batchSize 1 this is byte-identical to the per-request
// path. With pipeline > 1 the boot chunks additionally go through a
// core.BatchPipeline of that depth and drain before the measured
// scale-up burst; placement is identical and the measured delays are
// arrival-relative, so the artifact stays byte-identical to the
// unpipelined batch run — which is exactly what CI holds it to.
func runFig10RowSharded(seed uint64, pods, racks int, batch bool, batchSize, pipeline int) ([]fig10RowLevel, error) {
	rcfg := fig10RowConfig(seed, pods, racks)
	row, err := core.NewRow(rcfg)
	if err != nil {
		return nil, err
	}
	var pipe *core.BatchPipeline
	if pipeline > 1 {
		if pipe, err = core.NewBatchPipeline(row, pipeline); err != nil {
			return nil, err
		}
	}
	rng := sim.NewRand(TrialSeed(seed, 0))
	row.Scheduler().PowerOnAll()

	out := make([]fig10RowLevel, 0, len(fig10RowConcurrencies))
	base := sim.Time(0)
	for li, conc := range fig10RowConcurrencies {
		chunk := conc
		if batch && batchSize > 0 {
			chunk = batchSize
		}
		// Boot this level's fleet; the row tier's spread policy balances
		// the VMs across the pod shards.
		type vmRef struct {
			id        hypervisor.VMID
			pod, rack int
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
						return nil, fmt.Errorf("fig10row sharded batch boot: %w", err)
					}
				} else if _, err := row.CreateVMs(boots, 0); err != nil {
					return nil, fmt.Errorf("fig10row sharded batch boot: %w", err)
				}
			}
			if pipe != nil {
				// The measured scale-ups target booted VMs: land every
				// in-flight boot before the burst.
				pipe.Drain()
			}
		} else {
			for i := 0; i < conc; i++ {
				id := fmt.Sprintf("c%02dv%02d", conc, i)
				if _, err := row.CreateVM(id, 1, 2*brick.GiB); err != nil {
					return nil, fmt.Errorf("fig10row sharded boot %s: %w", id, err)
				}
			}
		}
		for i := 0; i < conc; i++ {
			id := fmt.Sprintf("c%02dv%02d", conc, i)
			pod, rack, _ := row.VMLoc(id)
			vms = append(vms, vmRef{id: hypervisor.VMID(id), pod: pod, rack: rack})
		}
		base = base.Add(sim.Duration((li + 1) * int(sim.Hour)))

		arrivals, err := workload.Burst(rng, conc, base, 0)
		if err != nil {
			return nil, err
		}
		var sum float64
		var lastDone sim.Time
		if batch {
			sched := row.Scheduler()
			for lo := 0; lo < conc; lo += chunk {
				hi := lo + chunk
				if hi > conc {
					hi = conc
				}
				areqs := make([]sdm.AdmitRequest, 0, hi-lo)
				for i := lo; i < hi; i++ {
					v := vms[i]
					ctl, _ := row.ScaleController(v.pod, v.rack)
					host, _ := ctl.VMHost(v.id)
					areqs = append(areqs, sdm.AdmitRequest{
						Owner: string(v.id), Remote: fig10RowStep, CPU: host, Rack: v.rack, Pod: v.pod,
					})
				}
				admitted, err := sched.AdmitBatch(areqs)
				if err != nil {
					return nil, fmt.Errorf("fig10row sharded batch scale-up: %w", err)
				}
				for k, res := range admitted {
					i := lo + k
					v := vms[i]
					ctl, _ := row.ScaleController(v.pod, v.rack)
					r, err := ctl.BindAttachment(arrivals[i], v.id, res.Att, res.AttachLat)
					if err != nil {
						return nil, fmt.Errorf("fig10row sharded batch bind %s: %w", v.id, err)
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
				ctl, _ := row.ScaleController(v.pod, v.rack)
				r, err := ctl.ScaleUpVia(at, v.id, fig10RowStep,
					func(owner string, cpu topo.BrickID, size brick.Bytes) (*sdm.Attachment, sim.Duration, error) {
						return row.Scheduler().AttachRemoteMemory(owner, topo.RowBrickID{Pod: v.pod, Rack: v.rack, Brick: cpu}, size)
					})
				if err != nil {
					return nil, fmt.Errorf("fig10row sharded scale-up %s: %w", v.id, err)
				}
				sum += r.Delay().Seconds()
				if r.Done > lastDone {
					lastDone = r.Done
				}
			}
		}
		makespan := lastDone.Sub(base).Seconds()
		out = append(out, fig10RowLevel{
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
			ctl, _ := row.ScaleController(v.pod, v.rack)
			if _, err := ctl.ScaleDown(at, v.id, fig10RowStep); err != nil {
				return nil, fmt.Errorf("fig10row sharded scale-down %s: %w", v.id, err)
			}
		}
	}
	return out, nil
}

// runFig10RowFlat runs the same levels against one flat pod holding
// all P*R racks behind a single pod scheduler — same aggregate
// inventory, no row tier.
func runFig10RowFlat(seed uint64, pods, racks int) ([]fig10RowLevel, error) {
	cfg := core.DefaultPodConfig(pods * racks)
	cfg.Rack = fig10PodRackSpec()
	cfg.Rack.Seed = seed
	if need := pods * racks * cfg.Fabric.UplinksPerRack; need > cfg.Fabric.Switch.Ports {
		cfg.Fabric.Switch.Ports = need
	}
	pod, err := core.NewPod(cfg)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRand(TrialSeed(seed, 1))
	pod.Scheduler().PowerOnAll()

	out := make([]fig10RowLevel, 0, len(fig10RowConcurrencies))
	base := sim.Time(0)
	for li, conc := range fig10RowConcurrencies {
		type vmRef struct {
			id   hypervisor.VMID
			rack int
		}
		vms := make([]vmRef, 0, conc)
		for i := 0; i < conc; i++ {
			id := fmt.Sprintf("c%02dv%02d", conc, i)
			if _, err := pod.CreateVM(id, 1, 2*brick.GiB); err != nil {
				return nil, fmt.Errorf("fig10row flat boot %s: %w", id, err)
			}
			rack, _ := pod.VMRack(id)
			vms = append(vms, vmRef{id: hypervisor.VMID(id), rack: rack})
		}
		base = base.Add(sim.Duration((li + 1) * int(sim.Hour)))

		arrivals, err := workload.Burst(rng, conc, base, 0)
		if err != nil {
			return nil, err
		}
		var sum float64
		var lastDone sim.Time
		for i, at := range arrivals {
			v := vms[i]
			ctl, _ := pod.ScaleController(v.rack)
			r, err := ctl.ScaleUpVia(at, v.id, fig10RowStep,
				func(owner string, cpu topo.BrickID, size brick.Bytes) (*sdm.Attachment, sim.Duration, error) {
					return pod.Scheduler().AttachRemoteMemory(owner, topo.PodBrickID{Rack: v.rack, Brick: cpu}, size)
				})
			if err != nil {
				return nil, fmt.Errorf("fig10row flat scale-up %s: %w", v.id, err)
			}
			sum += r.Delay().Seconds()
			if r.Done > lastDone {
				lastDone = r.Done
			}
		}
		makespan := lastDone.Sub(base).Seconds()
		out = append(out, fig10RowLevel{
			avgS:           sum / float64(conc),
			placementsPerS: float64(conc) / makespan,
		})

		base = base.Add(sim.Duration(sim.Hour))
		downs, err := workload.Burst(rng, conc, base, 0)
		if err != nil {
			return nil, err
		}
		for i, at := range downs {
			v := vms[i]
			ctl, _ := pod.ScaleController(v.rack)
			if _, err := ctl.ScaleDown(at, v.id, fig10RowStep); err != nil {
				return nil, fmt.Errorf("fig10row flat scale-down %s: %w", v.id, err)
			}
		}
	}
	return out, nil
}

// Format renders the sweep as text.
func (r Fig10RowResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Row-scale Fig. 10 — scale-up bursts against %d pods x %d racks vs one flat %d-rack pod (step %v; delay lower / placements/s higher is better)\n\n",
		r.Pods, r.Racks, r.Pods*r.Racks, r.StepSize)
	t := stats.NewTable("concurrency", "row avg s", "flat avg s", "row placements/s", "flat placements/s", "row speedup")
	for _, row := range r.Rows {
		t.AddRowf("%d VMs|%.3f|%.3f|%.1f|%.1f|%.1fx",
			row.Concurrency, row.RowAvgS, row.FlatAvgS,
			row.RowPlacementsPerS, row.FlatPlacementsPerS, row.Speedup())
	}
	b.WriteString(t.String())
	b.WriteString("\nshape: pod choice is O(1) arithmetic on the recursive aggregates and pod shards plan in parallel, so the row holds its per-VM delay while the flat tier's rack choice walks the whole inventory.\n")
	return b.String()
}

// artifact packages the typed result for the registry. The leading
// pods column makes per-pod-count CSVs concatenable into one
// saturation chart (`make saturation-row`).
func (r Fig10RowResult) artifact() Result {
	csv := make([][]string, 0, 1+len(r.Rows))
	csv = append(csv, []string{"pods", "racks", "concurrency", "row_avg_s", "flat_avg_s", "row_placements_per_s", "flat_placements_per_s", "speedup"})
	for _, row := range r.Rows {
		csv = append(csv, []string{
			strconv.Itoa(r.Pods),
			strconv.Itoa(r.Racks),
			strconv.Itoa(row.Concurrency),
			fmtF(row.RowAvgS), fmtF(row.FlatAvgS),
			fmtF(row.RowPlacementsPerS), fmtF(row.FlatPlacementsPerS),
			fmtF(row.Speedup()),
		})
	}
	var metrics []Metric
	if len(r.Rows) > 0 {
		top := r.Rows[0]
		metrics = []Metric{
			{Name: "pods", Value: float64(r.Pods)},
			{Name: "racks-per-pod", Value: float64(r.Racks)},
			{Name: "row32-avg-s", Value: top.RowAvgS},
			{Name: "flat32-avg-s", Value: top.FlatAvgS},
			{Name: "row32-placements/s", Value: top.RowPlacementsPerS},
			{Name: "flat32-placements/s", Value: top.FlatPlacementsPerS},
			{Name: "row-speedup-x", Value: top.Speedup()},
		}
	}
	return Result{Text: r.Format(), Metrics: metrics, CSV: csv}
}
