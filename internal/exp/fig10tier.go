package exp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/optical"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// The Fig. 10 tier sweeps re-run the paper's Fig. 10 scale-up bursts
// one tier up (fig10pod) and two tiers up (fig10row): each level is
// served by a sharded arm and by the baseline it is measured against,
// through one level loop over a small adapter per facade, and reported
// through one result type whose words come from a two-entry table.

// The sweeps' sizes when Params.Racks / Params.Pods are zero, the
// per-request scale-up increment, and every VM's boot memory (each
// boots with 1 vCPU).
const (
	defaultFig10PodRacks = 4
	defaultFig10RowPods  = 2
	defaultFig10RowRacks = 4
	fig10TierStep        = 2 * brick.GiB
	fig10TierVMMemory    = 2 * brick.GiB
)

// fig10TierText are the words that tell fig10pod's and fig10row's
// artifacts and errors apart.
type fig10TierText struct {
	name    string    // the registry name, leading every error label
	header  string    // the title, from pods, racks per pod, racks and step
	sides   [2]string // the sharded arm and the baseline
	speedup string    // the speedup column and metric
	// sizeCols and sizeMetrics name the leading CSV columns and metrics:
	// racks, or pods then racks per pod.
	sizeCols, sizeMetrics []string
	shape                 string
}

var (
	fig10PodText = fig10TierText{
		name:        "fig10pod",
		header:      "Pod-scale Fig. 10 — scale-up bursts against %[2]d rack shards vs one global SDM (step %[4]v; delay lower / placements/s higher is better)\n\n",
		sides:       [2]string{"sharded", "global"},
		speedup:     "sharding",
		sizeCols:    []string{"racks"},
		sizeMetrics: []string{"racks"},
		shape:       "per-rack SDM controllers serve bursts in parallel, so per-VM delay stays near the single-request cost while the global controller's one queue stretches it with concurrency.",
	}
	fig10RowText = fig10TierText{
		name:        "fig10row",
		header:      "Row-scale Fig. 10 — scale-up bursts against %[1]d pods x %[2]d racks vs one flat %[3]d-rack pod (step %[4]v; delay lower / placements/s higher is better)\n\n",
		sides:       [2]string{"row", "flat"},
		speedup:     "row",
		sizeCols:    []string{"pods", "racks"},
		sizeMetrics: []string{"pods", "racks-per-pod"},
		shape:       "pod choice is O(1) arithmetic on the recursive aggregates and pod shards plan in parallel, so the row holds its per-VM delay while the flat tier's rack choice walks the whole inventory.",
	}
)

// Fig10TierLevel is one concurrency level measured on one arm: the
// per-VM average scale-up delay and the virtual placement throughput
// (requests over the burst's makespan).
type Fig10TierLevel struct {
	AvgS           float64
	PlacementsPerS float64
}

// Fig10TierRow is one concurrency level of a tier sweep: the sharded
// arm against its baseline over the same aggregate inventory.
type Fig10TierRow struct {
	Concurrency int
	Sharded     Fig10TierLevel // rack shards of a pod, pod shards of a row
	Base        Fig10TierLevel // one global SDM, one flat pod
}

// Speedup returns the sharded-over-baseline throughput ratio.
func (r Fig10TierRow) Speedup() float64 {
	if r.Base.PlacementsPerS == 0 {
		return 0
	}
	return r.Sharded.PlacementsPerS / r.Base.PlacementsPerS
}

// Fig10TierResult holds a fig10pod or fig10row sweep.
type Fig10TierResult struct {
	Pods     int // the sharded arm's pods: 1 for fig10pod
	Racks    int // racks per pod
	StepSize brick.Bytes
	Rows     []Fig10TierRow
	text     *fig10TierText
}

// Fig10PodRackSpec is the per-rack inventory of the Fig. 10 sweeps: 4
// compute bricks (8 cores, 32 GiB local) and 4 memory bricks (64 GiB)
// behind a 64-port switch, under the spread policy.
func Fig10PodRackSpec() core.Config {
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
// pod scale. For each concurrency level, a burst of simultaneous
// scale-up requests is served twice over the same aggregate inventory
// of N racks:
//
//   - sharded: a pod of N racks, each with its own autonomous SDM
//     controller and request queue, VMs balanced across racks by the
//     pod tier's spread policy;
//   - global: one monolithic rack holding all N racks' bricks behind a
//     single SDM controller, whose one queue serializes every request.
func RunFig10Pod(p Params) (Fig10TierResult, error) {
	racks := p.Racks
	if racks == 0 {
		racks = defaultFig10PodRacks
	}
	if racks < 2 {
		return Fig10TierResult{}, fmt.Errorf("fig10pod needs at least 2 racks, got %d", racks)
	}
	return runFig10Tier(p, &fig10PodText, 1, racks,
		func(seed uint64) (fig10Batcher, error) { return newFig10Pod(seed, racks) },
		func(seed uint64) (fig10Arm, error) { return newFig10Global(seed, racks) })
}

// RunFig10Row runs the Fig. 10 scale-up concurrency sweep at row
// scale. For each concurrency level, a burst of simultaneous scale-up
// requests is served twice over the same aggregate inventory of P pods
// x R racks:
//
//   - row: a hierarchical row, pod choice by the O(1) recursive
//     aggregates and bursts group-committed across pod shards;
//   - flat: one pod holding all P*R racks behind a single pod
//     scheduler, every rack choice scanning one flat tier.
func RunFig10Row(p Params) (Fig10TierResult, error) {
	pods := p.Pods
	if pods == 0 {
		pods = defaultFig10RowPods
	}
	if pods < 2 {
		return Fig10TierResult{}, fmt.Errorf("fig10row needs at least 2 pods, got %d", pods)
	}
	racks := p.Racks
	if racks == 0 {
		racks = defaultFig10RowRacks
	}
	if racks < 2 {
		return Fig10TierResult{}, fmt.Errorf("fig10row needs at least 2 racks per pod, got %d", racks)
	}
	return runFig10Tier(p, &fig10RowText, pods, racks,
		func(seed uint64) (fig10Batcher, error) { return newFig10Row(seed, pods, racks) },
		func(seed uint64) (fig10Arm, error) { return newFig10Pod(seed, pods*racks) })
}

// runFig10Tier runs the sharded arm (side 0) and the baseline (side 1)
// through the level loop as independent simulations: they fan out
// across the worker pool, each seeded from TrialSeed(seed, side), so
// the result is bit-identical for every worker count. Params.Batch or
// Params.Pipeline > 1 route the sharded arm through group commits; the
// baseline always runs per request.
func runFig10Tier(p Params, text *fig10TierText, pods, racks int,
	sharded func(seed uint64) (fig10Batcher, error), base func(seed uint64) (fig10Arm, error)) (Fig10TierResult, error) {
	var levels [2][]Fig10TierLevel
	err := ForEach(p.Workers, 2, func(side int) error {
		s := fig10Sweep{
			label: text.name + " " + text.sides[side],
			rng:   sim.NewRand(TrialSeed(p.Seed, uint64(side))),
		}
		var err error
		if side == 0 {
			var arm fig10Batcher
			if arm, err = sharded(p.Seed); err != nil {
				return err
			}
			s.arm = arm
			if p.Batch || p.Pipeline > 1 {
				// At depth 0 or 1 the pipeline is the facade's own CreateVMs.
				s.group, s.chunk = arm, p.BatchSize
				if s.pipe, err = core.NewBatchPipeline(arm, p.Pipeline); err != nil {
					return err
				}
			}
		} else if s.arm, err = base(p.Seed); err != nil {
			return err
		}
		levels[side], err = s.run()
		return err
	})
	if err != nil {
		return Fig10TierResult{}, err
	}
	res := Fig10TierResult{Pods: pods, Racks: racks, StepSize: fig10TierStep, text: text}
	for i, conc := range fig10Concurrencies {
		res.Rows = append(res.Rows, Fig10TierRow{Concurrency: conc, Sharded: levels[0][i], Base: levels[1][i]})
	}
	return res, nil
}

// fig10VM is one booted VM of a level: its home pod and rack, and that
// rack's Scale-up controller.
type fig10VM struct {
	id        hypervisor.VMID
	pod, rack int
	ctl       *scaleup.Controller
}

// fig10Arm is one side of a tier sweep as the level loop drives it: a
// core.Pod, a core.Row or a core.Datacenter.
type fig10Arm interface {
	// CreateVM boots one VM by the per-request path.
	CreateVM(id string, vcpus int, memory brick.Bytes) (scaleup.Result, error)
	// locate finds a booted VM.
	locate(id string) fig10VM
	// scaleUp serves one per-request scale-up of fig10TierStep.
	scaleUp(at sim.Time, v fig10VM) (scaleup.Result, error)
}

// fig10Batcher is an arm that also serves the group-commit path: boots
// through a core.BatchPipeline over its CreateVMs and scale-ups
// through its scheduler's AdmitBatch.
type fig10Batcher interface {
	fig10Arm
	core.PipelineTarget
	admitBatch(reqs []sdm.AdmitRequest) ([]sdm.AdmitResult, error)
}

// fig10Pod is a core.Pod under the sweep: fig10pod's sharded arm and
// fig10row's flat baseline.
type fig10Pod struct{ *core.Pod }

// fig10PodConfig is a pod of racks Fig. 10 racks. It keeps a rack
// sweep unbounded by the stock pod switch: above the default 384-port
// radix it provisions a larger switch with the same per-port profile,
// preserving the per-rack uplink budget.
func fig10PodConfig(seed uint64, racks int) core.PodConfig {
	cfg := core.DefaultPodConfig(racks)
	cfg.Rack = Fig10PodRackSpec()
	cfg.Rack.Seed = seed
	if need := racks * cfg.Fabric.UplinksPerRack; need > cfg.Fabric.Switch.Ports {
		cfg.Fabric.Switch.Ports = need
	}
	return cfg
}

// newFig10Pod assembles a pod of racks Fig. 10 racks, powered on.
func newFig10Pod(seed uint64, racks int) (fig10Pod, error) {
	pod, err := core.NewPod(fig10PodConfig(seed, racks))
	if err != nil {
		return fig10Pod{}, err
	}
	pod.Scheduler().PowerOnAll()
	return fig10Pod{pod}, nil
}

func (a fig10Pod) locate(id string) fig10VM {
	rack, _ := a.VMRack(id)
	ctl, _ := a.ScaleController(rack)
	return fig10VM{id: hypervisor.VMID(id), rack: rack, ctl: ctl}
}

func (a fig10Pod) scaleUp(at sim.Time, v fig10VM) (scaleup.Result, error) {
	return v.ctl.ScaleUpVia(at, v.id, fig10TierStep,
		func(owner string, cpu topo.BrickID, size brick.Bytes) (*sdm.Attachment, sim.Duration, error) {
			return a.Scheduler().AttachRemoteMemory(owner, topo.PodBrickID{Rack: v.rack, Brick: cpu}, size)
		})
}

func (a fig10Pod) admitBatch(reqs []sdm.AdmitRequest) ([]sdm.AdmitResult, error) {
	return a.Scheduler().AdmitBatch(reqs)
}

// fig10Row is a core.Row under the sweep: fig10row's sharded arm.
type fig10Row struct{ *core.Row }

// newFig10Row assembles a row of pods x racks Fig. 10 racks, powered
// on, its pods and row switch sized like fig10PodConfig's.
func newFig10Row(seed uint64, pods, racks int) (fig10Row, error) {
	cfg := core.DefaultRowConfig(pods, racks)
	pod := fig10PodConfig(seed, racks)
	cfg.Rack, cfg.Fabric = pod.Rack, pod.Fabric
	if need := pods * cfg.Row.UplinksPerPod; need > cfg.Row.Switch.Ports {
		cfg.Row.Switch.Ports = need
	}
	row, err := core.NewRow(cfg)
	if err != nil {
		return fig10Row{}, err
	}
	row.Scheduler().PowerOnAll()
	return fig10Row{row}, nil
}

func (a fig10Row) locate(id string) fig10VM {
	pod, rack, _ := a.VMLoc(id)
	ctl, _ := a.ScaleController(pod, rack)
	return fig10VM{id: hypervisor.VMID(id), pod: pod, rack: rack, ctl: ctl}
}

func (a fig10Row) scaleUp(at sim.Time, v fig10VM) (scaleup.Result, error) {
	return v.ctl.ScaleUpVia(at, v.id, fig10TierStep,
		func(owner string, cpu topo.BrickID, size brick.Bytes) (*sdm.Attachment, sim.Duration, error) {
			return a.Scheduler().AttachRemoteMemory(owner, topo.RowBrickID{Pod: v.pod, Rack: v.rack, Brick: cpu}, size)
		})
}

func (a fig10Row) admitBatch(reqs []sdm.AdmitRequest) ([]sdm.AdmitResult, error) {
	return a.Scheduler().AdmitBatch(reqs)
}

// fig10Global is a core.Datacenter under the sweep: fig10pod's global
// baseline, one monolithic rack holding the whole pod's bricks behind
// a single SDM controller.
type fig10Global struct{ ctl *scaleup.Controller }

func newFig10Global(seed uint64, racks int) (fig10Global, error) {
	cfg := Fig10PodRackSpec()
	cfg.Seed = seed
	cfg.Topology.Trays *= racks
	cfg.Switch.Ports *= racks
	dc, err := core.New(cfg)
	if err != nil {
		return fig10Global{}, err
	}
	dc.SDM().PowerOnAll()
	return fig10Global{dc.ScaleController()}, nil
}

// CreateVM posts every boot at time zero, straight to the one Scale-up
// controller.
func (a fig10Global) CreateVM(id string, vcpus int, memory brick.Bytes) (scaleup.Result, error) {
	_, res, err := a.ctl.CreateVM(0, hypervisor.VMID(id), hypervisor.VMSpec{VCPUs: vcpus, Memory: memory})
	return res, err
}

func (a fig10Global) locate(id string) fig10VM {
	return fig10VM{id: hypervisor.VMID(id), ctl: a.ctl}
}

func (a fig10Global) scaleUp(at sim.Time, v fig10VM) (scaleup.Result, error) {
	return v.ctl.ScaleUp(at, v.id, fig10TierStep)
}

// fig10Sweep is one arm's run through the levels.
type fig10Sweep struct {
	arm   fig10Arm
	label string // the error label, e.g. "fig10pod sharded"
	rng   *sim.Rand
	// group, when set, serves the boots (through pipe) and the measured
	// scale-ups in group commits of chunk requests (0 = the whole level).
	group fig10Batcher
	chunk int
	pipe  *core.BatchPipeline
}

// run serves every concurrency level. Levels share the arm (VMs
// accumulate; attachments are torn down between levels), mirroring a
// tenant population that grows. The group-commit path is
// byte-identical to the per-request one at chunk 1, and pipelining
// leaves it byte-identical: placement is unchanged and the measured
// delays are arrival-relative.
func (s *fig10Sweep) run() ([]Fig10TierLevel, error) {
	out := make([]Fig10TierLevel, 0, len(fig10Concurrencies))
	base := sim.Time(0)
	for li, conc := range fig10Concurrencies {
		chunk := conc
		if s.chunk > 0 {
			chunk = s.chunk
		}
		vms, err := s.boot(conc, chunk)
		if err != nil {
			return nil, err
		}
		base = base.Add(sim.Duration((li + 1) * int(sim.Hour)))

		arrivals, err := workload.Burst(s.rng, conc, base, 0)
		if err != nil {
			return nil, err
		}
		sum, lastDone, err := s.scaleUp(vms, arrivals, chunk)
		if err != nil {
			return nil, err
		}
		makespan := lastDone.Sub(base).Seconds()
		out = append(out, Fig10TierLevel{AvgS: sum / float64(conc), PlacementsPerS: float64(conc) / makespan})

		// Tear the attachments down so ports and segments are free for
		// the next level (the VMs themselves stay).
		base = base.Add(sim.Duration(sim.Hour))
		downs, err := workload.Burst(s.rng, conc, base, 0)
		if err != nil {
			return nil, err
		}
		for i, at := range downs {
			if _, err := vms[i].ctl.ScaleDown(at, vms[i].id, fig10TierStep); err != nil {
				return nil, fmt.Errorf("%s scale-down %s: %w", s.label, vms[i].id, err)
			}
		}
	}
	return out, nil
}

// boot boots a level's fleet of conc VMs and locates each; the sharded
// arms' spread policy balances them across the shards.
func (s *fig10Sweep) boot(conc, chunk int) ([]fig10VM, error) {
	ids := make([]string, conc)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%02dv%02d", conc, i)
	}
	if s.group == nil {
		for _, id := range ids {
			if _, err := s.arm.CreateVM(id, 1, fig10TierVMMemory); err != nil {
				return nil, fmt.Errorf("%s boot %s: %w", s.label, id, err)
			}
		}
	} else {
		for lo := 0; lo < conc; lo += chunk {
			boots := make([]core.VMCreate, 0, chunk)
			for _, id := range ids[lo:min(lo+chunk, conc)] {
				boots = append(boots, core.VMCreate{ID: id, VCPUs: 1, Memory: fig10TierVMMemory})
			}
			if _, err := s.pipe.CreateVMs(boots); err != nil {
				return nil, fmt.Errorf("%s batch boot: %w", s.label, err)
			}
		}
		// The measured scale-ups target booted VMs: land every in-flight
		// boot before the burst.
		s.pipe.Drain()
	}
	vms := make([]fig10VM, conc)
	for i, id := range ids {
		vms[i] = s.arm.locate(id)
	}
	return vms, nil
}

// scaleUp serves the measured burst, one scale-up per VM at its
// arrival, and returns the summed delay and the last completion.
func (s *fig10Sweep) scaleUp(vms []fig10VM, arrivals []sim.Time, chunk int) (sum float64, lastDone sim.Time, err error) {
	record := func(r scaleup.Result) {
		sum += r.Delay().Seconds()
		if r.Done > lastDone {
			lastDone = r.Done
		}
	}
	if s.group == nil {
		for i, at := range arrivals {
			r, err := s.arm.scaleUp(at, vms[i])
			if err != nil {
				return 0, 0, fmt.Errorf("%s scale-up %s: %w", s.label, vms[i].id, err)
			}
			record(r)
		}
		return sum, lastDone, nil
	}
	for lo := 0; lo < len(vms); lo += chunk {
		hi := min(lo+chunk, len(vms))
		areqs := make([]sdm.AdmitRequest, 0, hi-lo)
		for _, v := range vms[lo:hi] {
			host, _ := v.ctl.VMHost(v.id)
			areqs = append(areqs, sdm.AdmitRequest{
				Owner: string(v.id), Remote: fig10TierStep, CPU: host, Rack: v.rack, Pod: v.pod,
			})
		}
		admitted, err := s.group.admitBatch(areqs)
		if err != nil {
			return 0, 0, fmt.Errorf("%s batch scale-up: %w", s.label, err)
		}
		for k, res := range admitted {
			v := vms[lo+k]
			r, err := v.ctl.BindAttachment(arrivals[lo+k], v.id, res.Att, res.AttachLat)
			if err != nil {
				return 0, 0, fmt.Errorf("%s batch bind %s: %w", s.label, v.id, err)
			}
			record(r)
		}
	}
	return sum, lastDone, nil
}

// Format renders the sweep as text.
func (r Fig10TierResult) Format() string {
	w := r.text
	var b strings.Builder
	fmt.Fprintf(&b, w.header, r.Pods, r.Racks, r.Pods*r.Racks, r.StepSize)
	t := stats.NewTable("concurrency", w.sides[0]+" avg s", w.sides[1]+" avg s",
		w.sides[0]+" placements/s", w.sides[1]+" placements/s", w.speedup+" speedup")
	for _, row := range r.Rows {
		t.AddRowf("%d VMs|%.3f|%.3f|%.1f|%.1f|%.1fx",
			row.Concurrency, row.Sharded.AvgS, row.Base.AvgS,
			row.Sharded.PlacementsPerS, row.Base.PlacementsPerS, row.Speedup())
	}
	b.WriteString(t.String())
	b.WriteString("\nshape: " + w.shape + "\n")
	return b.String()
}

// artifact packages the typed result for the registry. The leading
// size columns make per-size CSVs concatenable into one saturation
// chart (`make saturation`, `make saturation-row`).
func (r Fig10TierResult) artifact() Result {
	w := r.text
	// The size values, last-aligned with the text's size names.
	sizes := []int{r.Pods, r.Racks}[2-len(w.sizeCols):]
	header := append(slices.Clone(w.sizeCols), "concurrency", w.sides[0]+"_avg_s", w.sides[1]+"_avg_s",
		w.sides[0]+"_placements_per_s", w.sides[1]+"_placements_per_s", "speedup")
	csv := [][]string{header}
	for _, row := range r.Rows {
		line := make([]string, 0, len(header))
		for _, n := range sizes {
			line = append(line, strconv.Itoa(n))
		}
		csv = append(csv, append(line,
			strconv.Itoa(row.Concurrency),
			fmtF(row.Sharded.AvgS), fmtF(row.Base.AvgS),
			fmtF(row.Sharded.PlacementsPerS), fmtF(row.Base.PlacementsPerS),
			fmtF(row.Speedup())))
	}
	var metrics []Metric
	if len(r.Rows) > 0 {
		top := r.Rows[0]
		for i, name := range w.sizeMetrics {
			metrics = append(metrics, Metric{Name: name, Value: float64(sizes[i])})
		}
		metrics = append(metrics,
			Metric{Name: fmt.Sprintf("%s%d-avg-s", w.sides[0], top.Concurrency), Value: top.Sharded.AvgS},
			Metric{Name: fmt.Sprintf("%s%d-avg-s", w.sides[1], top.Concurrency), Value: top.Base.AvgS},
			Metric{Name: fmt.Sprintf("%s%d-placements/s", w.sides[0], top.Concurrency), Value: top.Sharded.PlacementsPerS},
			Metric{Name: fmt.Sprintf("%s%d-placements/s", w.sides[1], top.Concurrency), Value: top.Base.PlacementsPerS},
			Metric{Name: w.speedup + "-speedup-x", Value: top.Speedup()})
	}
	return Result{Text: r.Format(), Metrics: metrics, CSV: csv}
}
