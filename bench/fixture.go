package main

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/optical"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/topo"
)

// workload is one benchmark input family. A workload with pods > 0 runs
// against a row of pods × racks; otherwise against a pod of racks.
type workload struct {
	name string
	open bool // open loop (arrivals on a schedule) instead of closed
	// procs, when set, is the GOMAXPROCS the workload runs at instead of
	// the default (every processor); README.md gives row-poisson's reason.
	procs  int
	pods   int
	racks  int
	policy sdm.Policy
	// hot is the number of racks whose memory bricks are pre-filled with
	// ballast at setup (pod-spill).
	hot int
	// A closed loop runs warm steps unsampled, then samples steps until
	// its time budget is spent. The placement digest covers the first
	// digest steps (at most warm), and pool is how many steps of
	// requests the inputs hold before they repeat.
	warm, digest, pool int
	burst              int
}

// workloads are the benchmark's inputs; bench/README.md gives the
// reason each one exists.
var workloads = []workload{
	{name: "row-steady", pods: 16, racks: 32, policy: sdm.PolicySpread, warm: 300, digest: 60, pool: 1000, burst: 256},
	{name: "pod-spill", racks: 16, policy: sdm.PolicySpread, hot: 12, warm: 4000, digest: 1000, pool: 1, burst: 32},
	{name: "pod-churn", racks: 16, policy: sdm.PolicyPowerAware, warm: 4000, digest: 1000, pool: 8000, burst: 32},
	{name: "row-poisson", open: true, procs: 1, pods: 16, racks: 32, policy: sdm.PolicySpread, burst: 256},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// isRow reports whether the workload runs against a row.
func (w *workload) isRow() bool { return w.pods > 0 }

// rackSpec is the rack of the Fig. 10 sweeps: one tray of four compute
// bricks (8 cores, 32 GiB local each) and four 64 GiB memory bricks, 8
// transceiver ports per brick, behind a 64-port circuit switch.
func rackSpec(policy sdm.Policy) core.Config {
	cfg := core.DefaultConfig()
	cfg.Topology = topo.BuildSpec{Trays: 1, ComputePerTray: 4, MemoryPerTray: 4, PortsPerBrick: 8}
	cfg.Switch = optical.SwitchConfig{
		Ports:           64,
		InsertionLossDB: optical.Polatis48.InsertionLossDB,
		PortPowerW:      optical.Polatis48.PortPowerW,
		ReconfigTime:    optical.Polatis48.ReconfigTime,
	}
	cfg.Bricks.Compute = brick.ComputeConfig{Cores: 8, LocalMemory: 32 * brick.GiB}
	cfg.Bricks.Memory = brick.MemoryConfig{Capacity: 64 * brick.GiB}
	cfg.SDM.Policy = policy
	return cfg
}

func (w *workload) rowConfig() core.RowConfig {
	cfg := core.DefaultRowConfig(w.pods, w.racks)
	cfg.Rack = rackSpec(w.policy)
	cfg.Fabric.Switch.Ports = max(cfg.Fabric.Switch.Ports, w.racks*cfg.Fabric.UplinksPerRack)
	cfg.Row.Switch.Ports = max(cfg.Row.Switch.Ports, w.pods*cfg.Row.UplinksPerPod)
	return cfg
}

func (w *workload) podConfig() core.PodConfig {
	cfg := core.DefaultPodConfig(w.racks)
	cfg.Rack = rackSpec(w.policy)
	cfg.Fabric.Switch.Ports = max(cfg.Fabric.Switch.Ports, w.racks*cfg.Fabric.UplinksPerRack)
	return cfg
}

// rackConfig is the per-rack assembly of either fixture shape.
func (w *workload) rackConfig() core.Config {
	if w.isRow() {
		return w.rowConfig().Rack
	}
	return w.podConfig().Rack
}

// fixture is one assembled facade: a row or a pod, never both.
type fixture struct {
	row *core.Row
	pod *core.Pod
	// ballast holds the pre-fill attachments of hot racks, which belong
	// to no VM.
	ballast []*sdm.Attachment
}

// newFixture assembles the workload's facade and applies its pre-fill.
// Spread fixtures power every brick up front, as the Fig. 10 sweeps do,
// so the measured loop never pays a first-touch boot; the power-aware
// pod starts dark, since powering bricks on and off is part of what
// pod-churn measures.
func newFixture(w *workload, in *inputs) (*fixture, error) {
	if w.isRow() {
		row, err := core.NewRow(w.rowConfig())
		if err != nil {
			return nil, err
		}
		row.Scheduler().PowerOnAll()
		return &fixture{row: row}, nil
	}
	pod, err := core.NewPod(w.podConfig())
	if err != nil {
		return nil, err
	}
	if w.policy == sdm.PolicySpread {
		pod.Scheduler().PowerOnAll()
	}
	ballast, err := fillHot(pod.Scheduler(), pod.Topology(), in.hot)
	if err != nil {
		return nil, err
	}
	return &fixture{pod: pod, ballast: ballast}, nil
}

// ballastSize leaves 2 GiB free on each 64 GiB memory brick, less than
// any pod-spill request needs, so every request homed on a hot rack
// spills cross-rack.
const ballastSize = 62 * brick.GiB

// fillHot carves one ballastSize segment on every memory brick of each
// hot rack, through the scheduler's own attach path so the placement
// indexes, ports and circuits stay consistent. The spread policy sends
// each successive ballast segment to the emptiest brick of the rack,
// which is a different brick every time; the gap check below catches
// any other outcome.
func fillHot(sched *sdm.PodScheduler, pod *topo.Pod, hot []int) ([]*sdm.Attachment, error) {
	var out []*sdm.Attachment
	for _, r := range hot {
		cpus := pod.Rack(r).BricksOfKind(topo.KindCompute)
		mems := pod.Rack(r).Count(topo.KindMemory)
		for k := 0; k < mems; k++ {
			cpu := topo.PodBrickID{Rack: r, Brick: cpus[k%len(cpus)].ID}
			att, _, err := sched.AttachRemoteMemory(fmt.Sprintf("ballast-r%02d-%d", r, k), cpu, ballastSize)
			if err != nil {
				return nil, fmt.Errorf("pre-fill of rack %d: %w", r, err)
			}
			out = append(out, att)
		}
		if gap := sched.Rack(r).MaxMemoryGap(); gap >= 4*brick.GiB {
			return nil, fmt.Errorf("pre-fill of rack %d left a %v gap", r, gap)
		}
	}
	return out, nil
}

// engine returns the facade the load loops drive.
func (f *fixture) engine() engine {
	if f.row != nil {
		return f.row
	}
	return f.pod
}

// scale returns the Scale-up controller of one rack.
func (f *fixture) scale(pod, rack int) *scaleup.Controller {
	if f.row != nil {
		sc, _ := f.row.ScaleController(pod, rack)
		return sc
	}
	sc, _ := f.pod.ScaleController(rack)
	return sc
}

// locate returns where the facade placed a live VM: its pod, rack and
// compute brick, and its remote attachments in attach order (appended
// to dst).
func (f *fixture) locate(id string, dst []*sdm.Attachment) (pod, rack int, cpu topo.BrickID, atts []*sdm.Attachment, ok bool) {
	if f.row != nil {
		pod, rack, ok = f.row.VMLoc(id)
	} else {
		rack, ok = f.pod.VMRack(id)
	}
	if !ok {
		return 0, 0, topo.BrickID{}, dst, false
	}
	sc := f.scale(pod, rack)
	cpu, ok = sc.VMHost(hypervisor.VMID(id))
	return pod, rack, cpu, sc.AppendBoundAttachments(dst, hypervisor.VMID(id)), ok
}

// pods returns the pod schedulers under the facade.
func (f *fixture) pods() []*sdm.PodScheduler {
	if f.row != nil {
		return schedulers(f.row.Scheduler(), nil)
	}
	return schedulers(nil, f.pod.Scheduler())
}

// schedulers lists a row scheduler's pods, or the one pod scheduler when
// row is nil.
func schedulers(row *sdm.RowScheduler, pod *sdm.PodScheduler) []*sdm.PodScheduler {
	if row == nil {
		return []*sdm.PodScheduler{pod}
	}
	out := make([]*sdm.PodScheduler, row.Pods())
	for p := range out {
		out[p] = row.Pod(p)
	}
	return out
}

// checkInvariants runs every pod scheduler's conservation checker.
func checkInvariants(pods []*sdm.PodScheduler) error {
	for p, s := range pods {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("pod %d: %w", p, err)
		}
	}
	return nil
}

// newRackFabric assembles one rack's circuit switch and fabric the way
// the core facades do.
func newRackFabric(cfg core.Config) (*optical.Fabric, error) {
	sw, err := optical.NewSwitch(cfg.Switch)
	if err != nil {
		return nil, err
	}
	fabric := optical.NewFabric(sw)
	if cfg.Hops > 0 {
		fabric.DefaultHops = cfg.Hops
	}
	if cfg.FiberMeters > 0 {
		fabric.DefaultFiberMeters = cfg.FiberMeters
	}
	return fabric, nil
}

// newPodFabric assembles a pod topology and its composite fabric.
func newPodFabric(cfg core.PodConfig) (*topo.Pod, *optical.PodFabric, error) {
	pod, err := topo.BuildPod(cfg.Racks, cfg.Rack.Topology)
	if err != nil {
		return nil, nil, err
	}
	fabrics := make([]*optical.Fabric, cfg.Racks)
	for i := range fabrics {
		if fabrics[i], err = newRackFabric(cfg.Rack); err != nil {
			return nil, nil, err
		}
	}
	pf, err := optical.NewPodFabric(cfg.Fabric, fabrics)
	return pod, pf, err
}

// newRowFabric assembles a row topology and its composite fabric.
func newRowFabric(cfg core.RowConfig) (*topo.Row, *optical.RowFabric, error) {
	row, err := topo.BuildRow(cfg.Pods, cfg.Racks, cfg.Rack.Topology)
	if err != nil {
		return nil, nil, err
	}
	pods := make([]*optical.PodFabric, cfg.Pods)
	for p := range pods {
		_, pf, err := newPodFabric(core.PodConfig{Racks: cfg.Racks, Rack: cfg.Rack, Fabric: cfg.Fabric})
		if err != nil {
			return nil, nil, err
		}
		pods[p] = pf
	}
	rf, err := optical.NewRowFabric(cfg.Row, pods)
	return row, rf, err
}
