package core

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/topo"
)

// RowConfig assembles a row of identical pods under one inter-pod
// optical tier: the recursive step up from PodConfig.
type RowConfig struct {
	// Pods is the number of pods in the row.
	Pods int
	// Racks is the number of racks per pod.
	Racks int
	// Rack is the per-rack assembly, reused verbatim for every rack.
	Rack Config
	// Fabric is the inter-rack tier inside each pod.
	Fabric optical.PodProfile
	// Row is the inter-pod tier: the row circuit switch and its
	// hop/fiber/reconfig profile.
	Row optical.RowProfile
}

// DefaultRowConfig is pods default pods of racks default racks each,
// under the default pod and row profiles.
func DefaultRowConfig(pods, racks int) RowConfig {
	return RowConfig{
		Pods:   pods,
		Racks:  racks,
		Rack:   DefaultConfig(),
		Fabric: optical.DefaultPodProfile,
		Row:    optical.DefaultRowProfile,
	}
}

// Validate rejects unusable row configurations.
func (c RowConfig) Validate() error {
	if c.Pods <= 0 {
		return fmt.Errorf("core: row needs at least one pod, got %d", c.Pods)
	}
	if c.Racks <= 0 {
		return fmt.Errorf("core: row needs at least one rack per pod, got %d", c.Racks)
	}
	if err := c.Fabric.Validate(c.Racks); err != nil {
		return err
	}
	return c.Row.Validate(c.Pods)
}

// Row is the datacenter-row facade: N assembled pods sharded behind
// one row scheduler, with the Pod's batched programming model
// (CreateVMs, DestroyVMs, Consolidate) extended across pods. Placement
// is pod-local first; memory a pod cannot supply spills cross-pod
// through the row circuit switch. It is a shell over the facade engine
// (facade.go), which runs the bursts, scale-ups and re-packing it
// shares with Pod.
//
// Clock contract: identical to Pod — control-plane operations advance
// the clock past their completion, queries never move it.
type Row struct {
	facade

	cfg    RowConfig
	row    *topo.Row
	fabric *optical.RowFabric
	sched  *sdm.RowScheduler
}

// NewRow assembles a row from the config.
func NewRow(cfg RowConfig) (*Row, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	row, err := topo.BuildRow(cfg.Pods, cfg.Racks, cfg.Rack.Topology)
	if err != nil {
		return nil, err
	}
	podFabrics := make([]*optical.PodFabric, cfg.Pods)
	for p := range podFabrics {
		if podFabrics[p], err = newPodFabric(cfg.Fabric, cfg.Racks, cfg.Rack); err != nil {
			return nil, err
		}
	}
	rf, err := optical.NewRowFabric(cfg.Row, podFabrics)
	if err != nil {
		return nil, err
	}
	sched, err := sdm.NewRowScheduler(row, rf, cfg.Rack.Bricks, cfg.Rack.SDM)
	if err != nil {
		return nil, err
	}
	pods, scheds := make([]*topo.Pod, cfg.Pods), make([]*sdm.PodScheduler, cfg.Pods)
	for p := range pods {
		pods[p], scheds[p] = row.Pod(p), sched.Pod(p)
	}
	f, err := newFacade(&rowWords, sched, pods, scheds, cfg.Rack)
	if err != nil {
		return nil, err
	}
	return &Row{facade: f, cfg: cfg, row: row, fabric: rf, sched: sched}, nil
}

// Config returns the configuration the row was assembled from.
func (r *Row) Config() RowConfig { return r.cfg }

// Pods returns the pod count.
func (r *Row) Pods() int { return r.cfg.Pods }

// RacksPerPod returns the per-pod rack count.
func (r *Row) RacksPerPod() int { return r.cfg.Racks }

// Topology exposes the row topology.
func (r *Row) Topology() *topo.Row { return r.row }

// Scheduler exposes the row-tier orchestration layer.
func (r *Row) Scheduler() *sdm.RowScheduler { return r.sched }

// Fabric exposes the row optical fabric.
func (r *Row) Fabric() *optical.RowFabric { return r.fabric }

// ScaleController exposes one rack's Scale-up controller.
func (r *Row) ScaleController(pod, rack int) (*scaleup.Controller, bool) {
	if pod < 0 || pod >= len(r.stacks) || rack < 0 || rack >= len(r.stacks[pod]) {
		return nil, false
	}
	return r.stacks[pod][rack].scale, true
}

// VMLoc returns the pod and rack hosting a VM.
func (r *Row) VMLoc(id string) (pod, rack int, ok bool) { return r.locate(id) }

// CreateVM boots one VM somewhere in the row — an admission batch of
// one, byte-identical to the sequential row placement path. The clock
// advances past the creation delay.
func (r *Row) CreateVM(id string, vcpus int, memory brick.Bytes) (scaleup.Result, error) {
	res, err := r.CreateVMs([]VMCreate{{ID: id, VCPUs: vcpus, Memory: memory}}, 1)
	if err != nil {
		return scaleup.Result{}, err
	}
	return res[0], nil
}

// RowConsolidation reports one row-level consolidation pass: every
// pod's re-packing pass summed. Its failed moves include the VMs pinned
// by cross-pod attachments, which cannot re-point.
type RowConsolidation PodConsolidation

// Consolidate runs one re-packing pass per pod: VMs on sparse trailing
// racks migrate onto the lowest-index rack of their pod with room,
// then each pod's scheduler drains the remote memory parked on the
// now-empty racks and powers every drained brick down. VMs holding
// cross-pod attachments stay put — row circuits cannot re-point — and
// are reported as failed moves. Opportunistic like the pod pass. The
// clock advances past the migrations and the drains.
func (r *Row) Consolidate() RowConsolidation {
	var rep PodConsolidation
	for p := range r.scheds {
		rep = sumConsolidation(rep, r.consolidatePod(p))
	}
	return RowConsolidation(rep)
}

// sumConsolidation folds one pod's consolidation pass into the
// row-wide total. At tracks the last pod's drain; Latency, like every
// count, is summed, because the row clock advances by each pod's drain
// in turn.
func sumConsolidation(a, b PodConsolidation) PodConsolidation {
	a.VMsMoved += b.VMsMoved
	a.MovesFailed += b.MovesFailed
	a.MoveDowntime += b.MoveDowntime
	a.At = b.At
	a.Scanned += b.Scanned
	a.Promoted += b.Promoted
	a.Rehomed += b.Rehomed
	a.SkippedPacket += b.SkippedPacket
	a.SkippedRiders += b.SkippedRiders
	a.SkippedNoRoom += b.SkippedNoRoom
	a.Failed += b.Failed
	a.RacksDrained += b.RacksDrained
	a.PoweredOff += b.PoweredOff
	a.DarkRacks += b.DarkRacks
	a.Latency += b.Latency
	return a
}

// Census returns the row-wide power census for a brick kind, read from
// the O(pods) hierarchical aggregates when the indexes are on.
func (r *Row) Census(kind topo.BrickKind) sdm.PowerCensus { return r.sched.AggCensus(kind) }
