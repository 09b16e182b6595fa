package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/topo"
)

// RowScheduler shards SDM orchestration across a row of pods — the
// datacenter-scale tier. Each pod keeps its autonomous PodScheduler
// (which in turn shards across rack controllers); the row tier routes
// requests with the same recursive placement contract one level up:
//
//   - Compute and memory go pod-local first. Pod choice is the same
//     O(1)-per-candidate arithmetic the pod uses for rack choice, read
//     from hierarchical aggregates (agg.go): free cores, free memory,
//     max gap and power census roll up from rack index roots into
//     per-pod summaries maintained incrementally at the index choke
//     points — pod choice at 32 pods of 32 racks is O(pods)
//     arithmetic, never a rescan of 1024 racks.
//   - A memory request the VM's pod cannot satisfy spills cross-pod: a
//     segment in another pod reached through the row circuit switch,
//     paying the row tier's hop/fiber/reconfig profile on top of both
//     endpoint racks'.
//   - When no cross-pod circuit can be provisioned (row uplinks or
//     brick ports exhausted), the packet fallback is preserved across
//     the row tier: the attachment rides an existing cross-pod circuit
//     from the same compute brick.
//
// All of that is the embedded tier (tier.go) — the one the pod embeds,
// here with pods for children; the row adds its row addresses and the
// reads of its pods' summaries.
type RowScheduler struct {
	tier

	row    *topo.Row
	fabric *optical.RowFabric
	pods   []*PodScheduler
}

// NewRowScheduler builds one PodScheduler per pod over the row fabric's
// pod fabrics and wires the row tier above them.
func NewRowScheduler(row *topo.Row, fabric *optical.RowFabric, bc BrickConfigs, cfg Config) (*RowScheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if row.Pods() == 0 {
		return nil, fmt.Errorf("sdm: row has no pods")
	}
	if row.Pods() != fabric.Pods() {
		return nil, fmt.Errorf("sdm: row has %d pods but the fabric has %d", row.Pods(), fabric.Pods())
	}
	s := &RowScheduler{
		tier:   tier{cfg: cfg, level: rowLevel, sw: fabric.RowSwitch(), crossFabric: connector{row: fabric}, boots: &bootJournal{}},
		row:    row,
		fabric: fabric,
	}
	for i := 0; i < row.Pods(); i++ {
		p, err := NewPodScheduler(row.Pod(i), fabric.Pod(i), bc, cfg)
		if err != nil {
			return nil, fmt.Errorf("sdm: pod %d: %w", i, err)
		}
		p.boots = s.boots
		for _, r := range p.racks {
			r.boots = s.boots
			r.crossHosts[rowLevel] = make([][]*Attachment, len(r.computes))
		}
		p.agg = newPodAgg(p.racks)
		s.pods = append(s.pods, p)
		s.children = append(s.children, p)
		s.subTiers = append(s.subTiers, &p.tier)
	}
	return s, nil
}

// Pods returns the pod count.
func (s *RowScheduler) Pods() int { return len(s.pods) }

// Pod returns the pod scheduler at index i, or nil if out of range.
func (s *RowScheduler) Pod(i int) *PodScheduler {
	if i < 0 || i >= len(s.pods) {
		return nil
	}
	return s.pods[i]
}

// Fabric returns the row fabric.
func (s *RowScheduler) Fabric() *optical.RowFabric { return s.fabric }

// PodFreeCores reads one pod's free-core sum — the cached per-pod
// aggregate pod choice is arithmetic over, O(1).
func (s *RowScheduler) PodFreeCores(i int) int64 { return s.pods[i].agg.FreeCores() }

// PodFreeMemory reads one pod's free pooled bytes, like PodFreeCores.
func (s *RowScheduler) PodFreeMemory(i int) brick.Bytes { return s.pods[i].agg.FreeMemory() }

// PodMaxGap reads one pod's largest contiguous memory gap — the
// admission doom-screen quantity, from the cached aggregate.
func (s *RowScheduler) PodMaxGap(i int) brick.Bytes { return s.pods[i].agg.MaxGap() }

// ReserveCompute places a compute reservation row-wide: the policy
// picks a pod, the pod's scheduler picks the rack and brick.
func (s *RowScheduler) ReserveCompute(owner string, vcpus int, localMem brick.Bytes) (topo.RowBrickID, sim.Duration, error) {
	return s.reserveOne(owner, vcpus, localMem)
}

// ReleaseCompute returns cores and local memory to a brick.
func (s *RowScheduler) ReleaseCompute(id topo.RowBrickID, vcpus int, localMem brick.Bytes) error {
	return s.release(id, vcpus, localMem)
}

// AttachRemoteMemory realizes one memory attachment row-wide: pod-local
// first (with the pod's own rack-local-then-cross-rack cascade), then
// the cross-pod spill, then the row-tier packet fallback.
func (s *RowScheduler) AttachRemoteMemory(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	return s.attachOne(owner, cpu, size)
}

// AggCensus reads the power census for one brick kind from the cached
// pod summaries — O(pods) instead of a walk over every brick. Falls
// back to the exact walk for accelerators (which the placement indexes
// don't cover).
func (s *RowScheduler) AggCensus(kind topo.BrickKind) PowerCensus {
	if kind != topo.KindCompute && kind != topo.KindMemory {
		return s.Census(kind)
	}
	var pc PowerCensus
	for _, p := range s.pods {
		cnt := p.agg.cpuCensus
		if kind == topo.KindMemory {
			cnt = p.agg.memCensus
		}
		pc.Off += int(cnt[brick.PowerOff])
		pc.Idle += int(cnt[brick.PowerIdle])
		pc.Active += int(cnt[brick.PowerActive])
	}
	return pc
}
