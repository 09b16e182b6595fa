package core

import (
	"fmt"

	"repro/internal/scaleup"
	"repro/internal/sim"
)

// Two-stage batch pipeline. The group-commit engine serializes bursts
// on the facade clock: CreateVMs advances past the slowest VM's boot,
// so burst k+1's planning waits out burst k's multi-second bring-up
// even though the scheduler itself went idle after the commit. The
// BatchPipeline overlaps them — the controller stage (partition, plan,
// commit) is the pipeline's serial resource, and the brick stage
// (kernel hot-add, hypervisor bring-up) runs in the background of the
// bursts that follow.
//
// The pipeline is a virtual-time model over the real engine: every
// burst still commits through CreateVMs/DestroyVMs against serialized
// state, so placement — brick assignments, circuits, indexes, spill
// accounting — is byte-identical to the sequential facade at any
// depth. What changes is the clock: the pipeline keeps its own, and
// charges each admitted burst only its control-plane span, parking the
// boot horizon as an in-flight entry that later bursts join only when
// the depth bound (or a data dependency) forces them to.
//
// Dependency rules keep the virtual timeline honest:
//
//   - a create burst at depth capacity joins the oldest in-flight
//     burst first (the controller stalls, exactly like a full pipeline
//     stage);
//   - a destroy burst joins every in-flight burst that booted one of
//     its victims — a VM cannot tear down before it finishes booting —
//     but never stalls on unrelated boots;
//   - Drain joins everything, so end-to-end makespans are comparable.
//
// Depth <= 1 degenerates to the sequential facade: every burst joins
// its own horizon immediately, and the pipeline clock tracks the
// facade clock tick for tick.
type BatchPipeline struct {
	target PipelineTarget
	depth  int

	clock    sim.Time
	stalled  sim.Duration
	inflight []inflightBurst
}

// PipelineTarget is the facade surface the pipeline drives: the pod
// and row tiers both satisfy it. The workers argument is unused — the
// group commit runs on the caller's goroutine — and the pipeline
// passes 0.
type PipelineTarget interface {
	Now() sim.Time
	CreateVMs(reqs []VMCreate, workers int) ([]scaleup.Result, error)
	DestroyVMs(ids []string, workers int) ([]scaleup.Result, error)
}

// inflightBurst is one admitted-but-still-booting burst: when its
// slowest boot lands on the pipeline clock, and which VMs it carries
// (for destroy-side dependency joins).
type inflightBurst struct {
	done sim.Time
	ids  map[string]struct{}
}

// NewBatchPipeline wraps a pod or row facade in a batch pipeline of
// the given depth. Depth is the number of bursts in flight including
// the one being planned; depth <= 1 reproduces the sequential facade
// exactly.
func NewBatchPipeline(target PipelineTarget, depth int) (*BatchPipeline, error) {
	if target == nil {
		return nil, fmt.Errorf("core: pipeline needs a target facade")
	}
	if depth < 1 {
		depth = 1
	}
	return &BatchPipeline{
		target: target,
		depth:  depth,
		clock:  target.Now(),
	}, nil
}

// Now returns the pipeline's virtual clock. At depth 1 it tracks the
// facade clock exactly; at depth >= 2 it runs ahead of it, because
// boot horizons the facade serialized are still in flight here.
func (bp *BatchPipeline) Now() sim.Time { return bp.clock }

// Depth returns the configured pipeline depth.
func (bp *BatchPipeline) Depth() int { return bp.depth }

// InFlight returns the number of admitted bursts whose boots have not
// been joined yet.
func (bp *BatchPipeline) InFlight() int { return len(bp.inflight) }

// Stalled returns the cumulative time the pipeline clock spent parked
// on joins — waiting out boots at depth capacity, on a dependency, or
// in Drain. Throughput accounting subtracts it to get controller busy
// time.
func (bp *BatchPipeline) Stalled() sim.Duration { return bp.stalled }

// Advance moves the pipeline clock forward explicitly — for charging
// out-of-band control work (rebalance sweeps, consolidation passes)
// that runs on the facade between bursts.
func (bp *BatchPipeline) Advance(dur sim.Duration) error {
	if dur < 0 {
		return fmt.Errorf("core: cannot advance clock by %v", dur)
	}
	bp.clock = bp.clock.Add(dur)
	return nil
}

// CreateVMs admits one burst through the pipeline. The placement is
// exactly the facade's; the returned results are re-timed onto the
// pipeline clock, with the burst's boot horizon parked in flight.
func (bp *BatchPipeline) CreateVMs(reqs []VMCreate) ([]scaleup.Result, error) {
	if bp.depth <= 1 {
		return bp.sequential(func() ([]scaleup.Result, error) {
			return bp.target.CreateVMs(reqs, 0)
		})
	}
	// Stall on the oldest in-flight burst while at depth capacity:
	// the controller stage has nowhere to put another boot horizon.
	for len(bp.inflight) >= bp.depth-1 {
		bp.joinOldest()
	}
	start := bp.clock
	before := bp.target.Now()
	res, err := bp.target.CreateVMs(reqs, 0)
	if err != nil {
		return nil, err
	}
	total := bp.target.Now().Sub(before)
	// The controller is busy for the burst's control-plane span; the
	// boots ride out in the background.
	ctrl := sim.Duration(0)
	delta := start.Sub(before)
	for i := range res {
		if res[i].Orchestration > ctrl {
			ctrl = res[i].Orchestration
		}
		res[i].Requested = res[i].Requested.Add(delta)
		res[i].Started = res[i].Started.Add(delta)
		res[i].Done = res[i].Done.Add(delta)
	}
	bp.clock = start.Add(ctrl)
	ids := make(map[string]struct{}, len(reqs))
	for _, r := range reqs {
		ids[r.ID] = struct{}{}
	}
	bp.inflight = append(bp.inflight, inflightBurst{done: start.Add(total), ids: ids})
	return res, nil
}

// DestroyVMs retires one burst through the pipeline. It first joins
// every in-flight burst that booted one of the victims — teardown of a
// still-booting VM has to wait for the boot — then charges the full
// teardown span to the controller (teardown is all control plane; it
// parks no background work).
func (bp *BatchPipeline) DestroyVMs(ids []string) ([]scaleup.Result, error) {
	if bp.depth <= 1 {
		return bp.sequential(func() ([]scaleup.Result, error) {
			return bp.target.DestroyVMs(ids, 0)
		})
	}
	for i := 0; i < len(bp.inflight); {
		if bp.inflight[i].carriesAny(ids) {
			bp.join(i)
			continue
		}
		i++
	}
	start := bp.clock
	before := bp.target.Now()
	res, err := bp.target.DestroyVMs(ids, 0)
	if err != nil {
		return nil, err
	}
	total := bp.target.Now().Sub(before)
	delta := start.Sub(before)
	for i := range res {
		res[i].Requested = res[i].Requested.Add(delta)
		res[i].Started = res[i].Started.Add(delta)
		res[i].Done = res[i].Done.Add(delta)
	}
	bp.clock = start.Add(total)
	return res, nil
}

// Drain joins every in-flight boot horizon and returns the pipeline
// clock: the virtual time at which all admitted work is really done.
func (bp *BatchPipeline) Drain() sim.Time {
	for len(bp.inflight) > 0 {
		bp.joinOldest()
	}
	return bp.clock
}

// sequential runs one burst with the facade's own serialization and
// keeps the pipeline clock locked to the facade clock — the depth-1
// degenerate mode, byte-identical to not having a pipeline at all.
func (bp *BatchPipeline) sequential(run func() ([]scaleup.Result, error)) ([]scaleup.Result, error) {
	before := bp.target.Now()
	res, err := run()
	if err != nil {
		return nil, err
	}
	bp.clock = bp.clock.Add(bp.target.Now().Sub(before))
	return res, nil
}

// joinOldest stalls the pipeline clock on the oldest in-flight burst.
func (bp *BatchPipeline) joinOldest() { bp.join(0) }

// join stalls the pipeline clock on in-flight burst i and retires it.
func (bp *BatchPipeline) join(i int) {
	if bp.inflight[i].done > bp.clock {
		bp.stalled += bp.inflight[i].done.Sub(bp.clock)
		bp.clock = bp.inflight[i].done
	}
	bp.inflight = append(bp.inflight[:i], bp.inflight[i+1:]...)
}

// carriesAny reports whether the burst booted any of the given VMs.
func (b *inflightBurst) carriesAny(ids []string) bool {
	for _, id := range ids {
		if _, ok := b.ids[id]; ok {
			return true
		}
	}
	return false
}
