package scaleup

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SetJournal attaches a trace log; subsequent elasticity operations are
// recorded in it. A nil journal disables tracing.
func (c *Controller) SetJournal(j *trace.Log) { c.journal = j }

// Journal returns the attached trace log, if any.
func (c *Controller) Journal() *trace.Log { return c.journal }

// AutoScaler implements, end to end, the enhancement the paper leaves as
// future work: "the guest memory hotplug support will be enhanced to
// automatically protect the guest from running out-of-memory". It
// watches VM usage through the hypervisor's OOM guard and posts
// scale-ups before the guest OOMs, and optionally shrinks VMs whose
// usage has fallen far below their allocation.
type AutoScaler struct {
	ctl *Controller
	// Guard decides when a VM needs more memory.
	Guard hypervisor.OOMGuard
	// ShrinkFactor releases memory when usage drops below
	// available/ShrinkFactor (0 disables shrinking).
	ShrinkFactor float64
	// MaxStepsPerVM bounds growth per Tick, so one runaway VM cannot
	// drain the pool in a single pass.
	MaxStepsPerVM int

	scaleUps, scaleDowns, failures uint64
}

// NewAutoScaler returns an auto-scaler over the controller.
func NewAutoScaler(ctl *Controller, guard hypervisor.OOMGuard) (*AutoScaler, error) {
	if ctl == nil {
		return nil, fmt.Errorf("scaleup: auto-scaler needs a controller")
	}
	if guard.HeadroomFraction <= 0 || guard.HeadroomFraction > 1 {
		return nil, fmt.Errorf("scaleup: guard headroom %v outside (0, 1]", guard.HeadroomFraction)
	}
	if guard.StepSize == 0 {
		return nil, fmt.Errorf("scaleup: guard needs a step size")
	}
	return &AutoScaler{ctl: ctl, Guard: guard, ShrinkFactor: 3, MaxStepsPerVM: 4}, nil
}

// TickResult summarizes one auto-scaling pass.
type TickResult struct {
	ScaleUps   int
	ScaleDowns int
	Failures   int
	// WorstDelay is the slowest elasticity operation of the pass.
	WorstDelay sim.Duration
}

// Tick inspects every VM once and applies the needed elasticity. It is
// called by the orchestrator's control loop at whatever cadence the
// deployment wants (the examples use one tick per load change).
func (a *AutoScaler) Tick(now sim.Time) (TickResult, error) {
	var res TickResult
	for _, rec := range a.ctl.AppendVMs(nil) {
		vm, id := &rec.VM, rec.ID
		if vm.State() != hypervisor.StateRunning {
			continue
		}
		// Grow while the guard fires, bounded per tick.
		steps := 0
		for a.Guard.Check(vm) > 0 && steps < a.MaxStepsPerVM {
			r, err := a.ctl.ScaleUp(now, id, a.Guard.StepSize)
			if err != nil {
				res.Failures++
				a.failures++
				if a.ctl.journal != nil {
					a.ctl.journal.Append(now, trace.KindError, string(id), "auto scale-up failed: %v", err)
				}
				break
			}
			steps++
			res.ScaleUps++
			a.scaleUps++
			if r.Delay() > res.WorstDelay {
				res.WorstDelay = r.Delay()
			}
			if a.ctl.journal != nil {
				a.ctl.journal.Append(now, trace.KindScale, string(id), "auto +%v in %v", a.Guard.StepSize, r.Delay())
			}
		}
		// Shrink when usage collapsed and a detachable step exists.
		if a.ShrinkFactor > 1 {
			threshold := brick.Bytes(float64(vm.Usage()) * a.ShrinkFactor)
			for vm.AvailableMemory() > threshold+a.Guard.StepSize &&
				vm.AvailableMemory() >= vm.Spec.Memory+a.Guard.StepSize {
				r, err := a.ctl.ScaleDown(now, id, a.Guard.StepSize)
				if err != nil {
					break // nothing detachable of that size: fine
				}
				res.ScaleDowns++
				a.scaleDowns++
				if r.Delay() > res.WorstDelay {
					res.WorstDelay = r.Delay()
				}
				if a.ctl.journal != nil {
					a.ctl.journal.Append(now, trace.KindScale, string(id), "auto -%v in %v", a.Guard.StepSize, r.Delay())
				}
			}
		}
	}
	return res, nil
}

// Stats returns cumulative auto-scaling counters.
func (a *AutoScaler) Stats() (scaleUps, scaleDowns, failures uint64) {
	return a.scaleUps, a.scaleDowns, a.failures
}
