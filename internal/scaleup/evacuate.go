package scaleup

import (
	"fmt"
	"slices"

	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// EvacuationResult reports a brick evacuation.
type EvacuationResult struct {
	Brick         topo.BrickID
	Migrated      []hypervisor.VMID
	TotalDowntime sim.Duration
	WorstDowntime sim.Duration
}

// Evacuate migrates every VM off a compute brick so it can be powered
// down or hot-swapped — the maintenance workflow the paper's
// hot-pluggable brick design exists for ("upgrades must be applied to
// each and every server" is one of the limitations dReDBox removes;
// here a single brick drains and leaves while its VMs keep running).
//
// Evacuation is all-or-nothing in intent but not transactional across
// VMs: VMs migrated before a failure stay migrated (they are running
// correctly at their new homes); the error reports which VM blocked.
func (c *Controller) Evacuate(now sim.Time, brickID topo.BrickID) (EvacuationResult, error) {
	res := EvacuationResult{Brick: brickID}
	victims := c.AppendVMs(nil)
	victims = slices.DeleteFunc(victims, func(vm *VM) bool { return vm.host != brickID })
	if len(victims) == 0 {
		return res, nil
	}
	for _, vm := range victims {
		m, err := c.migrate(now, vm)
		if err != nil {
			return res, fmt.Errorf("scaleup: evacuating %v: VM %q: %w", brickID, vm.ID, err)
		}
		res.Migrated = append(res.Migrated, vm.ID)
		res.TotalDowntime += m.Downtime
		if m.Downtime > res.WorstDowntime {
			res.WorstDowntime = m.Downtime
		}
	}
	if c.journal != nil {
		c.journal.Append(now, trace.KindPower, brickID.String(), "evacuated %d VMs (total downtime %v)",
			len(res.Migrated), res.TotalDowntime)
	}
	return res, nil
}
