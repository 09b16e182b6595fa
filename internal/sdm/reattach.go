package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// powerPreference is the power-aware selection order: pack active
// bricks, then wake idle ones, and only then boot powered-off ones.
var powerPreference = []brick.PowerState{brick.PowerActive, brick.PowerIdle, brick.PowerOff}

// ReserveComputeExcept selects and reserves a compute brick like
// ReserveCompute, but never the excluded brick — used by VM migration,
// which must land the VM somewhere other than its current host.
func (c *Controller) ReserveComputeExcept(owner string, vcpus int, localMem brick.Bytes, exclude topo.BrickID) (topo.BrickID, sim.Duration, error) {
	return c.reserveCompute(owner, vcpus, localMem, &exclude)
}

// ReattachRemoteMemory re-points a live attachment at a new compute
// brick without touching the segment: the data stays exactly where it is
// on the dMEMBRICK — this is what makes VM migration cheap in a
// disaggregated rack. The old circuit is torn down, a new circuit is set
// up from the new brick, the TGL window is installed on the new brick's
// agent and removed from the old one — one inline commit
// (repointCircuit), so on failure the attachment is left in its
// original state. Spilled attachments route to their tier: a pod
// rebuilds the circuit through the pod switch so the re-point never
// silently drops the pod tier, and a row refuses (re-tiering through
// the row switch is not modeled yet).
//
// It returns the new window (migration callers must re-home the
// baremetal hotplug range) and the orchestration latency.
func (c *Controller) ReattachRemoteMemory(att *Attachment, newCPU topo.BrickID) (tgl.Entry, sim.Duration, error) {
	if att.spill != nil {
		return att.spill.repoint(att, topo.RowBrickID{Rack: att.CPURack, Brick: newCPU})
	}
	c.requests++
	if !c.registered(att) {
		c.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: attachment for %q not live", att.Owner)
	}
	if c.cpuPos(newCPU) < 0 {
		c.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: no compute brick %v", newCPU)
	}
	if newCPU == att.CPU {
		c.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: reattach to the same brick %v", newCPU)
	}
	if err := c.CanRepoint(att); err != nil {
		c.failures++
		return tgl.Entry{}, 0, err
	}
	lat, err := c.repointCircuit(att, c, topo.RowBrickID{Rack: att.CPURack, Brick: newCPU}, nil, c.rackConn(), c.rackConn())
	if err != nil {
		c.failures++
		return tgl.Entry{}, 0, err
	}
	return att.Window, lat, nil
}
