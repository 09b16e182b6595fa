package brick

import (
	"fmt"

	"repro/internal/topo"
)

// Compute is a dCOMPUBRICK: a quad-core (by default) ARMv8 APU with local
// off-chip DDR for low-latency instruction and data access, plus
// transceiver ports through which its Transaction Glue Logic reaches
// disaggregated memory and accelerators.
type Compute struct {
	ID          topo.BrickID
	Cores       int   // schedulable vCPU capacity
	LocalMemory Bytes // on-brick DDR, not pooled
	Ports       *PortSet

	usedCores int
	usedLocal Bytes
	state     PowerState
}

// ComputeConfig parameterizes NewCompute. Zero fields take prototype
// defaults: 4 APU cores (quad-core A53) and 4 GiB of local DDR.
type ComputeConfig struct {
	Cores       int
	LocalMemory Bytes
	Ports       int
}

// NewCompute builds a powered-off compute brick.
func NewCompute(id topo.BrickID, cfg ComputeConfig) *Compute {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.LocalMemory == 0 {
		cfg.LocalMemory = 4 * GiB
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 8
	}
	return &Compute{
		ID:          id,
		Cores:       cfg.Cores,
		LocalMemory: cfg.LocalMemory,
		Ports:       NewPortSet(id, cfg.Ports),
		state:       PowerOff,
	}
}

// State returns the power state.
func (c *Compute) State() PowerState { return c.state }

// PowerOn transitions the brick to idle (or active if it already holds
// allocations, which can happen when replaying a checkpointed schedule).
func (c *Compute) PowerOn() {
	if c.usedCores > 0 {
		c.state = PowerActive
		return
	}
	c.state = PowerIdle
}

// PowerDown powers the brick off. It fails if allocations remain.
func (c *Compute) PowerDown() error {
	if c.usedCores > 0 || c.usedLocal > 0 {
		return fmt.Errorf("compute %v: power down with %d cores / %v local memory allocated", c.ID, c.usedCores, c.usedLocal)
	}
	c.state = PowerOff
	return nil
}

// FreeCores returns the unallocated core count.
func (c *Compute) FreeCores() int { return c.Cores - c.usedCores }

// UsedCores returns the allocated core count.
func (c *Compute) UsedCores() int { return c.usedCores }

// AllocCores reserves n cores, powering implications included: a brick
// with any allocation is active. The brick must be powered on.
func (c *Compute) AllocCores(n int) error {
	if n <= 0 {
		return fmt.Errorf("compute %v: allocation of %d cores", c.ID, n)
	}
	if c.state == PowerOff {
		return fmt.Errorf("compute %v: allocation on powered-off brick", c.ID)
	}
	if n > c.FreeCores() {
		return fmt.Errorf("compute %v: %d cores requested, %d free", c.ID, n, c.FreeCores())
	}
	c.usedCores += n
	c.state = PowerActive
	return nil
}

// FreeCoresBack releases n previously allocated cores.
func (c *Compute) FreeCoresBack(n int) error {
	if n <= 0 || n > c.usedCores {
		return fmt.Errorf("compute %v: release of %d cores with %d allocated", c.ID, n, c.usedCores)
	}
	c.usedCores -= n
	if c.usedCores == 0 && c.usedLocal == 0 {
		c.state = PowerIdle
	}
	return nil
}

// AllocLocal reserves local DDR (used by the hypervisor for the VM's
// baseline memory before any remote segments are attached).
func (c *Compute) AllocLocal(b Bytes) error {
	if b == 0 {
		return fmt.Errorf("compute %v: zero-byte local allocation", c.ID)
	}
	if c.state == PowerOff {
		return fmt.Errorf("compute %v: local allocation on powered-off brick", c.ID)
	}
	if c.usedLocal+b > c.LocalMemory {
		return fmt.Errorf("compute %v: local memory exhausted (%v used of %v, %v requested)", c.ID, c.usedLocal, c.LocalMemory, b)
	}
	c.usedLocal += b
	c.state = PowerActive
	return nil
}

// FreeLocal releases local DDR.
func (c *Compute) FreeLocal(b Bytes) error {
	if b == 0 || b > c.usedLocal {
		return fmt.Errorf("compute %v: release of %v with %v allocated", c.ID, b, c.usedLocal)
	}
	c.usedLocal -= b
	if c.usedCores == 0 && c.usedLocal == 0 {
		c.state = PowerIdle
	}
	return nil
}

// UsedLocal returns the allocated local memory.
func (c *Compute) UsedLocal() Bytes { return c.usedLocal }

// IsIdle reports whether the brick carries no allocation and is therefore
// a candidate for power-off.
func (c *Compute) IsIdle() bool { return c.usedCores == 0 && c.usedLocal == 0 }
