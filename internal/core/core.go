// Package core is the public facade of the dReDBox reproduction: a
// full-stack disaggregated rack assembled from every substrate in this
// repository — topology, bricks, optical circuit fabric, TGL/RMST,
// memory controllers, baremetal hotplug, hypervisor, Scale-up API and
// SDM orchestration — behind one Datacenter type that examples and pilot
// applications program against.
//
// The experiment layer that regenerates every table and figure of the
// paper's evaluation lives in internal/exp (see DESIGN.md §4); cmd/
// binaries and the root benchmark suite run those experiments through
// its registry.
package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/optical"
	"repro/internal/pktnet"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Config assembles a full-stack rack.
type Config struct {
	Topology topo.BuildSpec
	Switch   optical.SwitchConfig
	Bricks   sdm.BrickConfigs
	SDM      sdm.Config
	ScaleUp  scaleup.Config
	Accel    accel.Config
	// Hops is the switch-hop count assigned to circuits (the downscaled
	// prototype loops 6–8 hops; a production rack uses 1).
	Hops int
	// FiberMeters is the optical path length per circuit.
	FiberMeters float64
	// Packet is the packet-path latency profile used for remote access
	// timing and the packet-mode fallback.
	Packet pktnet.Profile
	Seed   uint64
}

// DefaultConfig is a two-tray rack: per tray 4 compute, 4 memory and
// 1 accelerator brick with 8 transceiver ports each (144 brick ports),
// patched into a two-module (192-port) switch fabric with
// next-generation per-port power.
func DefaultConfig() Config {
	return Config{
		Topology: topo.BuildSpec{
			Trays: 2, ComputePerTray: 4, MemoryPerTray: 4, AccelPerTray: 1, PortsPerBrick: 8,
		},
		Switch: optical.SwitchConfig{
			Ports:           192,
			InsertionLossDB: optical.PolatisNextGen.InsertionLossDB,
			PortPowerW:      optical.PolatisNextGen.PortPowerW,
			ReconfigTime:    optical.PolatisNextGen.ReconfigTime,
		},
		Bricks: sdm.BrickConfigs{Memory: brick.MemoryConfig{Capacity: 64 * brick.GiB}},
		SDM: func() sdm.Config {
			c := sdm.DefaultConfig
			c.PacketFallback = true
			return c
		}(),
		ScaleUp:     scaleup.DefaultConfig,
		Accel:       accel.DefaultConfig,
		Hops:        8,
		FiberMeters: 5,
		Packet:      pktnet.DefaultProfile,
		Seed:        1,
	}
}

// rackStack is the per-rack software stack shared by the Datacenter
// and Pod facades: the rack's SDM controller, the Scale-up controller
// above it, the accelerator middlewares and the DDR datapath
// controllers. Datacenter is exactly one of these; Pod holds one per
// rack.
type rackStack struct {
	rack  *topo.Rack
	sdmc  *sdm.Controller
	scale *scaleup.Controller
	// accels holds each accelerator brick's middleware by accelerator
	// ordinal, and ddr each memory brick's DDR controller (for datapath
	// timing) by memory ordinal.
	accels []*accel.Middleware
	ddr    []*mem.DDRController
}

// newRackStack builds the software stack above an assembled SDM
// controller.
func newRackStack(rack *topo.Rack, sdmc *sdm.Controller, cfg Config) (*rackStack, error) {
	scale, err := scaleup.New(sdmc, cfg.ScaleUp)
	if err != nil {
		return nil, err
	}
	accels := rack.BricksOfKind(topo.KindAccel)
	mems := rack.BricksOfKind(topo.KindMemory)
	rs := &rackStack{
		rack:   rack,
		sdmc:   sdmc,
		scale:  scale,
		accels: make([]*accel.Middleware, len(accels)),
		ddr:    make([]*mem.DDRController, len(mems)),
	}
	for _, b := range accels {
		ab, _ := sdmc.Accel(b.ID)
		mw, err := accel.NewMiddleware(ab, cfg.Accel)
		if err != nil {
			return nil, err
		}
		rs.accels[sdmc.AccelOrdinal(b.ID)] = mw
	}
	for _, b := range mems {
		ctrl, err := mem.NewDDR(mem.DDR4_2400)
		if err != nil {
			return nil, err
		}
		rs.ddr[sdmc.MemoryOrdinal(b.ID)] = ctrl
	}
	return rs, nil
}

// memController returns a memory brick's DDR controller.
func (rs *rackStack) memController(id topo.BrickID) (*mem.DDRController, bool) {
	if ord := rs.sdmc.MemoryOrdinal(id); ord >= 0 {
		return rs.ddr[ord], true
	}
	return nil, false
}

// accelerator returns an accelerator brick's middleware.
func (rs *rackStack) accelerator(id topo.BrickID) (*accel.Middleware, bool) {
	if ord := rs.sdmc.AccelOrdinal(id); ord >= 0 {
		return rs.accels[ord], true
	}
	return nil, false
}

// Datacenter is an assembled dReDBox rack with its software stack — the
// 1-rack special case of the Pod facade, kept as its own type so
// single-rack callers never pay the pod tier.
//
// Clock contract: the facade's control-plane operations (CreateVM,
// ScaleUpVM, ScaleDownVM, AttachAccelerator, Offload, MigrateVM)
// advance the virtual clock past their completion; pure datapath
// measurements (RemoteAccess) and queries never move it. Advance is the
// only way to pass time explicitly.
type Datacenter struct {
	clock

	cfg    Config
	fabric *optical.Fabric
	stack  *rackStack
}

// clock is a facade's virtual clock.
type clock struct{ now sim.Time }

// Now returns the facade's virtual clock.
func (c *clock) Now() sim.Time { return c.now }

// Advance moves the virtual clock forward explicitly. Facade
// control-plane calls advance the clock themselves (see the clock
// contracts); Advance is for modeling think time between them.
func (c *clock) Advance(dur sim.Duration) error {
	if dur < 0 {
		return fmt.Errorf("core: cannot advance clock by %v", dur)
	}
	c.now = c.now.Add(dur)
	return nil
}

// New assembles a datacenter from the config.
func New(cfg Config) (*Datacenter, error) {
	rack, err := topo.Build(cfg.Topology)
	if err != nil {
		return nil, err
	}
	fabric, err := newRackFabric(cfg)
	if err != nil {
		return nil, err
	}
	sdmc, err := sdm.NewController(rack, fabric, cfg.Bricks, cfg.SDM)
	if err != nil {
		return nil, err
	}
	stack, err := newRackStack(rack, sdmc, cfg)
	if err != nil {
		return nil, err
	}
	return &Datacenter{
		cfg:    cfg,
		fabric: fabric,
		stack:  stack,
	}, nil
}

// newRackFabric assembles one rack's circuit switch and fabric from the
// config.
func newRackFabric(cfg Config) (*optical.Fabric, error) {
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

// Config returns the configuration the datacenter was assembled from.
func (d *Datacenter) Config() Config { return d.cfg }

// MemController returns the DDR controller of a memory brick — the
// datapath model experiments time remote accesses against.
func (d *Datacenter) MemController(id topo.BrickID) (*mem.DDRController, bool) {
	return d.stack.memController(id)
}

// SDM exposes the orchestration layer.
func (d *Datacenter) SDM() *sdm.Controller { return d.stack.sdmc }

// ScaleController exposes the Scale-up controller (for concurrency
// experiments that need explicit request timing).
func (d *Datacenter) ScaleController() *scaleup.Controller { return d.stack.scale }

// Fabric exposes the optical circuit fabric.
func (d *Datacenter) Fabric() *optical.Fabric { return d.fabric }

// Rack exposes the topology.
func (d *Datacenter) Rack() *topo.Rack { return d.stack.rack }

// CreateVM boots a VM with the given resources; the clock advances past
// the creation delay (facade semantics are sequential).
func (d *Datacenter) CreateVM(id string, vcpus int, memory brick.Bytes) (scaleup.Result, error) {
	_, res, err := d.stack.scale.CreateVM(d.now, hypervisor.VMID(id), hypervisor.VMSpec{VCPUs: vcpus, Memory: memory})
	if err != nil {
		return scaleup.Result{}, err
	}
	d.now = res.Done
	return res, nil
}

// ScaleUpVM grows a VM's memory with disaggregated remote memory; the
// clock advances past the request's completion.
func (d *Datacenter) ScaleUpVM(id string, size brick.Bytes) (scaleup.Result, error) {
	res, err := d.stack.scale.ScaleUp(d.now, hypervisor.VMID(id), size)
	if err != nil {
		return scaleup.Result{}, err
	}
	d.now = res.Done
	return res, nil
}

// ScaleDownVM releases remote memory from a VM; the clock advances past
// the request's completion.
func (d *Datacenter) ScaleDownVM(id string, size brick.Bytes) (scaleup.Result, error) {
	res, err := d.stack.scale.ScaleDown(d.now, hypervisor.VMID(id), size)
	if err != nil {
		return scaleup.Result{}, err
	}
	d.now = res.Done
	return res, nil
}

// VM returns the hypervisor view of a VM.
func (d *Datacenter) VM(id string) (*hypervisor.VM, bool) {
	return d.stack.scale.VM(hypervisor.VMID(id))
}

// attachmentAt resolves a VM-relative remote offset onto the attachment
// covering it. A VM's remote window is the concatenation of its live
// attachments in attach order; the returned offset is relative to the
// selected attachment's base. Accesses may not straddle attachments —
// hardware transactions never span TGL windows.
func attachmentAt(atts []*sdm.Attachment, offset uint64, size int) (*sdm.Attachment, uint64, error) {
	var cum uint64
	for _, att := range atts {
		span := uint64(att.Size())
		if offset < cum+span {
			if offset+uint64(size) > cum+span {
				return nil, 0, fmt.Errorf("core: access [%d,%d) straddles the attachment boundary at %d", offset, offset+uint64(size), cum+span)
			}
			return att, offset - cum, nil
		}
		cum += span
	}
	return nil, 0, fmt.Errorf("core: access [%d,%d) beyond the VM's %d bytes of remote memory", offset, offset+uint64(size), cum)
}

// remoteAccess issues one remote memory transaction at a VM-relative
// offset into the VM's remote window. The memory-side DDR controller is
// resolved through ddrFor because the memory brick may live on another
// rack's stack (brick IDs collide across racks).
func (rs *rackStack) remoteAccess(prof pktnet.Profile, id string, op mem.Op, offset uint64, size int,
	ddrFor func(att *sdm.Attachment, b topo.BrickID) (*mem.DDRController, bool)) (pktnet.Breakdown, error) {
	atts := rs.sdmc.Attachments(id)
	if len(atts) == 0 {
		return pktnet.Breakdown{}, fmt.Errorf("core: VM %q has no remote memory attached", id)
	}
	att, inner, err := attachmentAt(atts, offset, size)
	if err != nil {
		return pktnet.Breakdown{}, err
	}
	node, _ := rs.sdmc.Compute(att.CPU)
	route, err := node.Agent.Glue.TranslateRange(att.Window.Base+inner, uint64(size))
	if err != nil {
		return pktnet.Breakdown{}, err
	}
	ctrl, ok := ddrFor(att, route.Remote.Brick)
	if !ok {
		return pktnet.Breakdown{}, fmt.Errorf("core: no memory controller for r%d.%v", att.MemRack, route.Remote.Brick)
	}
	if att.Circuit != nil {
		prof.FiberMeters = att.Circuit.FiberMeters
	}
	req := mem.Request{Op: op, Addr: route.Remote.Offset, Size: size}
	if att.Mode == sdm.ModePacket {
		// Packet-mode attachments cross both on-brick packet switches
		// and time-share the host circuit with its owner and any other
		// riders.
		sharers := 1 + rs.sdmc.Riders(att)
		return pktnet.SharedRoundTrip(prof, ctrl, req, sharers)
	}
	return pktnet.CircuitRoundTrip(prof, ctrl, req)
}

// RemoteAccess issues one remote memory transaction at a VM-relative
// offset into its remote window (the concatenation of its attachments
// in attach order) and returns the latency breakdown over that
// attachment's path — the datapath a running application experiences.
// As a pure datapath measurement it does not advance the facade clock.
func (d *Datacenter) RemoteAccess(id string, op mem.Op, offset uint64, size int) (pktnet.Breakdown, error) {
	return d.stack.remoteAccess(d.cfg.Packet, id, op, offset, size,
		func(_ *sdm.Attachment, b topo.BrickID) (*mem.DDRController, bool) {
			return d.stack.memController(b)
		})
}

// attachAccelerator reserves an accelerator slot for a VM on this
// rack, ships the bitstream and reconfigures the slot; the caller
// advances its clock by the returned total.
func (rs *rackStack) attachAccelerator(id string, bs accel.Bitstream) (topo.BrickID, int, sim.Duration, error) {
	brickID, slot, orchLat, err := rs.sdmc.ReserveAccel(id, bs.Name)
	if err != nil {
		return topo.BrickID{}, 0, 0, err
	}
	mw, _ := rs.accelerator(brickID)
	var xferLat sim.Duration
	if !mw.Stored(bs.Name) {
		xferLat, err = mw.ReceiveBitstream(bs)
		if err != nil {
			rs.sdmc.ReleaseAccel(brickID, slot)
			return topo.BrickID{}, 0, 0, err
		}
	}
	cfgLat, err := mw.Reconfigure(slot, bs.Name)
	if err != nil {
		rs.sdmc.ReleaseAccel(brickID, slot)
		return topo.BrickID{}, 0, 0, err
	}
	return brickID, slot, orchLat + xferLat + cfgLat, nil
}

// AttachAccelerator reserves an accelerator slot for a VM, ships the
// bitstream to the brick and reconfigures the slot. It returns the
// brick, slot and total latency, and advances the clock past it.
func (d *Datacenter) AttachAccelerator(id string, bs accel.Bitstream) (topo.BrickID, int, sim.Duration, error) {
	brickID, slot, total, err := d.stack.attachAccelerator(id, bs)
	if err != nil {
		return topo.BrickID{}, 0, 0, err
	}
	d.now = d.now.Add(total)
	return brickID, slot, total, nil
}

// Offload runs a near-data task on an accelerator slot and advances the
// clock past its completion.
func (d *Datacenter) Offload(brickID topo.BrickID, slot int, task accel.Task) (sim.Duration, brick.Bytes, error) {
	mw, ok := d.stack.accelerator(brickID)
	if !ok {
		return 0, 0, fmt.Errorf("core: no accelerator brick %v", brickID)
	}
	done, wire, err := mw.Offload(d.now, slot, task)
	if err != nil {
		return 0, 0, err
	}
	lat := done.Sub(d.now)
	d.now = done
	return lat, wire, nil
}

// Accelerator returns the middleware of an accelerator brick.
func (d *Datacenter) Accelerator(id topo.BrickID) (*accel.Middleware, bool) {
	return d.stack.accelerator(id)
}

// MigrateVM moves a VM to another compute brick. Remote memory segments
// stay in place; only circuits and TGL windows are re-pointed, so
// downtime is governed by the brick-local state, not the VM's total
// memory.
func (d *Datacenter) MigrateVM(id string) (scaleup.MigrationResult, error) {
	res, err := d.stack.scale.Migrate(d.now, hypervisor.VMID(id))
	if err != nil {
		return scaleup.MigrationResult{}, err
	}
	d.now = d.now.Add(res.Downtime)
	return res, nil
}

// PowerOffIdle sweeps idle bricks off and returns how many were stopped.
func (d *Datacenter) PowerOffIdle() int { return d.stack.sdmc.PowerOffIdle() }

// Census returns the power census for a brick kind.
func (d *Datacenter) Census(kind topo.BrickKind) sdm.PowerCensus { return d.stack.sdmc.Census(kind) }

// DrawW returns the rack's current electrical draw.
func (d *Datacenter) DrawW() float64 { return d.stack.sdmc.DrawW(brick.DefaultProfiles) }
