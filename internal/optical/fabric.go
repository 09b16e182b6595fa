package optical

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// PortFailedError identifies which brick port's optical path failed, so
// the orchestrator can quarantine exactly that port and retry another.
type PortFailedError struct {
	Port topo.PortID
}

func (e *PortFailedError) Error() string {
	return fmt.Sprintf("optical: path through %v failed", e.Port)
}

// Circuit is a live end-to-end optical circuit between two brick ports.
type Circuit struct {
	A, B     topo.PortID
	swA, swB int // switch port indexes
	// Hops through switch modules; the downscaled prototype loops links
	// through the same module several times, which is how the paper's
	// 6–8 hop numbers arise.
	Hops int
	// FiberMeters is the total fiber length of the path.
	FiberMeters float64
	// ID is a stable integer identity assigned by the allocating rack
	// fabric. It survives free-list recycling (it names the object slot,
	// not the connection), so schedulers can key per-circuit state by
	// integer instead of hashing the pointer.
	ID int
	// Riders counts the packet-mode attachments multiplexed onto the
	// circuit. The field is owned by the one scheduler tier that owns the
	// circuit — exactly the invariant the old per-tier
	// map[*Circuit]int rider tables encoded, without the pointer hashing.
	Riders int
	// Cross-tier route state (one uplink per endpoint), folded onto the
	// circuit so teardown needs no pointer-keyed route map. xTier tags
	// which trunk owns the circuit; xChildA/B are the endpoints' children
	// at that tier (racks of a pod, pods of a row) and xRackA/B the rack
	// within each child (always 0 at the pod tier).
	xTier            int8
	xChildA, xChildB int32
	xRackA, xRackB   int32
	xUpA, xUpB       int32
}

// Cross-tier ownership tags for Circuit.xTier.
const (
	xTierNone int8 = iota
	xTierPod
	xTierRow
)

// PropagationDelay returns the one-way light propagation time.
func (c *Circuit) PropagationDelay() sim.Duration { return PropagationDelay(c.FiberMeters) }

// LossDB returns the total optical attenuation of the path given the
// per-hop switch loss.
func (c *Circuit) LossDB(lossPerHopDB float64) float64 {
	return float64(c.Hops) * lossPerHopDB
}

// Fabric is the rack's circuit fabric: an optical switch plus the mapping
// from brick transceiver ports to switch ports. The SDM Controller uses
// it to realize memory attachments; one circuit carries the transactions
// of one compute↔memory brick pairing.
type Fabric struct {
	sw *Switch
	// portTab is the dense brick-port → switch-port table, indexed
	// [tray][slot][port] (-1 = not attached). Brick IDs are small and
	// dense by construction (topo assigns tray/slot contiguously), so the
	// Connect/Disconnect hot path resolves endpoints with three array
	// loads instead of hashing a topo.PortID struct. The nested tables
	// grow with capacity-preserving appends, so repeated rack assembly
	// reuses the backing arrays.
	portTab  [][][]int32
	attached int
	// ports is the reverse table: switch port -> brick port.
	ports    []topo.PortID
	nextPort int
	// circuits is indexed by switch port — attach assigns them densely,
	// so the busy check and registration on the Connect/Disconnect hot
	// path are array loads instead of struct-keyed map operations. live
	// counts registered endpoints (cross-tier circuits register one
	// endpoint per rack fabric), preserving the old map-length census.
	circuits []*Circuit
	live     int
	// free is the circuit arena: Disconnect (and the cross-tier
	// teardowns) park the retired object here and the next Connect
	// recycles it, so steady attach/detach churn allocates no circuits.
	// IDs are assigned once per object and survive recycling.
	free   []*Circuit
	nextID int

	// DefaultHops is the number of switch hops assigned to new circuits
	// (the downscaled prototype used 6–8; rack-scale single-stage is 1).
	DefaultHops int
	// DefaultFiberMeters is the fiber length assigned to new circuits.
	DefaultFiberMeters float64
}

// NewFabric wraps a switch.
func NewFabric(sw *Switch) *Fabric {
	return &Fabric{
		sw:                 sw,
		circuits:           make([]*Circuit, sw.Config().Ports),
		DefaultHops:        1,
		DefaultFiberMeters: 5,
	}
}

// Switch returns the underlying switch.
func (f *Fabric) Switch() *Switch { return f.sw }

// swPort resolves a brick port to its switch port, or -1.
func (f *Fabric) swPort(p topo.PortID) int {
	if p.Brick.Tray < 0 || p.Brick.Tray >= len(f.portTab) {
		return -1
	}
	tray := f.portTab[p.Brick.Tray]
	if p.Brick.Slot < 0 || p.Brick.Slot >= len(tray) {
		return -1
	}
	slot := tray[p.Brick.Slot]
	if p.Port < 0 || p.Port >= len(slot) {
		return -1
	}
	return int(slot[p.Port])
}

// AttachPort patches a brick transceiver port into the next free switch
// port (done once, at rack assembly time). The port table grows by
// capacity-preserving appends — extending an existing tray or slot row
// reuses its backing array.
func (f *Fabric) AttachPort(p topo.PortID) error {
	if f.swPort(p) >= 0 {
		return fmt.Errorf("optical: port %v already attached", p)
	}
	if p.Brick.Tray < 0 || p.Brick.Slot < 0 || p.Port < 0 {
		return fmt.Errorf("optical: negative port coordinate %v", p)
	}
	if f.nextPort >= f.sw.Config().Ports {
		return fmt.Errorf("optical: switch ports exhausted (%d)", f.sw.Config().Ports)
	}
	for p.Brick.Tray >= len(f.portTab) {
		f.portTab = append(f.portTab, nil)
	}
	tray := f.portTab[p.Brick.Tray]
	for p.Brick.Slot >= len(tray) {
		tray = append(tray, nil)
	}
	slot := tray[p.Brick.Slot]
	for p.Port >= len(slot) {
		slot = append(slot, -1)
	}
	slot[p.Port] = int32(f.nextPort)
	tray[p.Brick.Slot] = slot
	f.portTab[p.Brick.Tray] = tray
	f.ports = append(f.ports, p)
	f.attached++
	f.nextPort++
	return nil
}

// Attached reports whether a brick port has been patched in.
func (f *Fabric) Attached(p topo.PortID) bool {
	return f.swPort(p) >= 0
}

// AttachedPorts returns the number of patched brick ports.
func (f *Fabric) AttachedPorts() int { return f.attached }

// Connect establishes a circuit between two attached brick ports.
// The operation models the orchestration-visible cost: it returns the
// switch reconfiguration time the caller must account for.
func (f *Fabric) Connect(a, b topo.PortID) (*Circuit, sim.Duration, error) {
	swA := f.swPort(a)
	swB := f.swPort(b)
	if swA < 0 {
		return nil, 0, fmt.Errorf("optical: port %v not attached to fabric", a)
	}
	if swB < 0 {
		return nil, 0, fmt.Errorf("optical: port %v not attached to fabric", b)
	}
	if f.circuits[swA] != nil {
		return nil, 0, fmt.Errorf("optical: port %v already carries a circuit", a)
	}
	if f.circuits[swB] != nil {
		return nil, 0, fmt.Errorf("optical: port %v already carries a circuit", b)
	}
	if err := f.sw.Connect(swA, swB); err != nil {
		if errors.Is(err, ErrPortFailed) {
			// Identify the failed endpoint for the caller's quarantine.
			if f.sw.PortFailed(swA) {
				return nil, 0, fmt.Errorf("%w: %v", &PortFailedError{Port: a}, err)
			}
			return nil, 0, fmt.Errorf("%w: %v", &PortFailedError{Port: b}, err)
		}
		return nil, 0, err
	}
	c := f.newCircuit()
	c.A, c.B, c.swA, c.swB = a, b, swA, swB
	c.Hops = f.DefaultHops
	c.FiberMeters = f.DefaultFiberMeters
	f.circuits[swA] = c
	f.circuits[swB] = c
	f.live += 2
	return c, f.sw.Config().ReconfigTime, nil
}

// newCircuit pops a retired circuit off the arena (or allocates the
// first time), fully reset except for its stable ID.
func (f *Fabric) newCircuit() *Circuit {
	if n := len(f.free); n > 0 {
		c := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		id := c.ID
		*c = Circuit{ID: id}
		return c
	}
	f.nextID++
	return &Circuit{ID: f.nextID}
}

// recycle parks a torn-down circuit in the arena. The caller must have
// unregistered it from every circuits table first; any pointers still
// held (journals of committed batches) are dead by contract.
func (f *Fabric) recycle(c *Circuit) {
	f.free = append(f.free, c)
}

// Disconnect tears down a circuit.
func (f *Fabric) Disconnect(c *Circuit) (sim.Duration, error) {
	if c.swA >= len(f.circuits) || c.swB >= len(f.circuits) ||
		f.circuits[c.swA] != c || f.circuits[c.swB] != c {
		return 0, fmt.Errorf("optical: circuit %v<->%v not live", c.A, c.B)
	}
	if err := f.sw.Disconnect(c.swA); err != nil {
		return 0, err
	}
	f.circuits[c.swA] = nil
	f.circuits[c.swB] = nil
	f.live -= 2
	f.recycle(c)
	return f.sw.Config().ReconfigTime, nil
}

// CircuitAt returns the circuit terminating at a brick port, if any.
func (f *Fabric) CircuitAt(p topo.PortID) (*Circuit, bool) {
	sp := f.swPort(p)
	if sp < 0 || f.circuits[sp] == nil {
		return nil, false
	}
	return f.circuits[sp], true
}

// LiveCircuits returns the number of live circuits.
func (f *Fabric) LiveCircuits() int { return f.live / 2 }
