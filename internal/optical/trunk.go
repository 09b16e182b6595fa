package optical

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// PodProfile parameterizes the inter-rack optical tier: a pod-level
// circuit switch whose ports are trunked to the racks, with its own
// hop, fiber and reconfiguration profile. Cross-rack circuits traverse
// both rack switches plus the pod switch and run over much longer
// fiber, so a cross-rack attachment is deliberately more expensive than
// an intra-rack one — the quantity the pod scheduler trades against
// rack-local capacity.
type PodProfile struct {
	// Switch is the pod-level circuit switch module.
	Switch SwitchConfig
	// UplinksPerRack is the number of pod-switch ports trunked to each
	// rack. One cross-rack circuit consumes one uplink on each end, so
	// this bounds a rack's concurrent cross-rack attachments. The
	// matching rack-switch trunk ports are modeled implicitly by this
	// budget.
	UplinksPerRack int
	// ExtraHops is the additional switch-hop count a cross-rack circuit
	// pays on top of both racks' default hop counts (the pod switch
	// traversal, plus any amplification stages).
	ExtraHops int
	// InterRackFiberMeters is the rack-to-pod-switch-to-rack fiber run
	// added to both endpoints' intra-rack fiber.
	InterRackFiberMeters float64
}

// DefaultPodProfile is a 384-port pod switch — beam-steering switches
// reconfigure slower at that radix — with 16 uplinks per rack and a
// 40 m inter-rack fiber run.
var DefaultPodProfile = PodProfile{
	Switch: SwitchConfig{
		Ports:           384,
		InsertionLossDB: 1.5,
		PortPowerW:      0.100,
		ReconfigTime:    50 * sim.Millisecond,
	},
	UplinksPerRack:       16,
	ExtraHops:            2,
	InterRackFiberMeters: 40,
}

// RowProfile parameterizes the inter-pod optical tier: a row-level
// circuit switch whose ports are trunked to the pods, with its own hop,
// fiber and reconfiguration profile. A cross-pod circuit traverses both
// rack switches plus the row switch and runs over row-length fiber, so
// it is deliberately more expensive than both an intra-rack and an
// intra-pod circuit — the quantity the row scheduler trades against
// pod-local capacity.
type RowProfile struct {
	// Switch is the row-level circuit switch module.
	Switch SwitchConfig
	// UplinksPerPod is the number of row-switch ports trunked to each
	// pod. One cross-pod circuit consumes one uplink on each end, so
	// this bounds a pod's concurrent cross-pod attachments. The matching
	// pod-switch trunk ports are modeled implicitly by this budget.
	UplinksPerPod int
	// ExtraHops is the additional switch-hop count a cross-pod circuit
	// pays on top of both endpoint racks' default hop counts (the row
	// switch traversal, plus any amplification stages).
	ExtraHops int
	// InterPodFiberMeters is the pod-to-row-switch-to-pod fiber run
	// added to both endpoints' intra-rack fiber.
	InterPodFiberMeters float64
}

// DefaultRowProfile is a 1024-port row switch — reconfiguring slower
// still at that radix — with 24 uplinks per pod and a 120 m inter-pod
// fiber run.
var DefaultRowProfile = RowProfile{
	Switch: SwitchConfig{
		Ports:           1024,
		InsertionLossDB: 2.0,
		PortPowerW:      0.100,
		ReconfigTime:    80 * sim.Millisecond,
	},
	UplinksPerPod:       24,
	ExtraHops:           3,
	InterPodFiberMeters: 120,
}

// Validate rejects unusable pod profiles for the given rack count.
func (p PodProfile) Validate(racks int) error { return p.trunk().validate(racks) }

// Validate rejects unusable row profiles for the given pod count.
func (p RowProfile) Validate(pods int) error { return p.trunk().validate(pods) }

func (p PodProfile) trunk() trunkProfile {
	return trunkProfile{p.Switch, p.UplinksPerRack, p.ExtraHops, p.InterRackFiberMeters, xTierPod}
}

func (p RowProfile) trunk() trunkProfile {
	return trunkProfile{p.Switch, p.UplinksPerPod, p.ExtraHops, p.InterPodFiberMeters, xTierRow}
}

// trunkProfile is a PodProfile or RowProfile with its tier's field
// names read off: the tier switch, the uplinks trunked to each child,
// and the hops and fiber a cross circuit adds.
type trunkProfile struct {
	cfg         SwitchConfig
	uplinks     int
	extraHops   int
	fiberMeters float64
	tier        int8 // the Circuit.xTier tag of the circuits it owns
}

// trunkWords names one trunk tier in error text: the tier, its
// children and what a circuit through it crosses.
type trunkWords struct{ tier, child, cross string }

var trunkText = [...]trunkWords{
	xTierPod: {"pod", "rack", "cross-rack"},
	xTierRow: {"row", "pod", "cross-pod"},
}

func (p trunkProfile) validate(children int) error {
	w := trunkText[p.tier]
	if err := p.cfg.Validate(); err != nil {
		return err
	}
	if children <= 0 {
		return fmt.Errorf("optical: %s needs at least one %s, got %d", w.tier, w.child, children)
	}
	if p.uplinks <= 0 {
		return fmt.Errorf("optical: %s needs at least one uplink per %s, got %d", w.tier, w.child, p.uplinks)
	}
	if need := children * p.uplinks; need > p.cfg.Ports {
		return fmt.Errorf("optical: %d %ss x %d uplinks exceed the %d-port %s switch",
			children, w.child, p.uplinks, p.cfg.Ports, w.tier)
	}
	if p.extraHops < 0 || p.fiberMeters < 0 {
		return fmt.Errorf("optical: negative hop or fiber profile in %s config", w.tier)
	}
	return nil
}

// trunk is one circuit-switch tier above a set of children — the racks
// under a pod switch, or the pods under a row switch. Each child owns
// a trunk of uplink ports on the tier switch. A cross circuit consumes
// one uplink on each endpoint child and one switch crossing, carries
// the profile's extra hops and fiber, and registers in both endpoint
// rack fabrics, so every tier shares the brick-port busy accounting: a
// port never carries circuits on two tiers at once. PodFabric and
// RowFabric embed it and differ only in how they resolve an endpoint.
type trunk struct {
	trunkProfile
	sw *Switch
	// children[i] lists child i's rack fabrics: one for a pod's rack,
	// every rack for a row's pod.
	children [][]*Fabric
	// busy[i][j] marks switch port i*uplinks+j in use.
	busy [][]bool
	// live counts the live cross circuits. Each circuit carries its own
	// route state (endpoint children, racks and uplinks), so teardown is
	// field reads instead of a pointer-keyed route map.
	live int
}

func newTrunk(prof trunkProfile, children [][]*Fabric) (trunk, error) {
	if err := prof.validate(len(children)); err != nil {
		return trunk{}, err
	}
	sw, err := NewSwitch(prof.cfg)
	if err != nil {
		return trunk{}, err
	}
	busy := make([][]bool, len(children))
	for i := range busy {
		busy[i] = make([]bool, prof.uplinks)
	}
	return trunk{trunkProfile: prof, sw: sw, children: children, busy: busy}, nil
}

// FreeUplinks returns child i's free uplinks on the tier switch.
func (t *trunk) FreeUplinks(i int) int {
	if i < 0 || i >= len(t.busy) {
		return 0
	}
	n := 0
	for _, b := range t.busy[i] {
		if !b {
			n++
		}
	}
	return n
}

// CrossCircuits returns the number of live cross circuits.
func (t *trunk) CrossCircuits() int { return t.live }

// PowerW returns the tier's electrical draw (its switch only; the
// switches below account for themselves).
func (t *trunk) PowerW() float64 { return t.sw.PowerW() }

// pair refuses a cross circuit whose endpoint children are out of range
// or the same child.
func (t *trunk) pair(ca, cb int) error {
	w := trunkText[t.tier]
	if ca < 0 || ca >= len(t.children) || cb < 0 || cb >= len(t.children) {
		return fmt.Errorf("optical: %s index out of range (%d, %d)", w.child, ca, cb)
	}
	if ca == cb {
		return fmt.Errorf("optical: %s circuit within %s %d; use the %s fabric", w.cross, w.child, ca, w.child)
	}
	return nil
}

// uplinkPort maps (child, slot) onto the tier switch's port space.
func (t *trunk) uplinkPort(child, slot int) int { return child*t.uplinks + slot }

// acquireUplink claims child i's lowest free uplink slot.
func (t *trunk) acquireUplink(i int) (int, error) {
	for j, busy := range t.busy[i] {
		if !busy {
			t.busy[i][j] = true
			return j, nil
		}
	}
	w := trunkText[t.tier]
	return 0, fmt.Errorf("optical: %s %d has no free %s uplinks (%d total)", w.child, i, w.tier, t.uplinks)
}

// reconfig is a cross circuit's reconfiguration time: the slowest of
// the tier switch and both endpoint rack switches, which retune in
// parallel.
func (t *trunk) reconfig(fa, fb *Fabric) sim.Duration {
	d := t.cfg.ReconfigTime
	if r := fa.sw.Config().ReconfigTime; r > d {
		d = r
	}
	if r := fb.sw.Config().ReconfigTime; r > d {
		d = r
	}
	return d
}

// connect provisions a cross circuit between brick port a (switch port
// swA) on rack ra of child ca and brick port b (swB) on rack rb of
// child cb. The shells have range-checked the endpoints and resolved
// both switch ports.
func (t *trunk) connect(ca, ra int, a topo.PortID, swA int, cb, rb int, b topo.PortID, swB int) (*Circuit, sim.Duration, error) {
	fa, fb := t.children[ca][ra], t.children[cb][rb]
	if fa.circuits[swA] != nil {
		return nil, 0, fmt.Errorf("optical: port %v already carries a circuit", a)
	}
	if fb.circuits[swB] != nil {
		return nil, 0, fmt.Errorf("optical: port %v already carries a circuit", b)
	}
	upA, err := t.acquireUplink(ca)
	if err != nil {
		return nil, 0, err
	}
	upB, err := t.acquireUplink(cb)
	if err != nil {
		t.busy[ca][upA] = false
		return nil, 0, err
	}
	if err := t.sw.Connect(t.uplinkPort(ca, upA), t.uplinkPort(cb, upB)); err != nil {
		t.busy[ca][upA] = false
		t.busy[cb][upB] = false
		return nil, 0, err
	}
	// The circuit comes from (and returns to) the A-endpoint rack's
	// arena, so cross churn recycles objects like rack-local churn.
	c := fa.newCircuit()
	c.A, c.B, c.swA, c.swB = a, b, swA, swB
	c.Hops = fa.DefaultHops + t.extraHops + fb.DefaultHops
	c.FiberMeters = fa.DefaultFiberMeters + t.fiberMeters + fb.DefaultFiberMeters
	// Register at both endpoint rack fabrics so intra-rack Connect
	// refuses the busy ports. Each rack holds one endpoint and the
	// circuit's tier tag names its owner, so Fabric.Disconnect and every
	// other tier's DisconnectCross refuse it.
	fa.circuits[swA] = c
	fb.circuits[swB] = c
	fa.live++
	fb.live++
	c.xTier = t.tier
	c.xChildA, c.xChildB = int32(ca), int32(cb)
	c.xRackA, c.xRackB = int32(ra), int32(rb)
	c.xUpA, c.xUpB = int32(upA), int32(upB)
	t.live++
	return c, t.reconfig(fa, fb), nil
}

// endpoint returns rack r of child i, or nil if either is out of range.
func (t *trunk) endpoint(i, r int32) *Fabric {
	if i < 0 || int(i) >= len(t.children) || r < 0 || int(r) >= len(t.children[i]) {
		return nil
	}
	return t.children[i][r]
}

// disconnect tears a cross circuit down, releasing both uplinks and the
// switch crossing. Like Fabric.Disconnect it first checks that the
// circuit is live at both endpoints, so a circuit from another fabric
// gets an error, never an index panic.
func (t *trunk) disconnect(c *Circuit) (sim.Duration, error) {
	fa, fb := t.endpoint(c.xChildA, c.xRackA), t.endpoint(c.xChildB, c.xRackB)
	if c.xTier != t.tier || fa == nil || fb == nil ||
		c.swA >= len(fa.circuits) || c.swB >= len(fb.circuits) ||
		fa.circuits[c.swA] != c || fb.circuits[c.swB] != c {
		return 0, fmt.Errorf("optical: circuit %v<->%v is not a live %s circuit", c.A, c.B, trunkText[t.tier].cross)
	}
	if err := t.sw.Disconnect(t.uplinkPort(int(c.xChildA), int(c.xUpA))); err != nil {
		return 0, err
	}
	fa.circuits[c.swA] = nil
	fb.circuits[c.swB] = nil
	fa.live--
	fb.live--
	t.busy[c.xChildA][c.xUpA] = false
	t.busy[c.xChildB][c.xUpB] = false
	t.live--
	d := t.reconfig(fa, fb)
	fa.recycle(c)
	return d, nil
}

// PodFabric composes per-rack circuit fabrics under one pod-level
// circuit switch. Intra-rack circuits go through the rack's own Fabric
// untouched; cross-rack circuits go through the pod's trunk, with each
// rack a child.
type PodFabric struct {
	trunk
	racks []*Fabric
}

// NewPodFabric wires the given rack fabrics (index order is the pod's
// rack order) under a pod switch built from the profile.
func NewPodFabric(prof PodProfile, racks []*Fabric) (*PodFabric, error) {
	children := make([][]*Fabric, len(racks))
	for i := range children {
		children[i] = racks[i : i+1 : i+1]
	}
	t, err := newTrunk(prof.trunk(), children)
	if err != nil {
		return nil, err
	}
	return &PodFabric{trunk: t, racks: racks}, nil
}

// Racks returns the rack count.
func (pf *PodFabric) Racks() int { return len(pf.racks) }

// Rack returns the rack-local fabric at index i, or nil if out of range.
func (pf *PodFabric) Rack(i int) *Fabric {
	if i < 0 || i >= len(pf.racks) {
		return nil
	}
	return pf.racks[i]
}

// PodSwitch returns the pod-level switch.
func (pf *PodFabric) PodSwitch() *Switch { return pf.sw }

// ConnectCross provisions a cross-rack circuit between brick port a on
// rack ra and brick port b on rack rb: one uplink on each rack, one
// pod-switch crossing between them. The circuit's hop count and fiber
// length stack both racks' intra-rack defaults on top of the pod
// profile, and the returned reconfiguration time is the slowest stage.
func (pf *PodFabric) ConnectCross(ra int, a topo.PortID, rb int, b topo.PortID) (*Circuit, sim.Duration, error) {
	if err := pf.pair(ra, rb); err != nil {
		return nil, 0, err
	}
	swA := pf.racks[ra].swPort(a)
	if swA < 0 {
		return nil, 0, fmt.Errorf("optical: port %v not attached to rack %d's fabric", a, ra)
	}
	swB := pf.racks[rb].swPort(b)
	if swB < 0 {
		return nil, 0, fmt.Errorf("optical: port %v not attached to rack %d's fabric", b, rb)
	}
	return pf.connect(ra, 0, a, swA, rb, 0, b, swB)
}

// DisconnectCross tears a cross-rack circuit down, releasing both
// uplinks and the pod-switch crossing.
func (pf *PodFabric) DisconnectCross(c *Circuit) (sim.Duration, error) { return pf.disconnect(c) }

// RowFabric composes per-pod fabrics under one row-level circuit
// switch. Intra-pod circuits (rack-local or cross-rack) go through the
// pod's own PodFabric untouched; cross-pod circuits go through the
// row's trunk, with each pod a child.
type RowFabric struct {
	trunk
	pods []*PodFabric
}

// NewRowFabric wires the given pod fabrics (index order is the row's
// pod order) under a row switch built from the profile.
func NewRowFabric(prof RowProfile, pods []*PodFabric) (*RowFabric, error) {
	children := make([][]*Fabric, len(pods))
	for i, pf := range pods {
		children[i] = pf.racks
	}
	t, err := newTrunk(prof.trunk(), children)
	if err != nil {
		return nil, err
	}
	return &RowFabric{trunk: t, pods: pods}, nil
}

// Pods returns the pod count.
func (rf *RowFabric) Pods() int { return len(rf.pods) }

// Pod returns the pod fabric at index i, or nil if out of range.
func (rf *RowFabric) Pod(i int) *PodFabric {
	if i < 0 || i >= len(rf.pods) {
		return nil
	}
	return rf.pods[i]
}

// RowSwitch returns the row-level switch.
func (rf *RowFabric) RowSwitch() *Switch { return rf.sw }

// ConnectCross provisions a cross-pod circuit between brick port a on
// rack ra of pod pa and brick port b on rack rb of pod pb: one row
// uplink on each pod, one row-switch crossing between them. The
// circuit's hop count and fiber length stack both endpoint racks'
// intra-rack defaults on top of the row profile, and the returned
// reconfiguration time is the slowest stage.
func (rf *RowFabric) ConnectCross(pa int, ra int, a topo.PortID, pb int, rb int, b topo.PortID) (*Circuit, sim.Duration, error) {
	if err := rf.pair(pa, pb); err != nil {
		return nil, 0, err
	}
	if ra < 0 || ra >= len(rf.children[pa]) || rb < 0 || rb >= len(rf.children[pb]) {
		return nil, 0, fmt.Errorf("optical: rack index out of range (%d, %d)", ra, rb)
	}
	swA := rf.children[pa][ra].swPort(a)
	if swA < 0 {
		return nil, 0, fmt.Errorf("optical: port %v not attached to pod %d rack %d's fabric", a, pa, ra)
	}
	swB := rf.children[pb][rb].swPort(b)
	if swB < 0 {
		return nil, 0, fmt.Errorf("optical: port %v not attached to pod %d rack %d's fabric", b, pb, rb)
	}
	return rf.connect(pa, ra, a, swA, pb, rb, b, swB)
}

// DisconnectCross tears a cross-pod circuit down, releasing both row
// uplinks and the row-switch crossing.
func (rf *RowFabric) DisconnectCross(c *Circuit) (sim.Duration, error) { return rf.disconnect(c) }
