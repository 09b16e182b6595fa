// Package sdm implements the Software-Defined Memory Controller (SDM-C)
// and its per-brick agents — the orchestration layer of the dReDBox
// software stack (paper §IV-C).
//
// The SDM-C runs as an autonomous service integrated with an
// OpenStack-like frontend. Its roles, quoted from the paper:
// (a) receive VM/bare-metal allocation requests, (b) safely inspect
// resource availability and make a power-consumption-conscious selection
// of resources, (c) safely reserve selected resources, and (d) generate
// all the necessary configurations and push them via appropriate
// interfaces to all involved devices — the circuit switch and the SDM
// Agents that program TGL segment windows on compute bricks.
package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// Policy selects among placement strategies.
type Policy int

const (
	// PolicyPowerAware packs allocations onto already-active bricks so
	// idle bricks can be powered off — the paper's mainline policy and
	// the source of the Fig. 12/13 savings.
	PolicyPowerAware Policy = iota
	// PolicyFirstFit takes the first brick (in ID order) with room,
	// regardless of power state. Ablation baseline.
	PolicyFirstFit
	// PolicySpread load-balances: it picks the brick with the most free
	// capacity, maximizing per-consumer bandwidth headroom at the price
	// of touching every brick — the anti-packing ablation baseline.
	PolicySpread
)

func (p Policy) String() string {
	switch p {
	case PolicyFirstFit:
		return "first-fit"
	case PolicySpread:
		return "spread"
	default:
		return "power-aware"
	}
}

// ScanMode selects how the controller's hot-path brick selection runs.
type ScanMode int

const (
	// ScanIndexed (the default) serves picks from the placement indexes
	// maintained at mutation time — O(log n) ordered-tree descents.
	ScanIndexed ScanMode = iota
	// ScanLinear is the pre-index baseline: every pick rescans the brick
	// lists (and every memory fitness probe rescans the segment list).
	// Kept for the equivalence tests and as the benchmark baseline.
	ScanLinear
)

func (s ScanMode) String() string {
	if s == ScanLinear {
		return "linear-scan"
	}
	return "indexed"
}

// Config parameterizes the controller's control-plane latency model and
// datapath provisioning.
type Config struct {
	// DecisionLatency is the cost of inspecting inventory and reserving
	// resources for one request.
	DecisionLatency sim.Duration
	// AgentRTT is one configuration push to an SDM Agent (TGL window
	// install/remove, packet-switch table update).
	AgentRTT sim.Duration
	// BrickBoot is the power-on time of a brick that must be woken to
	// satisfy a request.
	BrickBoot sim.Duration
	// RMSTCapacity is the number of segment windows each compute brick's
	// TGL can hold.
	RMSTCapacity int
	// WindowBase is the physical address where each compute brick's
	// remote-memory window region starts.
	WindowBase uint64
	// Policy is the placement strategy.
	Policy Policy
	// PacketFallback enables the exploratory packet-switched mode when a
	// circuit cannot be provisioned for lack of physical ports: the new
	// attachment rides an existing circuit between the same brick pair,
	// steered by the on-brick packet switches (paper §III).
	PacketFallback bool
	// Scan selects the placement engine: indexed (default) or the
	// pre-index linear-scan baseline.
	Scan ScanMode
}

// DefaultConfig holds representative control-plane costs.
var DefaultConfig = Config{
	DecisionLatency: 500 * sim.Microsecond,
	AgentRTT:        2 * sim.Millisecond,
	BrickBoot:       3 * sim.Second,
	RMSTCapacity:    32,
	WindowBase:      1 << 40,
	Policy:          PolicyPowerAware,
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.DecisionLatency < 0 || c.AgentRTT < 0 || c.BrickBoot < 0 {
		return fmt.Errorf("sdm: negative latency in config")
	}
	if c.RMSTCapacity <= 0 {
		return fmt.Errorf("sdm: RMST capacity must be positive, got %d", c.RMSTCapacity)
	}
	if c.WindowBase == 0 {
		return fmt.Errorf("sdm: window base must be nonzero")
	}
	return nil
}

// Agent is the SDM Agent running on one dCOMPUBRICK's OS: it receives
// configurations from the controller and applies them to the local TGL.
type Agent struct {
	Brick topo.BrickID
	Glue  *tgl.Glue
}

// ComputeNode pairs a compute brick with its agent, plus the
// controller-side TGL window allocator cursor for that brick (kept here
// rather than in a controller map so the hot attach path touches the
// node it already holds).
type ComputeNode struct {
	Brick *brick.Compute
	Agent *Agent

	nextWindow uint64
}

// Attachment is one live remote-memory binding: a segment on a
// dMEMBRICK, a circuit through the optical fabric, and a TGL window on
// the consuming dCOMPUBRICK.
type Attachment struct {
	Owner   string
	CPU     topo.BrickID
	Segment *brick.Segment
	Circuit *optical.Circuit
	CPUPort topo.PortID
	MemPort topo.PortID
	Window  tgl.Entry
	// Mode records whether the attachment owns its circuit (ModeCircuit)
	// or rides another attachment's circuit in packet mode (ModePacket).
	Mode AttachMode

	// CPURack and MemRack are the pod rack indexes of the two endpoints.
	// In a single-rack deployment both are zero; they differ only for
	// attachments spilled across the pod tier.
	CPURack, MemRack int
	// CPUPod and MemPod are the row pod indexes of the two endpoints.
	// Zero below the row tier; they differ only for attachments spilled
	// across the row tier.
	CPUPod, MemPod int
	// spill, when non-nil, marks a spilled attachment — cross-rack in a
	// pod, cross-pod in a row — and names the spill tier that owns its
	// bookkeeping: detach and rider queries route there, so rack-local
	// callers (scale-up controllers) handle spills without knowing the
	// tier.
	spill *spillTier
	// seq is the spill tier's sequence number, the rebalancer's
	// oldest-first walk order; zero for attachments that never spilled.
	seq uint64
	// ownerID is Owner interned against the registering (compute-end)
	// controller's owner table, so every hot-path registry lookup is a
	// slice index instead of a string hash.
	ownerID int32
	// crossPrev/crossNext thread the owning spill tier's
	// oldest-first walk order through the attachments themselves — the
	// intrusive replacement for the old list.List + map[*Attachment]
	// element table. An attachment is on at most one tier's list.
	crossPrev, crossNext *Attachment
}

// CrossRack reports whether the attachment crosses the pod tier.
func (a *Attachment) CrossRack() bool { return a.CPURack != a.MemRack }

// CrossPod reports whether the attachment crosses the row tier.
func (a *Attachment) CrossPod() bool { return a.CPUPod != a.MemPod }

// Size returns the attachment's capacity.
func (a *Attachment) Size() brick.Bytes { return a.Segment.Size }

// Controller is the SDM-C.
type Controller struct {
	cfg    Config
	rack   *topo.Rack
	fabric *optical.Fabric

	// Dense brick registries: computeOrder/memoryOrder/accelOrder are
	// canonical (tray, slot)-ordered ID lists, the brick slices are
	// parallel to them (ordinal == order position), and the pos tables
	// map [tray][slot] → ordinal (-1 = not that kind). Every hot-path
	// registry access is an array load; nothing hashes a topo.BrickID.
	computes []*ComputeNode
	memories []*brick.Memory
	accels   []*brick.Accel

	computeOrder []topo.BrickID
	memoryOrder  []topo.BrickID
	accelOrder   []topo.BrickID

	cpuPosTab, memPosTab, accPosTab [][]int32

	// attachments is indexed by interned owner ID (see internOwner);
	// owners is the reverse table. IDs are never freed — the table
	// mirrors the old map's key lifetime, where an owner's (possibly
	// empty) slot persisted across re-admissions.
	attachments [][]*Attachment
	ownerIDs    map[string]int32
	owners      []string

	// circuitHosts indexes circuit-mode attachments by compute ordinal so
	// the packet fallback can find a host circuit deterministically.
	// (Packet-rider counts live on the circuits themselves now:
	// optical.Circuit.Riders.)
	circuitHosts [][]*Attachment
	// crossHosts is the same index for the spill circuits leaving this
	// rack, one per spill level (pod, row), allocated by the tier that
	// owns the level: the hosts its packet fallback rides.
	crossHosts [spillLevels][][]*Attachment

	// bareMetal maps compute ordinals to the tenant holding the brick
	// exclusively ("" = none); bareMetalCount tracks occupancy.
	bareMetal      []string
	bareMetalCount int

	// attFree is the attachment arena: batch epilogues park retired
	// attachments here and the admission paths recycle them, so
	// steady-state churn allocates no Attachment objects.
	attFree []*Attachment

	// cpuIdx/memIdx are the placement indexes (see index.go), whose leaf
	// positions are exactly the brick ordinals above.
	cpuIdx, memIdx *placementIndex

	// batch is the batch-admission planning context (see batch.go),
	// allocated on first use and reused across batches.
	batch *batchState
	// boots journals the bricks an in-flight batch admission powers on
	// so an abort can power them back down (see batch.go). It is the
	// controller's own journal, or its pod's or row's when it belongs
	// to one.
	boots *bootJournal
	// undoLog journals the teardowns of this rack's last release batch
	// so an aborting eviction can restore them exactly (see
	// teardown.go).
	undoLog []detachUndo

	// agg, when non-nil, is the pod-level aggregate summary this rack
	// rolls up into (see agg.go); aggSlot is the rack's slot in it.
	// Installed by the row tier so pod choice reads cached per-pod
	// summaries instead of re-summing racks.
	agg     *podAgg
	aggSlot int

	requests uint64
	failures uint64
}

// BrickConfigs carries per-kind construction parameters for the bricks
// the controller instantiates from the rack topology.
type BrickConfigs struct {
	Compute brick.ComputeConfig
	Memory  brick.MemoryConfig
	Accel   brick.AccelConfig
}

// NewController builds the orchestration view of a rack: live brick
// objects, every transceiver port patched into the optical fabric, and
// an SDM Agent with an empty RMST on each compute brick.
func NewController(rack *topo.Rack, fabric *optical.Fabric, bc BrickConfigs, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:      cfg,
		rack:     rack,
		fabric:   fabric,
		ownerIDs: make(map[string]int32),
		boots:    &bootJournal{},
	}
	setPos := func(tab *[][]int32, id topo.BrickID, ord int) {
		for id.Tray >= len(*tab) {
			*tab = append(*tab, nil)
		}
		row := (*tab)[id.Tray]
		for id.Slot >= len(row) {
			row = append(row, -1)
		}
		row[id.Slot] = int32(ord)
		(*tab)[id.Tray] = row
	}
	for _, b := range rack.Bricks() {
		bcCompute := bc.Compute
		bcCompute.Ports = b.Spec.Ports
		bcMemory := bc.Memory
		bcMemory.Ports = b.Spec.Ports
		bcAccel := bc.Accel
		bcAccel.Ports = b.Spec.Ports
		switch b.Spec.Kind {
		case topo.KindCompute:
			cb := brick.NewCompute(b.ID, bcCompute)
			table, err := tgl.NewRMST(cfg.RMSTCapacity)
			if err != nil {
				return nil, err
			}
			setPos(&c.cpuPosTab, b.ID, len(c.computeOrder))
			c.computes = append(c.computes, &ComputeNode{
				Brick:      cb,
				Agent:      &Agent{Brick: b.ID, Glue: tgl.NewGlue(b.ID, table)},
				nextWindow: cfg.WindowBase,
			})
			c.computeOrder = append(c.computeOrder, b.ID)
		case topo.KindMemory:
			setPos(&c.memPosTab, b.ID, len(c.memoryOrder))
			c.memories = append(c.memories, brick.NewMemory(b.ID, bcMemory))
			c.memoryOrder = append(c.memoryOrder, b.ID)
		case topo.KindAccel:
			setPos(&c.accPosTab, b.ID, len(c.accelOrder))
			c.accels = append(c.accels, brick.NewAccel(b.ID, bcAccel))
			c.accelOrder = append(c.accelOrder, b.ID)
		}
		for p := 0; p < b.Spec.Ports; p++ {
			if err := fabric.AttachPort(topo.PortID{Brick: b.ID, Port: p}); err != nil {
				return nil, fmt.Errorf("sdm: patching %v port %d: %w", b.ID, p, err)
			}
		}
	}
	if len(c.computes) == 0 {
		return nil, fmt.Errorf("sdm: rack has no compute bricks")
	}
	c.circuitHosts = make([][]*Attachment, len(c.computes))
	c.bareMetal = make([]string, len(c.computes))
	c.buildIndexes()
	return c, nil
}

// posIn resolves a brick ID against a [tray][slot] → ordinal table.
func posIn(tab [][]int32, id topo.BrickID) int {
	if id.Tray < 0 || id.Tray >= len(tab) {
		return -1
	}
	row := tab[id.Tray]
	if id.Slot < 0 || id.Slot >= len(row) {
		return -1
	}
	return int(row[id.Slot])
}

// cpuPos returns the compute ordinal of a brick ID, or -1.
func (c *Controller) cpuPos(id topo.BrickID) int { return posIn(c.cpuPosTab, id) }

// memPos returns the memory ordinal of a brick ID, or -1.
func (c *Controller) memPos(id topo.BrickID) int { return posIn(c.memPosTab, id) }

// accPos returns the accelerator ordinal of a brick ID, or -1.
func (c *Controller) accPos(id topo.BrickID) int { return posIn(c.accPosTab, id) }

// compute returns the compute node for a brick ID, or nil.
func (c *Controller) compute(id topo.BrickID) *ComputeNode {
	if p := c.cpuPos(id); p >= 0 {
		return c.computes[p]
	}
	return nil
}

// memory returns the memory brick object for a brick ID, or nil.
func (c *Controller) memory(id topo.BrickID) *brick.Memory {
	if p := c.memPos(id); p >= 0 {
		return c.memories[p]
	}
	return nil
}

// Compute returns the compute node for a brick.
func (c *Controller) Compute(id topo.BrickID) (*ComputeNode, bool) {
	n := c.compute(id)
	return n, n != nil
}

// Memory returns the memory brick object.
func (c *Controller) Memory(id topo.BrickID) (*brick.Memory, bool) {
	m := c.memory(id)
	return m, m != nil
}

// Accel returns the accelerator brick object.
func (c *Controller) Accel(id topo.BrickID) (*brick.Accel, bool) {
	if p := c.accPos(id); p >= 0 {
		return c.accels[p], true
	}
	return nil, false
}

// internOwner resolves an owner name to its dense ID, assigning the
// next one on first sight. Group commits run on the caller's
// goroutine, so the table needs no locking.
func (c *Controller) internOwner(owner string) int32 {
	if id, ok := c.ownerIDs[owner]; ok {
		return id
	}
	id := int32(len(c.owners))
	c.ownerIDs[owner] = id
	c.owners = append(c.owners, owner)
	c.attachments = append(c.attachments, nil)
	return id
}

// attachmentsOf returns the registry slot the attachment registers in —
// the interned-ID fast path for the old attachments[att.Owner] lookup.
func (c *Controller) attachmentsOf(att *Attachment) []*Attachment {
	return c.attachments[att.ownerID]
}

// newAttachment pops a recycled attachment off the arena (or allocates
// one), fully zeroed.
func (c *Controller) newAttachment() *Attachment {
	if n := len(c.attFree); n > 0 {
		att := c.attFree[n-1]
		c.attFree[n-1] = nil
		c.attFree = c.attFree[:n-1]
		*att = Attachment{}
		return att
	}
	return &Attachment{}
}

// freeAttachment parks a detached attachment in the arena. Only batch
// epilogues call this — at that point the journals that referenced the
// attachment are dead by contract, and per-request callers that hold
// the pointer have been handed their results already.
func (c *Controller) freeAttachment(att *Attachment) {
	c.attFree = append(c.attFree, att)
}

// Attachments returns the live attachments of an owner (a copy).
func (c *Controller) Attachments(owner string) []*Attachment {
	return c.AppendAttachments(nil, owner)
}

// AppendAttachments appends the live attachments of an owner to dst
// and returns the extended slice — the allocation-free variant for
// callers that reuse a scratch buffer (migration pre-flights, the
// rebalancer) instead of copying per query.
func (c *Controller) AppendAttachments(dst []*Attachment, owner string) []*Attachment {
	if id, ok := c.ownerIDs[owner]; ok {
		return append(dst, c.attachments[id]...)
	}
	return dst
}

// Stats returns cumulative request/failure counters.
func (c *Controller) Stats() (requests, failures uint64) { return c.requests, c.failures }

// FreeCores returns the rack's total unallocated compute cores — the
// quantity the pod scheduler's spread policy balances across racks. An
// O(1) read of the compute index's rank sum; the linear-scan baseline
// pays the pre-index walk.
func (c *Controller) FreeCores() int {
	if c.cfg.Scan == ScanLinear {
		n := 0
		for _, node := range c.computes {
			n += node.Brick.FreeCores()
		}
		return n
	}
	return int(c.cpuIdx.rankSum())
}

// FreeMemory returns the rack's total unreserved pooled memory — an
// O(1) read of the memory index's rank sum.
func (c *Controller) FreeMemory() brick.Bytes {
	if c.cfg.Scan == ScanLinear {
		var n brick.Bytes
		for _, m := range c.memories {
			n += m.Free()
		}
		return n
	}
	return brick.Bytes(c.memIdx.rankSum())
}
