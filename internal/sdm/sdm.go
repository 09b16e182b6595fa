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
	spill *tier
	// seq is the spill tier's sequence number, the rebalancer's
	// oldest-first walk order; zero for attachments that never spilled.
	seq uint64
	// slot is the attachment's position in its compute-end rack's live
	// list while registered there, so registration checks and removal
	// are O(1) and never look the owner up by name. stamp comes from
	// that rack's registration counter when the attachment registers:
	// per-owner queries order by it, which reproduces attach order, and
	// a rollback re-links under the original stamp.
	slot  int32
	stamp uint32
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

// cpuAt and memAt are the endpoints' racks as row paths.
func (a *Attachment) cpuAt() topo.RowBrickID { return topo.RowBrickID{Pod: a.CPUPod, Rack: a.CPURack} }
func (a *Attachment) memAt() topo.RowBrickID { return topo.RowBrickID{Pod: a.MemPod, Rack: a.MemRack} }

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

	// live holds every attachment registered on this rack (its compute
	// end), in no particular order: each knows its slot, and removal
	// swaps the last entry into the hole. nextStamp is the registration
	// counter every stamp is drawn from (see register).
	live      []*Attachment
	nextStamp uint32

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

	counters
}

// counters are a controller's or tier's cumulative request and
// failure counts.
type counters struct{ requests, failures uint64 }

// counts is the counters a request about att's spill tier (nil: this
// rack) lands on.
func (c *Controller) counts(spill *tier) *counters {
	if spill == nil {
		return &c.counters
	}
	return &spill.counters
}

// memEnd is the rack controller holding att's segment, for an att
// registered on this rack.
func (c *Controller) memEnd(att *Attachment) *Controller {
	if att.spill == nil {
		return c
	}
	return att.spill.rackAt(att.memAt())
}

// crossWord names what att's spill tier crosses, as a prefix of the
// error text about it ("" for a rack-local attachment).
func crossWord(spill *tier) string {
	if spill == nil {
		return ""
	}
	return tierWords[spill.level].cross + " "
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
		cfg:    cfg,
		rack:   rack,
		fabric: fabric,
		boots:  &bootJournal{},
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

// ComputeOrdinal, MemoryOrdinal and AccelOrdinal return a brick's
// dense ordinal among the rack's bricks of its kind, in (tray, slot)
// order, or -1 for a brick of another kind or none. Layers above key
// their per-brick state by it, in slices with one entry per brick of
// the kind, instead of hashing brick IDs.
func (c *Controller) ComputeOrdinal(id topo.BrickID) int { return c.cpuPos(id) }

// MemoryOrdinal: see ComputeOrdinal.
func (c *Controller) MemoryOrdinal(id topo.BrickID) int { return c.memPos(id) }

// AccelOrdinal: see ComputeOrdinal.
func (c *Controller) AccelOrdinal(id topo.BrickID) int { return c.accPos(id) }

// ComputeBricks returns the rack's compute brick count.
func (c *Controller) ComputeBricks() int { return len(c.computes) }

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

// Attachments returns the live attachments of an owner (a copy, in
// attach order).
func (c *Controller) Attachments(owner string) []*Attachment {
	return c.AppendAttachments(nil, owner)
}

// AppendAttachments appends the live attachments of an owner to dst
// and returns the extended slice — the allocation-free variant for
// callers that reuse a scratch buffer (migration pre-flights, the
// rebalancer) instead of copying per query.
func (c *Controller) AppendAttachments(dst []*Attachment, owner string) []*Attachment {
	start := len(dst)
	for _, att := range c.live {
		if att.Owner == owner {
			dst = append(dst, att)
		}
	}
	sortByStamp(dst[start:])
	return dst
}

// sortByStamp orders one rack's attachments by registration stamp — an
// allocation-free insertion sort: a query sorts one owner's few
// attachments, and only a counter wrap sorts a whole live list.
func sortByStamp(atts []*Attachment) {
	for i := 1; i < len(atts); i++ {
		for j := i; j > 0 && atts[j].stamp < atts[j-1].stamp; j-- {
			atts[j], atts[j-1] = atts[j-1], atts[j]
		}
	}
}

// Stats returns cumulative request/failure counters.
func (c *Controller) Stats() (requests, failures uint64) { return c.requests, c.failures }

// FreeCores returns the rack's total unallocated compute cores — the
// quantity the pod scheduler's spread policy balances across racks. An
// O(1) read of the compute index's rank sum.
func (c *Controller) FreeCores() int {
	return int(c.cpuIdx.rankSum())
}

// FreeMemory returns the rack's total unreserved pooled memory — an
// O(1) read of the memory index's rank sum.
func (c *Controller) FreeMemory() brick.Bytes {
	return brick.Bytes(c.memIdx.rankSum())
}
