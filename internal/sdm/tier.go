package sdm

// The recursive tier: every tier above the rack, written once. A pod is
// a tier whose children are rack Controllers, a row is a tier whose
// children are PodSchedulers (each itself a tier), and the tier reads
// its children only through tierChild. It owns what the two have in
// common: the placement pickers over its children, the sequential
// entry points (shells over the group commit, or routing to the
// children), the power walks, the spill (spill.go), the group commit
// (groupcommit.go) and the invariant walk (invariants.go).
// PodScheduler and RowScheduler are thin shells over it that type its
// addresses (PodBrickID, RowBrickID) and keep what only one tier has.
//
// A tier names a brick by a topo.RowBrickID path relative to itself:
// its own coordinate (coord: the rack in a pod, the pod in a row) and
// the ones below it. Coordinates above the tier are zero, and a path
// handed to a child has the tier's own coordinate zeroed too.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Tier levels, indexing Controller.crossHosts and tierWords.
const (
	podLevel = iota
	rowLevel
	spillLevels
)

// tierText are the words a tier's error text is built from.
type tierText struct {
	tier  string // the tier's name
	child string // its children's name
	local string // where the failed attempt before the spill ran
	cross string // what the spill crosses
}

var tierWords = [spillLevels]tierText{
	podLevel: {tier: "pod", child: "rack", local: "rack-locally", cross: "cross-rack"},
	rowLevel: {tier: "row", child: "pod", local: "pod-locally", cross: "cross-pod"},
}

// tierChild is a child of a tier: a rack Controller in a pod, a
// PodScheduler in a row. Paths are relative to the child.
type tierChild interface {
	// admitShard plans and commits the child's share of a group-commit
	// admission. It never aborts: a request it cannot finish comes back
	// with Err set (nothing committed) or needSpill (the remote part
	// needs the parent's spill).
	admitShard(reqs []AdmitRequest, out []AdmitResult)
	// evictShard tears the child's share of an eviction down, journaling
	// every step. It returns the first failed request of the share and
	// its error, or (-1, nil).
	evictShard(reqs []EvictRequest, out []EvictResult) (int, error)
	// rollbackEvict undoes the child's last evictShard, given back its
	// share, and returns cause annotated with any step that failed.
	rollbackEvict(reqs []EvictRequest, out []EvictResult, cause error) error

	// freeCores is the child's free cores.
	freeCores() int64
	// computeAtLeast and memoryAtLeast return the child's free cores or
	// pooled bytes, and whether they reach least and the child passes
	// its O(1) screen for a compute reservation or a memory segment. The
	// screen is read only once the sum reaches least, as it costs more.
	// A failed screen is exact; a passed one needs the confirming pick.
	computeAtLeast(vcpus int, localMem brick.Bytes, least int64) (int64, bool)
	memoryAtLeast(size, least brick.Bytes) (brick.Bytes, bool)
	// maxGap is the largest contiguous free gap on any memory brick of
	// the child: the attach doom screen.
	maxGap() brick.Bytes
	// confirmCompute and confirmMemory run the child's own pick and
	// return the brick it found.
	confirmCompute(vcpus int, localMem brick.Bytes) (topo.RowBrickID, bool)
	confirmMemory(size brick.Bytes) (topo.RowBrickID, bool)

	// The child's teardown entry points, which the tier's route to.
	release(id topo.RowBrickID, vcpus int, localMem brick.Bytes) error
	DetachRemoteMemory(att *Attachment) (sim.Duration, error)

	// rackAt resolves a path to its rack; checkBelow reports, in the
	// parent's words, a coordinate below the parent's naming nothing.
	rackAt(p topo.RowBrickID) *Controller
	checkBelow(p topo.RowBrickID) error
	// checkIn runs the invariant walk over child i.
	checkIn(c *invCheck, i int) error

	AppendAttachments(dst []*Attachment, owner string) []*Attachment
	PowerOffIdle() int
	PowerOnAll()
	Census(kind topo.BrickKind) PowerCensus
	DrawW(profiles map[topo.BrickKind]brick.PowerProfile) float64
}

// tier is one tier above the rack.
type tier struct {
	cfg      Config
	level    int
	children []tierChild
	// sw is the tier's own switch, whose draw DrawW adds to the
	// children's.
	sw *optical.Switch
	// crossFabric is the tier's switch as a connector whose endpoints
	// conn fills in.
	crossFabric connector

	// cross lists every live spill in spill order (each stamped with a
	// seq from attachSeq) — the rebalancer's oldest-first walk order,
	// threaded intrusively through the attachments so re-point,
	// rebalance and detach remove in O(1) with no pointer-keyed map.
	cross     crossList
	attachSeq uint64

	counters
	spills uint64

	// spreadFallbacks counts spread choices whose most-free candidate
	// failed its confirming pick, so the choice fell back to confirming
	// every improving candidate.
	spreadFallbacks uint64

	// subTiers are the children's tiers (a row's pods), whose spill
	// sequence counters an aborted admission restores too.
	subTiers []*tier
	// boots is the boot journal the whole stack shares: the row's when
	// the pod belongs to one.
	boots *bootJournal
	// admit and evict are the group commit's reused batch buffers.
	// Every buffer is overwritten or length-reset at the top of a batch,
	// and group commits are serial per tier, so a steady burst train
	// stops allocating.
	admit admitScratch
	evict evictScratch
}

// coord selects the coordinate the tier indexes its children by — the
// rack in a pod, the pod in a row — from a pair of pod and rack fields.
func (t *tier) coord(pod, rack *int) *int {
	if t.level == podLevel {
		return rack
	}
	return pod
}

// childOf is the child a pod and rack coordinate pair names.
func (t *tier) childOf(pod, rack int) int { return *t.coord(&pod, &rack) }

// stampAtt records child c as both endpoints of an attachment the child
// served.
func (t *tier) stampAtt(att *Attachment, c int) {
	*t.coord(&att.CPUPod, &att.CPURack) = c
	*t.coord(&att.MemPod, &att.MemRack) = c
}

// rackAt resolves a path to its rack controller.
func (t *tier) rackAt(p topo.RowBrickID) *Controller {
	return t.children[t.childOf(p.Pod, p.Rack)].rackAt(p)
}

// checkAddr reports an address naming nothing in the tier, in the
// tier's words.
func (t *tier) checkAddr(p topo.RowBrickID) error {
	c := t.childOf(p.Pod, p.Rack)
	if c < 0 || c >= len(t.children) {
		w := &tierWords[t.level]
		return fmt.Errorf("no %s %d in the %s", w.child, c, w.tier)
	}
	return t.children[c].checkBelow(p)
}

// pickCompute applies the placement policy to the child choice of a
// compute reservation, never choosing exclude (-1 for none). It is
// O(children) arithmetic: each child answers the O(1) screen, and only
// the child that could actually win runs its confirming pick. It
// returns the brick the winner's pick found, which the group commit
// carries down so the child does not pick again.
func (t *tier) pickCompute(vcpus int, localMem brick.Bytes, exclude int) (topo.RowBrickID, bool) {
	if t.cfg.Policy == PolicySpread {
		// Winner first: the answer is the most-free child whose confirming
		// pick succeeds (lowest index on ties), so when the most-free child
		// passing the screen confirms, it is the answer after a single
		// pick. Only a failed confirmation (split maxima: the cores fit on
		// one brick, the local memory on another) runs the loop below,
		// which confirms every improving candidate.
		top, topFree := -1, int64(-1)
		for i, c := range t.children {
			if free, ok := c.computeAtLeast(vcpus, localMem, topFree+1); ok && i != exclude {
				top, topFree = i, free
			}
		}
		if top < 0 {
			return topo.RowBrickID{}, false
		}
		if p, ok := t.confirmComputeIn(top, vcpus, localMem); ok {
			return p, true
		}
		t.spreadFallbacks++
		best, bestP, bestFree := -1, topo.RowBrickID{}, int64(-1)
		for i, c := range t.children {
			if free, ok := c.computeAtLeast(vcpus, localMem, bestFree+1); ok && i != exclude {
				if p, ok := t.confirmComputeIn(i, vcpus, localMem); ok {
					best, bestP, bestFree = i, p, free
				}
			}
		}
		return bestP, best >= 0
	}
	// Power-aware and first-fit pack children in index order.
	for i, c := range t.children {
		if _, ok := c.computeAtLeast(vcpus, localMem, 0); ok && i != exclude {
			if p, ok := t.confirmComputeIn(i, vcpus, localMem); ok {
				return p, true
			}
		}
	}
	return topo.RowBrickID{}, false
}

// pickMemory applies the placement policy to the child choice of a
// spill's memory end, never choosing home (-1 for none). It returns the
// brick the winner's confirming pick found, so the spill does not
// descend again.
func (t *tier) pickMemory(size brick.Bytes, home int) (topo.RowBrickID, bool) {
	if t.cfg.Policy == PolicySpread {
		// Winner first, as in pickCompute: confirm the most-free child
		// passing the screen, and fall back to the loop below only if its
		// pick fails (split maxima: the largest gap on a brick with no
		// spare port).
		top := -1
		var topFree brick.Bytes
		for i, c := range t.children {
			if free, ok := c.memoryAtLeast(size, above(top, topFree)); ok && i != home {
				top, topFree = i, free
			}
		}
		if top < 0 {
			return topo.RowBrickID{}, false
		}
		if p, ok := t.confirmMemoryIn(top, size); ok {
			return p, true
		}
		t.spreadFallbacks++
		best, bestP := -1, topo.RowBrickID{}
		var bestFree brick.Bytes
		for i, c := range t.children {
			if free, ok := c.memoryAtLeast(size, above(best, bestFree)); ok && i != home {
				if p, ok := t.confirmMemoryIn(i, size); ok {
					best, bestP, bestFree = i, p, free
				}
			}
		}
		return bestP, best >= 0
	}
	for i, c := range t.children {
		if _, ok := c.memoryAtLeast(size, 0); ok && i != home {
			if p, ok := t.confirmMemoryIn(i, size); ok {
				return p, true
			}
		}
	}
	return topo.RowBrickID{}, false
}

// above is the least free memory that beats the best candidate so far:
// any when there is none.
func above(best int, bestFree brick.Bytes) brick.Bytes {
	if best < 0 {
		return 0
	}
	return bestFree + 1
}

// confirmComputeIn runs child i's confirming compute pick.
func (t *tier) confirmComputeIn(i int, vcpus int, localMem brick.Bytes) (topo.RowBrickID, bool) {
	p, ok := t.children[i].confirmCompute(vcpus, localMem)
	*t.coord(&p.Pod, &p.Rack) = i
	return p, ok
}

// confirmMemoryIn runs child i's confirming memory pick.
func (t *tier) confirmMemoryIn(i int, size brick.Bytes) (topo.RowBrickID, bool) {
	p, ok := t.children[i].confirmMemory(size)
	*t.coord(&p.Pod, &p.Rack) = i
	return p, ok
}

// pickChild is the group commit's planned child choice for a compute
// request after the first: the policy applied to the children's free
// cores at the top of the batch less the cores planned onto them, with
// no confirming pick (a mis-estimate surfaces as a leftover) —
// O(children) arithmetic, reading a child's screen only when it could
// win. -1 for none.
func (t *tier) pickChild(vcpus int, localMem brick.Bytes, free []int64, planned []int) int {
	best, bestFree := -1, int64(-1)
	for i, c := range t.children {
		f := free[i] - int64(planned[i])
		if f < int64(vcpus) || f <= bestFree {
			continue
		}
		if _, ok := c.computeAtLeast(vcpus, localMem, 0); !ok {
			continue
		}
		if t.cfg.Policy != PolicySpread {
			// Power-aware and first-fit pack children in index order.
			return i
		}
		best, bestFree = i, f
	}
	return best
}

// reserveOne is the tier's sequential ReserveCompute: a batch of one
// through the group commit, so the policy picks a child and the child
// the brick. A batch request cannot carry a reservation of no vCPUs, so
// that is refused here, counted on the tier.
func (t *tier) reserveOne(owner string, vcpus int, localMem brick.Bytes) (topo.RowBrickID, sim.Duration, error) {
	if vcpus <= 0 {
		t.requests++
		t.failures++
		return topo.RowBrickID{}, 0, fmt.Errorf("sdm: reserve of %d vcpus", vcpus)
	}
	res, err := t.commitOne(AdmitRequest{Owner: owner, VCPUs: vcpus, LocalMem: localMem})
	if err != nil {
		return topo.RowBrickID{}, 0, err
	}
	return topo.RowBrickID{Pod: res.Pod, Rack: res.Rack, Brick: res.CPU}, res.ComputeLat, nil
}

// release returns cores and local memory to a brick.
func (t *tier) release(id topo.RowBrickID, vcpus int, localMem brick.Bytes) error {
	c := t.childOf(id.Pod, id.Rack)
	if c < 0 || c >= len(t.children) {
		w := &tierWords[t.level]
		return fmt.Errorf("sdm: no %s %d in the %s", w.child, c, w.tier)
	}
	*t.coord(&id.Pod, &id.Rack) = 0
	return t.children[c].release(id, vcpus, localMem)
}

// attachOne is the tier's sequential AttachRemoteMemory: an
// attach-only batch of one through the group commit — inside the
// compute brick's child first (with the child's own cascade), then the
// spill through the tier's switch, then the tier's packet fallback. An
// address naming nothing and a zero-size attachment, which a batch
// request cannot carry, are refused here, counted on the tier.
func (t *tier) attachOne(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	if err := t.checkAddr(cpu); err != nil {
		t.requests++
		t.failures++
		return nil, 0, fmt.Errorf("sdm: %v", err)
	}
	if size == 0 {
		t.requests++
		t.failures++
		// The text the cascade gives: every tier's local attempt and
		// spill refuse the empty segment.
		err := fmt.Errorf("sdm: zero-size attachment")
		local := err
		for lv := podLevel; lv <= t.level; lv++ {
			local = spillFailed(lv, owner, local, err)
		}
		return nil, 0, local
	}
	res, err := t.commitOne(AdmitRequest{Owner: owner, Remote: size, CPU: cpu.Brick, Rack: cpu.Rack, Pod: cpu.Pod})
	if err != nil {
		return nil, 0, err
	}
	return res.Att, res.AttachLat, nil
}

// DetachRemoteMemory tears an attachment down: spilled ones route to
// the spill tier they belong to (the routing lives on the attachment,
// so any entry point works), the rest to the child holding them.
func (t *tier) DetachRemoteMemory(att *Attachment) (sim.Duration, error) {
	if att.spill != nil {
		return att.spill.detachCross(att)
	}
	c := t.childOf(att.CPUPod, att.CPURack)
	if c < 0 || c >= len(t.children) {
		w := &tierWords[t.level]
		return 0, fmt.Errorf("sdm: attachment names %s %d outside the %s", w.child, c, w.tier)
	}
	return t.children[c].DetachRemoteMemory(att)
}

// maxMemoryGap is the largest contiguous free gap on any memory brick
// of the tier.
func (t *tier) maxMemoryGap() brick.Bytes {
	var max brick.Bytes
	for _, c := range t.children {
		if g := c.maxGap(); g > max {
			max = g
		}
	}
	return max
}

// Stats returns the tier's cumulative request/failure counters and how
// many attachments spilled through its switch (circuit or packet).
func (t *tier) Stats() (requests, failures, spills uint64) {
	return t.requests, t.failures, t.spills
}

// Attachments returns the live attachments of an owner across the tier
// (a copy, in attach order — an owner's attachments all register on its
// compute rack's controller).
func (t *tier) Attachments(owner string) []*Attachment {
	return t.AppendAttachments(nil, owner)
}

// AppendAttachments appends the owner's live attachments across the
// tier to dst and returns the extended slice — the allocation-free
// variant of Attachments.
func (t *tier) AppendAttachments(dst []*Attachment, owner string) []*Attachment {
	for _, c := range t.children {
		if out := c.AppendAttachments(dst, owner); len(out) > len(dst) {
			return out
		}
	}
	return dst
}

// PowerOffIdle sweeps every child and returns the total bricks stopped.
func (t *tier) PowerOffIdle() int {
	n := 0
	for _, c := range t.children {
		n += c.PowerOffIdle()
	}
	return n
}

// PowerOnAll powers every brick in the tier up.
func (t *tier) PowerOnAll() {
	for _, c := range t.children {
		c.PowerOnAll()
	}
}

// Census aggregates the power census for one brick kind tier-wide by
// walking every rack.
func (t *tier) Census(kind topo.BrickKind) PowerCensus {
	var pc PowerCensus
	for _, c := range t.children {
		cc := c.Census(kind)
		pc.Off += cc.Off
		pc.Idle += cc.Idle
		pc.Active += cc.Active
	}
	return pc
}

// DrawW returns the tier's electrical draw: its own switch plus every
// child (bricks and the switches below).
func (t *tier) DrawW(profiles map[topo.BrickKind]brick.PowerProfile) float64 {
	w := t.sw.PowerW()
	for _, c := range t.children {
		w += c.DrawW(profiles)
	}
	return w
}

// A rack Controller is a tier's leaf child: its screens are its index
// roots and its paths name only the brick.

func (c *Controller) freeCores() int64 { return c.cpuIdx.rankSum() }

func (c *Controller) computeAtLeast(vcpus int, localMem brick.Bytes, least int64) (int64, bool) {
	free := c.cpuIdx.rankSum()
	return free, free >= least && c.CanPlaceCompute(vcpus, localMem)
}

func (c *Controller) memoryAtLeast(size, least brick.Bytes) (brick.Bytes, bool) {
	free := c.FreeMemory()
	return free, free >= least && c.CanPlaceMemory(size)
}

func (c *Controller) maxGap() brick.Bytes { return c.MaxMemoryGap() }

func (c *Controller) confirmCompute(vcpus int, localMem brick.Bytes) (topo.RowBrickID, bool) {
	id, ok := c.pickCompute(vcpus, localMem, -1)
	return topo.RowBrickID{Brick: id}, ok
}

func (c *Controller) confirmMemory(size brick.Bytes) (topo.RowBrickID, bool) {
	id, ok := c.pickMemory(size)
	return topo.RowBrickID{Brick: id}, ok
}

func (c *Controller) release(id topo.RowBrickID, vcpus int, localMem brick.Bytes) error {
	return c.ReleaseCompute(id.Brick, vcpus, localMem)
}

func (c *Controller) rackAt(topo.RowBrickID) *Controller { return c }

func (c *Controller) checkBelow(topo.RowBrickID) error { return nil }
