package sdm

// Batched group-commit admission, rack tier. A scale-up burst admits
// many VM-shaped consumers at once; serving them one Reserve/Attach
// call at a time repays the full scheduler overhead — a policy descent
// per pick and an index-leaf refresh per touched brick per op — for
// every single request. PlaceBatch amortizes all of it across the
// batch:
//
//   - Picks are cached: packing policies (power-aware, first-fit)
//     re-select the same brick for identical back-to-back requirements,
//     so the planner remembers the last pick and revalidates it against
//     live brick state in O(1). The cache is sound because admission
//     only consumes capacity: while no brick changes power state and
//     nothing rolls back, every brick ahead of the cached one in the
//     policy order keeps failing the same requirement it already
//     failed, so the cached brick stays the policy's answer for as long
//     as it still fits. Any power-on or rollback invalidates the cache,
//     and the spread policy (whose ranking shifts on every allocation)
//     never uses it.
//   - Index refreshes are deferred and merged: ops mark touched bricks
//     in a dirty set instead of re-walking the tree per mutation; dirty
//     leaves are flushed only when a fresh descent actually needs the
//     tree (a pick-cache miss) and once more at batch end — one refresh
//     per touched brick instead of one per op.
//   - The attach sequence is the same inline commit the per-request
//     path runs (attachCircuit in lifecycle.go): it serves its memory
//     pick from the batch cache while the rack's batch is open and
//     drops the caches when a failure returns capacity, so a burst
//     allocates no plan machinery.
//
// Selection is byte-identical to the per-request path: cache hits
// return what a fresh descent would return (the invariant above), and
// cache misses flush the dirty leaves first so the descent runs on an
// exact tree. A batch of size 1 therefore reproduces the sequential
// ReserveCompute + AttachRemoteMemory results bit for bit.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// AdmitRequest is one admission of a VM-shaped consumer in a batch:
// a compute reservation (vCPUs plus brick-local memory) and/or one
// remote-memory attachment.
type AdmitRequest struct {
	// Owner tags every resource the admission reserves.
	Owner string
	// VCPUs is the compute reservation; 0 marks an attach-only request
	// (a scale-up of an already-placed VM) whose compute brick is CPU.
	VCPUs int
	// LocalMem is the brick-local memory reserved with the cores.
	LocalMem brick.Bytes
	// Remote is the remote attachment size; 0 admits compute only.
	Remote brick.Bytes
	// CPU names the compute brick of an attach-only request.
	CPU topo.BrickID
	// Rack names CPU's rack at the pod tier; rack controllers ignore it.
	Rack int
	// Pod names CPU's pod at the row tier; lower tiers ignore it.
	Pod int
}

// AdmitResult is one admission's outcome.
type AdmitResult struct {
	// CPU is the compute brick serving the request (the picked brick,
	// or the request's own for attach-only admissions).
	CPU topo.BrickID
	// Rack is CPU's pod rack index (0 on a rack controller).
	Rack int
	// Pod is CPU's row pod index (0 below the row tier).
	Pod int
	// Att is the remote attachment, nil when Remote was 0.
	Att *Attachment
	// ComputeLat and AttachLat are the orchestration latencies of the
	// two parts, with the same accounting as ReserveCompute and
	// AttachRemoteMemory.
	ComputeLat, AttachLat sim.Duration
	// Err marks a failed request; its own steps have been rolled back.
	Err error

	// computeDone records a committed compute reservation (rollback
	// needs it even when the attach part is still pending cross-rack).
	computeDone bool
	// needSpill and localErr mark a shard leftover: the compute part
	// (if any) is committed, but the child could not serve the remote
	// part and the tier above must spill it.
	needSpill bool
	localErr  error
}

// pickCache remembers the last placement descent's answer so identical
// back-to-back requirements skip the tree entirely.
type pickCache struct {
	valid      bool
	pos        int
	minA, minB int64
}

// batchState is a controller's batch-planning context, allocated once
// and reused across batches.
type batchState struct {
	active                 bool
	dirtyCPU, dirtyMem     []int
	inDirtyCPU, inDirtyMem []bool
	cpuCache, memCache     pickCache
}

// invalidateCaches drops both pick caches — required whenever batch
// execution returns capacity (a rollback) or flips a power state, the
// two events that break the caches' monotone-consumption invariant.
func (b *batchState) invalidateCaches() {
	b.cpuCache.valid = false
	b.memCache.valid = false
}

// bootJournal records the bricks an in-flight admission powers on, so
// an aborting batch can power its own boots back down and restore the
// pre-batch power census exactly. Recording covers both the batch
// planner and the sequential entry points the pod and row merge phases
// route through. One journal serves a whole tier: a standalone
// Controller owns its own, NewPodScheduler points its racks at the
// pod's, and NewRowScheduler points every pod and rack at the row's —
// so starting, stopping and replaying it costs what the batch booted,
// never a walk over every rack (DESIGN.md §16).
type bootJournal struct {
	on      bool
	entries []bootEntry
}

// bootEntry is one logged boot: a compute or memory brick and the
// controller that owns it.
type bootEntry struct {
	c   *Controller
	id  topo.BrickID
	mem bool
}

// start begins recording into an emptied journal.
func (j *bootJournal) start() {
	j.on = true
	j.entries = j.entries[:0]
}

// stop stops recording; the entries stay readable for rollback.
func (j *bootJournal) stop() { j.on = false }

// log records one boot of brick id on controller c while recording.
func (j *bootJournal) log(c *Controller, id topo.BrickID, mem bool) {
	if j.on {
		j.entries = append(j.entries, bootEntry{c: c, id: id, mem: mem})
	}
}

// rollback powers down, newest first, every logged brick that ended up
// idle after the teardown — a batch that rolls back leaves the power
// census exactly as it found it. (The boot latency stays spent, as a
// failed lifecycle commit's does.) Each step reads and powers down one
// brick and refreshes only that brick's index leaf, so how the racks'
// entries interleave does not change the state the replay leaves.
func (j *bootJournal) rollback() {
	for i := len(j.entries) - 1; i >= 0; i-- {
		e := &j.entries[i]
		if e.mem {
			if m := e.c.memory(e.id); m.State() != brick.PowerOff && m.IsIdle() {
				m.PowerDown()
				e.c.touchMemory(e.id)
			}
		} else if n := e.c.compute(e.id); n.Brick.State() != brick.PowerOff && n.Brick.IsIdle() {
			n.Brick.PowerDown()
			e.c.touchCompute(e.id)
		}
	}
	j.entries = j.entries[:0]
}

// beginBatch opens batch mode: index touches divert to the dirty sets
// and picks may be served from the caches.
func (c *Controller) beginBatch() {
	if c.batch == nil {
		c.batch = &batchState{
			inDirtyCPU: make([]bool, len(c.computeOrder)),
			inDirtyMem: make([]bool, len(c.memoryOrder)),
		}
	}
	c.batch.active = true
	c.batch.invalidateCaches()
}

// endBatch group-commits the deferred index maintenance — one leaf
// refresh per touched brick — closes batch mode, and folds the rack
// into its pod summary once. Mid-batch flushes leave the summary
// alone: only the row tier reads it, and never while a rack batch is
// open.
func (c *Controller) endBatch() {
	c.flushDirtyCPU()
	c.flushDirtyMem()
	c.batch.active = false
	c.notifyAgg()
}

// flushDirtyCPU refreshes every dirty compute leaf once, recomputing
// each affected ancestor once (touchMany) rather than walking one root
// path per leaf.
func (c *Controller) flushDirtyCPU() {
	b := c.batch
	for _, pos := range b.dirtyCPU {
		b.inDirtyCPU[pos] = false
		c.cpuIdx.stage(pos, c.computeStat(pos))
	}
	c.cpuIdx.touchMany()
	b.dirtyCPU = b.dirtyCPU[:0]
}

// flushDirtyMem refreshes every dirty memory leaf once, recomputing
// each affected ancestor once (touchMany) rather than walking one root
// path per leaf.
func (c *Controller) flushDirtyMem() {
	b := c.batch
	for _, pos := range b.dirtyMem {
		b.inDirtyMem[pos] = false
		c.memIdx.stage(pos, c.memoryStat(pos))
	}
	c.memIdx.touchMany()
	b.dirtyMem = b.dirtyMem[:0]
}

// batchPickCompute is pickCompute under batch planning: cache hit with
// O(1) live revalidation, or dirty-leaf flush plus an exact descent.
func (c *Controller) batchPickCompute(vcpus int, localMem brick.Bytes) (topo.BrickID, bool) {
	b := c.batch
	minA, minB := int64(vcpus), int64(localMem)
	if b.cpuCache.valid && b.cpuCache.minA == minA && b.cpuCache.minB == minB {
		if s := c.computeStat(b.cpuCache.pos); s.fitA >= minA && s.fitB >= minB {
			return c.computeOrder[b.cpuCache.pos], true
		}
	}
	c.flushDirtyCPU()
	id, ok := c.pickComputeIndexed(vcpus, localMem, -1)
	if ok && c.cfg.Policy != PolicySpread {
		b.cpuCache = pickCache{valid: true, pos: c.cpuPos(id), minA: minA, minB: minB}
	} else {
		b.cpuCache.valid = false
	}
	return id, ok
}

// batchPickMemory is pickMemory under batch planning.
func (c *Controller) batchPickMemory(size brick.Bytes) (topo.BrickID, bool) {
	b := c.batch
	minA, minB := int64(size), int64(1)
	if b.memCache.valid && b.memCache.minA == minA && b.memCache.minB == minB {
		if s := c.memoryStat(b.memCache.pos); s.fitA >= minA && s.fitB >= minB {
			return c.memoryOrder[b.memCache.pos], true
		}
	}
	c.flushDirtyMem()
	id, ok := c.pickMemoryIndexed(size)
	if ok && c.cfg.Policy != PolicySpread {
		b.memCache = pickCache{valid: true, pos: c.memPos(id), minA: minA, minB: minB}
	} else {
		b.memCache.valid = false
	}
	return id, ok
}

// PlaceBatch plans and commits a batch of admissions against this rack:
// per request a compute pick, local carve and remote attachment, served
// through the batch planner (cached picks, merged commits, one index
// refresh per touched brick). Requests are served in order; a request
// that cannot be placed has its own steps rolled back and its Err set,
// and later requests still run. out must have len(reqs) slots. Use
// RollbackBatch to undo the whole batch — e.g. when admission is
// all-or-nothing and one request failing voids the rest.
func (c *Controller) PlaceBatch(reqs []AdmitRequest, out []AdmitResult) {
	c.boots.start()
	c.placeBatch(reqs, out, false)
	c.boots.stop()
}

// placeBatch is PlaceBatch with the pod tier's leftover contract: in
// pod mode a request whose remote part cannot be served rack-locally
// keeps its compute reservation and is marked needSpill for the pod
// tier to route cross-rack, instead of failing outright, and a refused
// compute reservation records errNoCompute, whose text the tier builds
// only if the refusal surfaces.
func (c *Controller) placeBatch(reqs []AdmitRequest, out []AdmitResult, pod bool) {
	c.beginBatch()
	for i := range reqs {
		c.admitOne(&reqs[i], &out[i], pod)
	}
	c.endBatch()
}

// admitShard is placeBatch over a pod's share of a group-commit
// admission.
func (c *Controller) admitShard(reqs []AdmitRequest, out []AdmitResult) {
	c.placeBatch(reqs, out, true)
}

// admitOne serves one request of a batch.
func (c *Controller) admitOne(req *AdmitRequest, res *AdmitResult, pod bool) {
	*res = AdmitResult{}
	cpu := req.CPU
	if req.VCPUs > 0 {
		id, lat, err := c.reserveCompute(req.Owner, req.VCPUs, req.LocalMem, nil)
		if err != nil {
			if err == errNoCompute && !pod {
				err = noComputeError(req.VCPUs, req.LocalMem)
			}
			res.Err = err
			return
		}
		cpu, res.CPU, res.ComputeLat, res.computeDone = id, id, lat, true
	} else {
		if req.Remote == 0 {
			res.Err = fmt.Errorf("sdm: empty admission for %q: no vCPUs and no remote memory", req.Owner)
			return
		}
		// A brick the rack does not have fails the attach below, counted
		// as the rack's failed request, like AttachRemoteMemory.
		res.CPU = cpu
	}
	if req.Remote == 0 {
		return
	}
	if pod && c.MaxMemoryGap() < req.Remote {
		// No rack-local brick can hold the segment (the dirty-deferred
		// root only over-estimates, so a failing gate is exact): skip
		// the doomed local plan, mirror the counters, and hand the
		// request to the pod tier's spill path.
		c.requests++
		c.failures++
		res.needSpill = true
		return
	}
	att, lat, err := c.AttachRemoteMemory(req.Owner, cpu, req.Remote)
	if err != nil {
		if pod {
			res.needSpill = true
			res.localErr = err
			return
		}
		if res.computeDone {
			c.releaseComputeBatch(res.CPU, req.VCPUs, req.LocalMem)
			res.computeDone = false
		}
		res.Err = err
		return
	}
	res.Att, res.AttachLat = att, lat
}

// releaseComputeBatch undoes one batch compute reservation in place.
func (c *Controller) releaseComputeBatch(id topo.BrickID, vcpus int, localMem brick.Bytes) {
	node := c.compute(id)
	node.Brick.FreeCoresBack(vcpus)
	if localMem > 0 {
		node.Brick.FreeLocal(localMem)
	}
	c.touchCompute(id)
	c.batch.invalidateCaches()
}

// RollbackBatch undoes every committed admission of a PlaceBatch call
// in reverse request order — attachments detach, compute reservations
// release — restoring brick state and, with it, the placement indexes
// to their pre-batch answers. The first teardown error is returned
// (teardown of fresh admissions cannot ordinarily fail).
func (c *Controller) RollbackBatch(reqs []AdmitRequest, out []AdmitResult) error {
	var first error
	undoAdmitted(c.rackAt, c.boots, reqs, out, func(_ int, err error) {
		if first == nil {
			first = err
		}
	})
	return first
}

// undoAdmitted tears every committed admission in out down in reverse
// request order — the attachment detaches, the compute reservation
// releases, each on the rack rackAt resolves — and then powers the
// batch's boots back down. Every step that fails is handed to fail with
// its request index.
func undoAdmitted(rackAt func(topo.RowBrickID) *Controller, boots *bootJournal, reqs []AdmitRequest, out []AdmitResult, fail func(i int, err error)) {
	for i := len(out) - 1; i >= 0; i-- {
		res := &out[i]
		if res.Att != nil {
			if _, err := rackAt(res.Att.cpuAt()).DetachRemoteMemory(res.Att); err != nil {
				fail(i, err)
			}
			res.Att = nil
		}
		if res.computeDone {
			if err := rackAt(topo.RowBrickID{Pod: res.Pod, Rack: res.Rack}).ReleaseCompute(res.CPU, reqs[i].VCPUs, reqs[i].LocalMem); err != nil {
				fail(i, err)
			}
			res.computeDone = false
		}
	}
	boots.rollback()
}
