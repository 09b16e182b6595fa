package sdm

// Batched group-commit teardown, pod tier — the inverse of podbatch.go.
// EvictBatch retires a burst of consumers in three deterministic
// phases, mirroring AdmitBatch's shape, all on the caller's goroutine:
//
//  1. Partition: every request already names its rack; its rack-local
//     attachments and compute release pack into a per-rack
//     ReleaseBatch sub-batch, and its cross-rack attachments queue for
//     the pod phase (their circuits ride the pod switch, which no rack
//     shard owns).
//  2. Teardown: each rack's sub-batch runs through its own
//     Controller.ReleaseBatch, in rack order, with one deferred
//     index-leaf refresh per touched brick.
//  3. Cross phase: cross-rack attachments detach in request order
//     through the spill tier's batchDetachCross (spill.go), journaled
//     like the rack teardowns.
//
// Eviction is all-or-nothing: if any teardown definitively fails, the
// journals replay in reverse — segments re-carve at their exact
// offsets, the exact ports re-acquire, circuits rebuild, packet riders
// re-key onto the rebuilt circuits, crossOrder re-threads without
// re-stamping spill sequence numbers, and released compute re-reserves
// — leaving brick state, placement indexes, the power census and the
// rebalancer's walk order answering exactly as before the batch.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// EvictRequest is one retirement of a VM-shaped consumer in a pod
// batch: the attachments to tear down (rack-local and cross-rack mixed,
// in the caller's order — scale-down paths pass newest-first so packet
// riders precede their hosts) and the compute reservation to return.
type EvictRequest struct {
	// Owner tags the consumer being retired.
	Owner string
	// CPU and Rack name the compute brick whose reservation is released.
	CPU  topo.BrickID
	Rack int
	// Pod names CPU's pod at the row tier; lower tiers ignore it.
	Pod int
	// VCPUs and LocalMem are the compute reservation being returned; 0/0
	// marks a detach-only request.
	VCPUs    int
	LocalMem brick.Bytes
	// Atts are the attachments to detach.
	Atts []*Attachment
}

// EvictResult is one retirement's outcome.
type EvictResult struct {
	// DetachLat is the summed orchestration latency of the request's
	// detaches, each accounted exactly as the per-request path would.
	DetachLat sim.Duration
	// Detached counts attachments torn down.
	Detached int
}

// crossItem queues one cross-rack attachment for the serial pod phase,
// remembering which request it settles into.
type crossItem struct {
	req int
	att *Attachment
}

// evictScratch is EvictBatch's reused partition state. Every buffer is
// either fully overwritten or truncated to zero length at the top of a
// batch, so nothing leaks between calls; the shared atts backing is
// pre-sized to the batch's total attachment count before the partition
// loop, so the per-request sub-slices carved out of it never move.
type evictScratch struct {
	cross   []crossItem
	relReqs []ReleaseRequest
	subReq  []ReleaseRequest
	subOut  []ReleaseResult
	atts    []*Attachment
	counts  []int
	offsets []int
	pos     []int
	fill    []int
	podLog  []detachUndo
	// shardN records how many requests the last evictShard processed,
	// so a rollback re-reserves exactly those requests' compute out of
	// this scratch.
	shardN int
}

// EvictBatch retires a burst of consumers pod-wide. Results are in
// request order. On error, the whole batch rolls back and nothing
// remains evicted.
//
// The partition buffers live on the scheduler and are reused across
// batches (EvictBatch is serial at the pod tier), so steady churn pays
// one allocation per batch: the caller's result slice.
func (s *PodScheduler) EvictBatch(reqs []EvictRequest) ([]EvictResult, error) {
	out := make([]EvictResult, len(reqs))
	return out, s.EvictBatchInto(reqs, out, 0)
}

// EvictBatchInto is EvictBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten. workers is unused:
// the group commit runs on the caller's goroutine.
func (s *PodScheduler) EvictBatchInto(reqs []EvictRequest, out []EvictResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	for i := range reqs {
		if req := &reqs[i]; req.Rack < 0 || req.Rack >= len(s.racks) {
			return fmt.Errorf("sdm: batch eviction request %d (%q): no rack %d in the pod", i, req.Owner, req.Rack)
		}
	}
	seqStart := s.attachSeq
	if failed, err := s.evictShard(reqs, out); err != nil {
		cause := s.rollbackEvict(seqStart, err)
		return fmt.Errorf("sdm: batch eviction rolled back at request %d (%q): %w", failed, reqs[failed].Owner, cause)
	}
	// Epilogue: the batch committed, so every torn-down attachment is
	// dead — drain them into their compute rack's arena in request order.
	for i := range reqs {
		for _, att := range reqs[i].Atts {
			s.racks[reqs[i].Rack].freeAttachment(att)
		}
	}
	return nil
}

// evictShard runs the three teardown phases over validated requests —
// the pod's own EvictBatch and one pod's share of a row batch alike —
// journaling every step instead of rolling back. It returns the index
// of the first failed request in request order and its error, or
// (-1, nil) on success; the caller owns the rollback.
func (s *PodScheduler) evictShard(reqs []EvictRequest, out []EvictResult) (int, error) {
	s.evictPlan(reqs)
	sc := &s.evict
	for r, n := range sc.counts[:len(s.racks)] {
		if n > 0 {
			lo, hi := sc.offsets[r], sc.offsets[r+1]
			s.racks[r].ReleaseBatch(sc.subReq[lo:hi], sc.subOut[lo:hi])
		}
	}
	return s.evictMerge(reqs, out)
}

// evictPlan is phase 1: split each request's attachment list into its
// rack-local share and the cross-rack queue, and pack the per-rack
// ReleaseBatch sub-batches into the pod's reused scratch, preserving
// request order within a rack.
func (s *PodScheduler) evictPlan(reqs []EvictRequest) {
	sc := &s.evict
	sc.shardN = len(reqs)
	total := 0
	for i := range reqs {
		total += len(reqs[i].Atts)
	}
	if cap(sc.atts) < total {
		sc.atts = make([]*Attachment, 0, total)
	}
	if cap(sc.relReqs) < len(reqs) {
		sc.relReqs = make([]ReleaseRequest, len(reqs))
	}
	atts, crossQ := sc.atts[:0], sc.cross[:0]
	relReqs := sc.relReqs[:len(reqs)]
	for i := range reqs {
		req := &reqs[i]
		rr := ReleaseRequest{Owner: req.Owner, CPU: req.CPU, VCPUs: req.VCPUs, LocalMem: req.LocalMem, Rack: req.Rack}
		start := len(atts)
		for _, att := range req.Atts {
			if att.spill == &s.spillTier {
				crossQ = append(crossQ, crossItem{req: i, att: att})
			} else {
				atts = append(atts, att)
			}
		}
		rr.Atts = atts[start:len(atts):len(atts)]
		relReqs[i] = rr
	}
	sc.atts, sc.cross = atts, crossQ

	if cap(sc.counts) < len(s.racks) {
		sc.counts = make([]int, len(s.racks))
		sc.offsets = make([]int, len(s.racks)+1)
		sc.fill = make([]int, len(s.racks))
	}
	counts, fill := sc.counts[:len(s.racks)], sc.fill[:len(s.racks)]
	offsets := sc.offsets[:len(s.racks)+1]
	clear(counts)
	for i := range relReqs {
		counts[relReqs[i].Rack]++
	}
	offsets[0] = 0
	for r := range counts {
		offsets[r+1] = offsets[r] + counts[r]
	}
	if cap(sc.subReq) < len(relReqs) {
		sc.subReq = make([]ReleaseRequest, len(relReqs))
		sc.subOut = make([]ReleaseResult, len(relReqs))
		sc.pos = make([]int, len(relReqs))
	}
	subReq := sc.subReq[:len(relReqs)]
	pos := sc.pos[:len(relReqs)]
	copy(fill, offsets[:len(s.racks)])
	for i := range relReqs {
		r := relReqs[i].Rack
		pos[i] = fill[r]
		subReq[fill[r]] = relReqs[i]
		fill[r]++
	}
}

// evictMerge gathers the rack ReleaseBatch results in request order and
// runs the cross-rack phase. The first failed request stops the merge:
// every rack has already run, so the rollback sees all committed
// teardowns in the journals.
func (s *PodScheduler) evictMerge(reqs []EvictRequest, out []EvictResult) (int, error) {
	sc := &s.evict
	relReqs := sc.relReqs[:len(reqs)]
	subOut, pos, crossQ := sc.subOut, sc.pos[:len(reqs)], sc.cross

	podLog := sc.podLog[:0]
	for i := range relReqs {
		if err := subOut[pos[i]].Err; err != nil {
			sc.podLog = podLog
			return i, err
		}
		out[i].DetachLat = subOut[pos[i]].DetachLat
		out[i].Detached = subOut[pos[i]].Detached
	}

	for _, ci := range crossQ {
		lat, err := s.batchDetachCross(ci.att, &podLog)
		if err != nil {
			sc.podLog = podLog
			return ci.req, err
		}
		out[ci.req].DetachLat += lat
		out[ci.req].Detached++
	}
	sc.podLog = podLog
	return -1, nil
}

// rollbackEvict undoes the pod's share of an aborted eviction: the
// cross-rack journal first (last torn down), then the journal of each
// rack the last evictShard ran a ReleaseBatch on, then the compute
// released by that shard's requests; it restores the spill sequence
// counter to seqStart, leaving the pod as if the batch never ran. It
// returns cause annotated with any step that failed to roll back.
//
// Only the shard's racks replay: each of them reset its journal when
// its ReleaseBatch began, while every other rack's journal still holds
// an earlier committed batch's teardowns, which must not be undone. A
// pod the batch never entered has shardN 0 and replays no rack.
func (s *PodScheduler) rollbackEvict(seqStart uint64, cause error) error {
	sc := &s.evict
	for i := len(sc.podLog) - 1; i >= 0; i-- {
		if err := sc.podLog[i].undoDetach(); err != nil {
			cause = fmt.Errorf("%w (and rollback of %q failed: %v)", cause, sc.podLog[i].att.Owner, err)
		}
	}
	sc.podLog = sc.podLog[:0]
	for ri, r := range s.racks {
		if sc.shardN == 0 || sc.counts[ri] == 0 {
			continue
		}
		for i := len(r.undoLog) - 1; i >= 0; i-- {
			if err := r.undoLog[i].undoDetach(); err != nil {
				cause = fmt.Errorf("%w (and rollback of %q failed: %v)", cause, r.undoLog[i].att.Owner, err)
			}
		}
		r.undoLog = r.undoLog[:0]
	}
	for i := sc.shardN - 1; i >= 0; i-- {
		res := &sc.subOut[sc.pos[i]]
		if !res.released {
			continue
		}
		rr := &sc.subReq[sc.pos[i]]
		node := s.racks[rr.Rack].compute(rr.CPU)
		if rr.VCPUs > 0 {
			if err := node.Brick.AllocCores(rr.VCPUs); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
		}
		if rr.LocalMem > 0 {
			if err := node.Brick.AllocLocal(rr.LocalMem); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
		}
		s.racks[rr.Rack].touchCompute(rr.CPU)
		res.released = false
	}
	sc.shardN = 0
	s.attachSeq = seqStart
	return cause
}
