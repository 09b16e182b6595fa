package sdm

// Batched group-commit admission, pod tier. AdmitBatch serves a whole
// scale-up burst in three deterministic phases, all on the caller's
// goroutine:
//
//  1. Partition: every request is assigned a rack by the same O(1)
//     index-root aggregates the per-request rack choice reads —
//     free-core rank sums and feasibility maxima — adjusted by the
//     cores already planned onto each rack, so a burst spreads (or
//     packs) the way the policy would have placed it one by one.
//  2. Plan + commit: each rack's sub-batch runs through its own
//     Controller.placeBatch, in rack order. Rack shards share nothing
//     on this path — every controller owns its bricks, fabric and
//     indexes — so each shard's outcome is a pure function of its
//     pre-batch state and its sub-batch.
//  3. Merge: leftovers — requests whose rack could not serve the
//     remote part locally, or whose planned rack turned out full —
//     resolve in request order through the sequential spill machinery
//     (cross-rack circuits through the pod switch, then the pod-tier
//     packet fallback), exactly as the per-request path would; counters
//     fold once per batch, and only the leftover list is walked.
//
// Admission is all-or-nothing: if any request definitively fails, every
// committed admission is torn down in reverse order and the spill
// sequence counter restored, leaving brick state, placement indexes and
// the rebalancer's crossOrder answering exactly as before the batch.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/topo"
)

// admitScratch is a pod's reused admission state: the partition, the
// packed per-rack sub-batches and the merge's leftover list. Every
// buffer is fully overwritten or length-reset at the top of a batch,
// and group commits are serial per scheduler, so one set is safely
// reused across batches — a steady burst train stops allocating. The
// pod's own AdmitBatch and the row's per-pod shards share it; the two
// never run on the same pod at once.
type admitScratch struct {
	rackOf       []int
	plannedCores []int
	counts       []int
	offsets      []int
	subReq       []AdmitRequest
	subOut       []AdmitResult
	pos          []int
	fill         []int
	retry        []bool
	leftover     []int
}

// AdmitBatch admits a burst of requests pod-wide. Results are in
// request order. On error, nothing remains admitted.
func (s *PodScheduler) AdmitBatch(reqs []AdmitRequest) ([]AdmitResult, error) {
	out := make([]AdmitResult, len(reqs))
	return out, s.AdmitBatchInto(reqs, out, 0)
}

// AdmitBatchInto is AdmitBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten. workers is unused:
// the group commit runs on the caller's goroutine.
func (s *PodScheduler) AdmitBatchInto(reqs []AdmitRequest, out []AdmitResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	seqStart := s.attachSeq
	s.boots.start()
	defer s.boots.stop()

	// Validate in request order first — malformed requests surface (and
	// count) exactly as they would mid-partition, since partitioning
	// itself mutates nothing but scratch.
	for i := range reqs {
		req := &reqs[i]
		switch {
		case req.VCPUs < 0:
			return fmt.Errorf("sdm: batch request %d (%q): reserve of %d vcpus", i, req.Owner, req.VCPUs)
		case req.VCPUs == 0:
			if req.Remote == 0 {
				return fmt.Errorf("sdm: batch request %d (%q): no vCPUs and no remote memory", i, req.Owner)
			}
			if req.Rack < 0 || req.Rack >= len(s.racks) {
				s.requests++
				s.failures++
				return fmt.Errorf("sdm: batch request %d (%q): no rack %d in the pod", i, req.Owner, req.Rack)
			}
		}
	}

	// Phases 1 and 2 — partition, then per-rack plan *and commit*.
	s.admitPlan(reqs)
	s.admitCommit()

	// Phase 3a — gather every dispatched result before any merging, so
	// a mid-merge abort sees all committed state in out. The epilogue's
	// request counters fold here, once per batch, and the merge below
	// walks only the leftover list instead of re-scanning every settled
	// request.
	sc := &s.admit
	rackOf, pos, subOut := sc.rackOf[:len(reqs)], sc.pos[:len(reqs)], sc.subOut
	retry := sc.retry[:len(reqs)]
	clear(retry)
	leftover := sc.leftover[:0]
	var batchReqs uint64
	for i := range reqs {
		if pos[i] < 0 {
			retry[i] = true
			leftover = append(leftover, i)
			continue
		}
		out[i] = subOut[pos[i]]
		out[i].Rack = rackOf[i]
		if out[i].Att != nil {
			// Stamp the pod coordinates now: a mid-merge abort routes
			// teardown through them.
			out[i].Att.CPURack, out[i].Att.MemRack = out[i].Rack, out[i].Rack
		}
		if out[i].Err != nil {
			// The planned rack could not serve the request after all
			// (partition works off pre-batch aggregates); a failed
			// rack-level request committed nothing, so re-place it
			// through the sequential pod path against committed state.
			out[i] = AdmitResult{}
			retry[i] = true
			leftover = append(leftover, i)
			continue
		}
		if reqs[i].VCPUs > 0 {
			batchReqs++
		}
		if reqs[i].Remote > 0 {
			batchReqs++
		}
		if out[i].needSpill {
			leftover = append(leftover, i)
		}
	}
	s.requests += batchReqs
	sc.leftover = leftover

	// Phase 3b — merge leftovers in request order.
	for _, i := range leftover {
		req := &reqs[i]
		if retry[i] {
			if req.VCPUs > 0 {
				id, lat, err := s.ReserveCompute(req.Owner, req.VCPUs, req.LocalMem)
				if err != nil {
					return s.abortBatch(reqs, out, seqStart, i, err)
				}
				out[i].CPU, out[i].Rack = id.Brick, id.Rack
				out[i].ComputeLat, out[i].computeDone = lat, true
			} else {
				out[i].CPU, out[i].Rack = req.CPU, req.Rack
			}
			if req.Remote > 0 {
				att, lat, err := s.AttachRemoteMemory(req.Owner, topo.PodBrickID{Rack: out[i].Rack, Brick: out[i].CPU}, req.Remote)
				if err != nil {
					return s.abortBatch(reqs, out, seqStart, i, err)
				}
				out[i].Att, out[i].AttachLat = att, lat
			}
			continue
		}
		// Every non-retry leftover needs the cross-rack spill.
		res := &out[i]
		att, lat, err := s.attachCross(req.Owner, topo.PodBrickID{Rack: res.Rack, Brick: res.CPU}, req.Remote)
		if err != nil {
			localErr := res.localErr
			if localErr == nil {
				localErr = fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port", req.Remote)
			}
			s.failures++
			err = fmt.Errorf("sdm: pod attach for %q failed rack-locally (%v) and cross-rack: %w", req.Owner, localErr, err)
			return s.abortBatch(reqs, out, seqStart, i, err)
		}
		s.spills++
		res.Att, res.AttachLat = att, lat
		res.needSpill, res.localErr = false, nil
	}
	return nil
}

// admitPlan partitions a validated burst across the pod's racks and
// packs the per-rack sub-batches into s.admit, preserving request order
// within a rack. Attach-only requests go to their home racks; a request
// no rack can take is marked with pos -1 for the merge to re-place.
func (s *PodScheduler) admitPlan(reqs []AdmitRequest) {
	sc := &s.admit
	if cap(sc.rackOf) < len(reqs) {
		sc.rackOf = make([]int, len(reqs))
		sc.pos = make([]int, len(reqs))
		sc.retry = make([]bool, len(reqs))
	}
	if cap(sc.plannedCores) < len(s.racks) {
		sc.plannedCores = make([]int, len(s.racks))
		sc.counts = make([]int, len(s.racks))
		sc.offsets = make([]int, len(s.racks)+1)
		sc.fill = make([]int, len(s.racks))
	}

	// Phase 1 — partition by the O(1) rack-choice aggregates. The first
	// compute placement takes the exact per-request rack choice, which
	// also makes a batch of one reproduce the sequential path bit for
	// bit.
	rackOf := sc.rackOf[:len(reqs)]
	plannedCores := sc.plannedCores[:len(s.racks)]
	clear(plannedCores)
	plannedAny := false
	for i := range reqs {
		if reqs[i].VCPUs == 0 {
			rackOf[i] = reqs[i].Rack
		} else {
			rackOf[i] = s.partitionStep(&reqs[i], plannedCores, &plannedAny)
		}
	}

	// Pack per-rack sub-batches, preserving request order within a rack.
	counts := sc.counts[:len(s.racks)]
	clear(counts)
	dispatched := 0
	for i := range reqs {
		if rackOf[i] >= 0 {
			counts[rackOf[i]]++
			dispatched++
		}
	}
	offsets := sc.offsets[:len(s.racks)+1]
	offsets[0] = 0
	for r := range counts {
		offsets[r+1] = offsets[r] + counts[r]
	}
	if cap(sc.subReq) < dispatched {
		sc.subReq = make([]AdmitRequest, dispatched)
		sc.subOut = make([]AdmitResult, dispatched)
	}
	subReq, subOut := sc.subReq[:dispatched], sc.subOut[:dispatched]
	clear(subOut)
	pos := sc.pos[:len(reqs)]
	fill := sc.fill[:len(s.racks)]
	copy(fill, offsets[:len(s.racks)])
	for i := range reqs {
		r := rackOf[i]
		if r < 0 {
			pos[i] = -1
			continue
		}
		pos[i] = fill[r]
		subReq[fill[r]] = reqs[i]
		fill[r]++
	}
}

// partitionStep runs one request through the partition: the full
// per-request rack choice while nothing is planned yet, the
// planned-adjusted arithmetic choice afterwards. It consumes from
// plannedCores on success and returns the chosen rack (-1 for a
// leftover).
func (s *PodScheduler) partitionStep(req *AdmitRequest, plannedCores []int, plannedAny *bool) int {
	if !*plannedAny {
		rack, ok := s.pickComputeRackExcept(req.VCPUs, req.LocalMem, -1)
		if !ok {
			return -1
		}
		plannedCores[rack] += req.VCPUs
		*plannedAny = true
		return rack
	}
	r := s.pickComputeRackPlanned(req.VCPUs, req.LocalMem, plannedCores)
	if r >= 0 {
		plannedCores[r] += req.VCPUs
	}
	return r
}

// admitCommit runs every packed per-rack sub-batch through its rack's
// placeBatch in pod mode, in rack order.
func (s *PodScheduler) admitCommit() {
	sc := &s.admit
	for r, n := range sc.counts[:len(s.racks)] {
		if n > 0 {
			lo, hi := sc.offsets[r], sc.offsets[r+1]
			s.racks[r].placeBatch(sc.subReq[lo:hi], sc.subOut[lo:hi], true)
		}
	}
}

// pickComputeRackPlanned applies the placement policy to rack choice
// with the batch's already-planned cores subtracted from each rack's
// free-core aggregate — O(racks) arithmetic with no confirming brick
// pick (a mis-estimate surfaces as a leftover and is re-placed against
// committed state in the merge phase).
func (s *PodScheduler) pickComputeRackPlanned(vcpus int, localMem brick.Bytes, planned []int) int {
	if s.cfg.Policy == PolicySpread {
		best, bestFree := -1, -1
		for i, r := range s.racks {
			free := r.FreeCores() - planned[i]
			if free < vcpus || free <= bestFree || !r.CanPlaceCompute(vcpus, localMem) {
				continue
			}
			best, bestFree = i, free
		}
		return best
	}
	// Power-aware and first-fit pack racks in index order.
	for i, r := range s.racks {
		if r.FreeCores()-planned[i] >= vcpus && r.CanPlaceCompute(vcpus, localMem) {
			return i
		}
	}
	return -1
}

// abortBatch tears every committed admission down in reverse request
// order and restores the spill sequence counter, leaving the pod as if
// the batch never ran; it returns the annotated cause.
func (s *PodScheduler) abortBatch(reqs []AdmitRequest, out []AdmitResult, seqStart uint64, failed int, cause error) error {
	for i := len(out) - 1; i >= 0; i-- {
		if out[i].Att != nil {
			if _, err := s.DetachRemoteMemory(out[i].Att); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
			out[i].Att = nil
		}
		if out[i].computeDone {
			if err := s.racks[out[i].Rack].ReleaseCompute(out[i].CPU, reqs[i].VCPUs, reqs[i].LocalMem); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
			out[i].computeDone = false
		}
	}
	s.attachSeq = seqStart
	s.boots.rollback()
	return fmt.Errorf("sdm: batch admission rolled back at request %d (%q): %w", failed, reqs[failed].Owner, cause)
}
