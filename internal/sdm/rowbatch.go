package sdm

// Batched group-commit admission, row tier. AdmitBatch recurses the
// pod tier's three-phase engine one level up, all on the caller's
// goroutine:
//
//  1. Partition: every request is assigned a pod by the same O(1)
//     cached aggregates the per-request pod choice reads — pod
//     free-core sums adjusted by the cores already planned onto each
//     pod — so a burst spreads (or packs) across pods the way the
//     policy would have placed it one by one, in O(pods) per request.
//  2. Plan + commit, one pass per pod in pod order: the pod partitions
//     its sub-batch across its racks, commits each rack's share through
//     the rack's placeBatch, and merges its leftovers through its own
//     rack→pod spill cascade (PodScheduler.admitShard). A pod shard
//     reads and writes only its own racks, fabric and summary, so the
//     pass order cannot move the outcome.
//  3. Merge: leftovers — requests whose planned pod turned out full, or
//     whose pod could not serve the remote part anywhere local —
//     resolve in request order through the sequential row machinery
//     (cross-pod circuits through the row switch, then the row-tier
//     packet fallback), completing the rack→pod→row cascade exactly as
//     the per-request path would. Counters fold once per batch, and
//     only the leftover list is walked.
//
// Admission is all-or-nothing: if any request definitively fails,
// every committed admission is torn down in reverse order and the
// spill sequence counters of the row and every pod restored.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/topo"
)

// rowAdmitScratch is the row AdmitBatch's reused partition state,
// mirroring rowEvictScratch. Every buffer is fully overwritten or
// length-reset at the top of a batch; AdmitBatch is serial at the row
// tier, so one set is safely reused across batches.
type rowAdmitScratch struct {
	podOf        []int
	plannedCores []int
	counts       []int
	offsets      []int
	subReq       []AdmitRequest
	subOut       []AdmitResult
	pos          []int
	fill         []int
	retry        []bool
	leftover     []int
	podSeq       []uint64
}

// AdmitBatch admits a burst of requests row-wide. Results are in
// request order. On error, nothing remains admitted.
func (s *RowScheduler) AdmitBatch(reqs []AdmitRequest) ([]AdmitResult, error) {
	out := make([]AdmitResult, len(reqs))
	return out, s.AdmitBatchInto(reqs, out, 0)
}

// AdmitBatchInto is AdmitBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten. workers is unused:
// the group commit runs on the caller's goroutine.
func (s *RowScheduler) AdmitBatchInto(reqs []AdmitRequest, out []AdmitResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	seqStart := s.attachSeq
	sc := &s.admit
	if cap(sc.podSeq) < len(s.pods) {
		sc.podSeq = make([]uint64, len(s.pods))
		sc.plannedCores = make([]int, len(s.pods))
		sc.counts = make([]int, len(s.pods))
		sc.offsets = make([]int, len(s.pods)+1)
		sc.fill = make([]int, len(s.pods))
	}
	podSeqStart := sc.podSeq[:len(s.pods)]
	for p, ps := range s.pods {
		podSeqStart[p] = ps.attachSeq
	}
	s.boots.start()
	defer s.boots.stop()

	// Phase 1 — validate everything up front (pod shards must never see
	// a malformed request: they cannot abort) and partition by the O(1)
	// pod-choice aggregates.
	if cap(sc.podOf) < len(reqs) {
		sc.podOf = make([]int, len(reqs))
		sc.pos = make([]int, len(reqs))
		sc.retry = make([]bool, len(reqs))
	}
	podOf := sc.podOf[:len(reqs)]
	plannedCores := sc.plannedCores[:len(s.pods)]
	clear(plannedCores)
	// Validate in request order first — malformed requests surface (and
	// count) exactly as they would mid-partition, since partitioning
	// itself mutates nothing but scratch — and route attach-only
	// requests to their home pods.
	for i := range reqs {
		req := &reqs[i]
		switch {
		case req.VCPUs < 0:
			return fmt.Errorf("sdm: batch request %d (%q): reserve of %d vcpus", i, req.Owner, req.VCPUs)
		case req.VCPUs == 0:
			if req.Remote == 0 {
				return fmt.Errorf("sdm: batch request %d (%q): no vCPUs and no remote memory", i, req.Owner)
			}
			if req.Pod < 0 || req.Pod >= len(s.pods) {
				s.requests++
				s.failures++
				return fmt.Errorf("sdm: batch request %d (%q): no pod %d in the row", i, req.Owner, req.Pod)
			}
			if req.Rack < 0 || req.Rack >= len(s.pods[req.Pod].racks) {
				s.requests++
				s.failures++
				return fmt.Errorf("sdm: batch request %d (%q): no rack %d in pod %d", i, req.Owner, req.Rack, req.Pod)
			}
			podOf[i] = req.Pod
		}
	}
	// The first compute placement takes the exact per-request pod
	// choice, which also makes a batch of one reproduce the sequential
	// path bit for bit.
	plannedAny := false
	for i := range reqs {
		if reqs[i].VCPUs > 0 {
			podOf[i] = s.partitionStep(&reqs[i], plannedCores, &plannedAny)
		}
	}

	// Pack per-pod sub-batches, preserving request order within a pod.
	counts := sc.counts[:len(s.pods)]
	clear(counts)
	dispatched := 0
	for i := range reqs {
		if podOf[i] >= 0 {
			counts[podOf[i]]++
			dispatched++
		}
	}
	offsets := sc.offsets[:len(s.pods)+1]
	offsets[0] = 0
	for p := range counts {
		offsets[p+1] = offsets[p] + counts[p]
	}
	if cap(sc.subReq) < dispatched {
		sc.subReq = make([]AdmitRequest, dispatched)
		sc.subOut = make([]AdmitResult, dispatched)
	}
	subReq, subOut := sc.subReq[:dispatched], sc.subOut[:dispatched]
	clear(subOut)
	pos := sc.pos[:len(reqs)]
	fill := sc.fill[:len(s.pods)]
	copy(fill, offsets[:len(s.pods)])
	for i := range reqs {
		p := podOf[i]
		if p < 0 {
			pos[i] = -1
			continue
		}
		pos[i] = fill[p]
		subReq[fill[p]] = reqs[i]
		fill[p]++
	}

	// Phase 2 — one plan/commit/merge pass per pod shard.
	for p, n := range counts {
		if n > 0 {
			s.pods[p].admitShard(subReq[offsets[p]:offsets[p+1]], subOut[offsets[p]:offsets[p+1]])
		}
	}

	// Phase 3a — gather every dispatched result before any merging, so
	// a mid-merge abort sees all committed state in out. Fold the
	// request counters for the whole batch here and collect just the
	// requests the merge loop must revisit: retries and cross-pod
	// spills.
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
		out[i].Pod = podOf[i]
		if out[i].Att != nil {
			// Stamp the row coordinates now: a mid-merge abort routes
			// teardown through them. Shard attachments never leave their
			// pod, so both endpoints sit in it.
			out[i].Att.CPUPod, out[i].Att.MemPod = out[i].Pod, out[i].Pod
		}
		if out[i].Err != nil {
			// The planned pod could not serve the request after all
			// (partition works off pre-batch aggregates); a failed shard
			// request committed nothing, so re-place it through the
			// sequential row path against committed state.
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
					return s.abortBatch(reqs, out, seqStart, podSeqStart, i, err)
				}
				out[i].CPU, out[i].Rack, out[i].Pod = id.Brick, id.Rack, id.Pod
				out[i].ComputeLat, out[i].computeDone = lat, true
			} else {
				out[i].CPU, out[i].Rack, out[i].Pod = req.CPU, req.Rack, req.Pod
			}
			if req.Remote > 0 {
				att, lat, err := s.AttachRemoteMemory(req.Owner, topo.RowBrickID{Pod: out[i].Pod, Rack: out[i].Rack, Brick: out[i].CPU}, req.Remote)
				if err != nil {
					return s.abortBatch(reqs, out, seqStart, podSeqStart, i, err)
				}
				out[i].Att, out[i].AttachLat = att, lat
			}
			continue
		}
		// Every non-retry leftover needs the cross-pod spill.
		res := &out[i]
		att, lat, err := s.attachSpill(req.Owner, topo.RowBrickID{Pod: res.Pod, Rack: res.Rack, Brick: res.CPU}, req.Remote, res.localErr)
		if err != nil {
			return s.abortBatch(reqs, out, seqStart, podSeqStart, i, err)
		}
		res.Att, res.AttachLat = att, lat
		res.needSpill, res.localErr = false, nil
	}
	return nil
}

// partitionStep is the row analog of the pod tier's: the pod choice
// for one request, consuming from plannedCores on success.
func (s *RowScheduler) partitionStep(req *AdmitRequest, plannedCores []int, plannedAny *bool) int {
	if !*plannedAny {
		pod, ok := s.pickComputePod(req.VCPUs, req.LocalMem)
		if !ok {
			return -1
		}
		plannedCores[pod] += req.VCPUs
		*plannedAny = true
		return pod
	}
	p := s.pickComputePodPlanned(req.VCPUs, req.LocalMem, plannedCores)
	if p >= 0 {
		plannedCores[p] += req.VCPUs
	}
	return p
}

// pickComputePodPlanned applies the placement policy to pod choice
// with the batch's already-planned cores subtracted from each pod's
// cached free-core aggregate — O(pods) arithmetic with no confirming
// pick (a mis-estimate surfaces as a leftover and is re-placed against
// committed state in the merge phase).
func (s *RowScheduler) pickComputePodPlanned(vcpus int, localMem brick.Bytes, planned []int) int {
	if s.cfg.Policy == PolicySpread {
		best, bestFree := -1, int64(-1)
		for i := range s.pods {
			free := s.PodFreeCores(i) - int64(planned[i])
			if free < int64(vcpus) || free <= bestFree {
				continue
			}
			best, bestFree = i, free
		}
		return best
	}
	// Power-aware and first-fit pack pods in index order.
	for i := range s.pods {
		if s.PodFreeCores(i)-int64(planned[i]) >= int64(vcpus) {
			return i
		}
	}
	return -1
}

// abortBatch tears every committed admission down in reverse request
// order and restores the spill sequence counters of the row and every
// pod, leaving the row as if the batch never ran; it returns the
// annotated cause.
func (s *RowScheduler) abortBatch(reqs []AdmitRequest, out []AdmitResult, seqStart uint64, podSeqStart []uint64, failed int, cause error) error {
	for i := len(out) - 1; i >= 0; i-- {
		if out[i].Att != nil {
			if _, err := s.DetachRemoteMemory(out[i].Att); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
			out[i].Att = nil
		}
		if out[i].computeDone {
			if err := s.pods[out[i].Pod].racks[out[i].Rack].ReleaseCompute(out[i].CPU, reqs[i].VCPUs, reqs[i].LocalMem); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
			out[i].computeDone = false
		}
	}
	s.attachSeq = seqStart
	for p, ps := range s.pods {
		ps.attachSeq = podSeqStart[p]
	}
	s.boots.rollback()
	return fmt.Errorf("sdm: batch admission rolled back at request %d (%q): %w", failed, reqs[failed].Owner, cause)
}

// admitShard runs one pod's share of a row batch: the pod's own
// partition of the shard across its racks, the rack commits in rack
// order, and the merge. Validation, boot logging and all-or-nothing
// rollback belong to the row tier.
func (s *PodScheduler) admitShard(reqs []AdmitRequest, out []AdmitResult) {
	s.admitPlan(reqs)
	s.admitCommit()
	s.admitShardMerge(reqs, out)
}

// admitShardMerge gathers the rack shard results and resolves leftovers
// through the pod's rack→pod spill cascade. A request the pod cannot
// finish never aborts — a definitive failure surfaces as Err (nothing
// committed, the row re-places it), and a committed compute whose
// remote part found no pod-local home surfaces as needSpill (the row
// crosses pods). The merge touches only pod-local state.
func (s *PodScheduler) admitShardMerge(reqs []AdmitRequest, out []AdmitResult) {
	sc := &s.admit
	rackOf, pos := sc.rackOf[:len(reqs)], sc.pos[:len(reqs)]
	subOut := sc.subOut

	// Phase 3a — gather.
	retry := sc.retry[:len(reqs)]
	clear(retry)
	for i := range reqs {
		if pos[i] < 0 {
			retry[i] = true
			continue
		}
		out[i] = subOut[pos[i]]
		out[i].Rack = rackOf[i]
		if out[i].Att != nil {
			out[i].Att.CPURack, out[i].Att.MemRack = out[i].Rack, out[i].Rack
		}
		if out[i].Err != nil {
			out[i] = AdmitResult{}
			retry[i] = true
		}
	}

	// Phase 3b — merge leftovers in shard order.
	for i := range reqs {
		req := &reqs[i]
		if retry[i] {
			if req.VCPUs > 0 {
				id, lat, err := s.ReserveCompute(req.Owner, req.VCPUs, req.LocalMem)
				if err != nil {
					// Nothing committed for this request: the row re-places
					// it pod-wide against committed state.
					out[i] = AdmitResult{Err: err}
					continue
				}
				out[i].CPU, out[i].Rack = id.Brick, id.Rack
				out[i].ComputeLat, out[i].computeDone = lat, true
			} else {
				out[i].CPU, out[i].Rack = req.CPU, req.Rack
			}
			if req.Remote > 0 {
				att, lat, err := s.AttachRemoteMemory(req.Owner, topo.PodBrickID{Rack: out[i].Rack, Brick: out[i].CPU}, req.Remote)
				if err != nil {
					// The pod cannot serve the remote part anywhere local;
					// keep the compute and hand the spill to the row.
					out[i].needSpill, out[i].localErr = true, err
					continue
				}
				out[i].Att, out[i].AttachLat = att, lat
			}
			continue
		}
		res := &out[i]
		if req.VCPUs > 0 {
			s.requests++
		}
		if req.Remote > 0 {
			s.requests++
		}
		if res.needSpill && res.localErr == nil && s.maxMemoryGap() < req.Remote {
			// No brick anywhere in the pod can hold the segment, so the
			// cross-rack spill and its packet fallback are doomed: count
			// the failed attempt and leave the error text unmaterialized,
			// as the rack tier did, for the row to build only if the
			// cross-pod spill fails too.
			s.failures++
			continue
		}
		if res.needSpill {
			att, lat, err := s.attachSpill(req.Owner, topo.RowBrickID{Rack: res.Rack, Brick: res.CPU}, req.Remote, res.localErr)
			if err != nil {
				// needSpill stays set: the row crosses pods in its merge.
				res.localErr = err
				continue
			}
			res.Att, res.AttachLat = att, lat
			res.needSpill, res.localErr = false, nil
		}
	}
}
