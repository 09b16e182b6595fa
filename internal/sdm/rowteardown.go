package sdm

// Batched group-commit teardown, row tier — the inverse of rowbatch.go
// and the recursive step up from podteardown.go. EvictBatch retires a
// burst of consumers in the same three deterministic phases, all on
// the caller's goroutine:
//
//  1. Partition: every request names its pod and rack; its
//     pod-contained attachments (rack-local and cross-rack mixed) pack
//     into a per-pod shard, and its cross-pod attachments queue for the
//     row phase (their circuits ride the row switch, which no pod shard
//     owns).
//  2. Teardown: each pod's shard runs through PodScheduler.evictShard,
//     in pod order — the full pod teardown pipeline, journaled for the
//     row's rollback.
//  3. Cross phase: cross-pod attachments detach in request order
//     through the spill tier's batchDetachCross (spill.go), journaled
//     like the pod and rack teardowns.
//
// Eviction is all-or-nothing: on any definitive failure the row
// journal, every pod journal, and the journal of every rack a pod
// shard ran on replay in reverse, released compute re-reserves, and the spill sequence
// counters at both tiers restore — leaving the row answering exactly
// as before the batch.

import (
	"fmt"
)

// rowEvictScratch is the row EvictBatch's reused partition state,
// mirroring evictScratch one tier up: shard requests instead of
// release requests, pods instead of racks. EvictBatch is serial at the
// row tier, so the buffers are safely reused across batches.
type rowEvictScratch struct {
	cross    []crossItem
	shardReq []EvictRequest
	subReq   []EvictRequest
	subOut   []EvictResult
	atts     []*Attachment
	counts   []int
	offsets  []int
	pos      []int
	fill     []int
	failAt   []int
	failErr  []error
	rowLog   []detachUndo
	podSeq   []uint64
}

// EvictBatch retires a burst of consumers row-wide. Results are in
// request order. On error, the whole batch rolls back and nothing
// remains evicted.
func (s *RowScheduler) EvictBatch(reqs []EvictRequest) ([]EvictResult, error) {
	out := make([]EvictResult, len(reqs))
	return out, s.EvictBatchInto(reqs, out, 0)
}

// EvictBatchInto is EvictBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten. workers is unused:
// the group commit runs on the caller's goroutine.
func (s *RowScheduler) EvictBatchInto(reqs []EvictRequest, out []EvictResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	seqStart := s.attachSeq
	sc := &s.evict
	if cap(sc.podSeq) < len(s.pods) {
		sc.podSeq = make([]uint64, len(s.pods))
		sc.failAt = make([]int, len(s.pods))
		sc.failErr = make([]error, len(s.pods))
	}
	podSeq := sc.podSeq[:len(s.pods)]
	failAt, failErr := sc.failAt[:len(s.pods)], sc.failErr[:len(s.pods)]
	// Clear every pod's journal up front: abortEvict replays all of
	// them, and a pod this batch never touches must not replay entries
	// left over from an earlier committed batch. Rack journals need no
	// reset here: each ReleaseBatch resets its own, and a pod replays
	// only the racks its shard ran on (rollbackEvict).
	for p, ps := range s.pods {
		podSeq[p] = ps.attachSeq
		ps.evict.podLog = ps.evict.podLog[:0]
		ps.evict.shardN = 0
		failErr[p] = nil
	}

	// Phase 1 — validate and partition. Requests already name their
	// pods and racks, so partitioning is a split of each request's
	// attachment list: pod-contained teardown goes to the pod shards,
	// cross-pod teardown to the row phase.
	total := 0
	for i := range reqs {
		total += len(reqs[i].Atts)
	}
	if cap(sc.atts) < total {
		sc.atts = make([]*Attachment, 0, total)
	}
	if cap(sc.shardReq) < len(reqs) {
		sc.shardReq = make([]EvictRequest, len(reqs))
	}
	atts, crossQ := sc.atts[:0], sc.cross[:0]
	shardReq := sc.shardReq[:len(reqs)]
	for i := range reqs {
		req := &reqs[i]
		if req.Pod < 0 || req.Pod >= len(s.pods) {
			return fmt.Errorf("sdm: batch eviction request %d (%q): no pod %d in the row", i, req.Owner, req.Pod)
		}
		if req.Rack < 0 || req.Rack >= len(s.pods[req.Pod].racks) {
			return fmt.Errorf("sdm: batch eviction request %d (%q): no rack %d in pod %d", i, req.Owner, req.Rack, req.Pod)
		}
		sr := EvictRequest{Owner: req.Owner, CPU: req.CPU, Rack: req.Rack, Pod: req.Pod, VCPUs: req.VCPUs, LocalMem: req.LocalMem}
		start := len(atts)
		for _, att := range req.Atts {
			if att.spill == &s.spillTier {
				crossQ = append(crossQ, crossItem{req: i, att: att})
			} else {
				atts = append(atts, att)
			}
		}
		sr.Atts = atts[start:len(atts):len(atts)]
		shardReq[i] = sr
	}
	sc.atts, sc.cross = atts, crossQ

	// Pack per-pod shards, preserving request order within a pod.
	if cap(sc.counts) < len(s.pods) {
		sc.counts = make([]int, len(s.pods))
		sc.offsets = make([]int, len(s.pods)+1)
		sc.fill = make([]int, len(s.pods))
	}
	counts, fill := sc.counts[:len(s.pods)], sc.fill[:len(s.pods)]
	offsets := sc.offsets[:len(s.pods)+1]
	clear(counts)
	for i := range shardReq {
		counts[shardReq[i].Pod]++
	}
	offsets[0] = 0
	for p := range counts {
		offsets[p+1] = offsets[p] + counts[p]
	}
	if cap(sc.subReq) < len(shardReq) {
		sc.subReq = make([]EvictRequest, len(shardReq))
		sc.subOut = make([]EvictResult, len(shardReq))
		sc.pos = make([]int, len(shardReq))
	}
	subReq, subOut := sc.subReq[:len(shardReq)], sc.subOut[:len(shardReq)]
	pos := sc.pos[:len(shardReq)]
	copy(fill, offsets[:len(s.pods)])
	for i := range shardReq {
		p := shardReq[i].Pod
		pos[i] = fill[p]
		subReq[fill[p]] = shardReq[i]
		fill[p]++
	}

	// Phase 2 — one evictShard pass per pod. A failing shard stops at
	// its first failed request; the gather below aborts on the first
	// failure in request order.
	for p, n := range counts {
		if n > 0 {
			failAt[p], failErr[p] = s.pods[p].evictShard(subReq[offsets[p]:offsets[p+1]], subOut[offsets[p]:offsets[p+1]])
		}
	}

	// Gather: the first failed request in request order aborts the
	// whole batch. Packing preserves request order within a pod, so a
	// pod's failure slot is reached before any of its stale later
	// entries are read.
	rowLog := sc.rowLog[:0]
	for i := range reqs {
		p := reqs[i].Pod
		if failErr[p] != nil && offsets[p]+failAt[p] == pos[i] {
			sc.rowLog = rowLog
			return s.abortEvict(reqs, rowLog, seqStart, podSeq, i, failErr[p])
		}
		out[i].DetachLat = subOut[pos[i]].DetachLat
		out[i].Detached = subOut[pos[i]].Detached
	}

	// Phase 3 — cross-pod teardowns in request order.
	for _, ci := range crossQ {
		lat, err := s.batchDetachCross(ci.att, &rowLog)
		if err != nil {
			sc.rowLog = rowLog
			return s.abortEvict(reqs, rowLog, seqStart, podSeq, ci.req, err)
		}
		out[ci.req].DetachLat += lat
		out[ci.req].Detached++
	}
	sc.rowLog = rowLog
	// Epilogue: the batch committed, so every torn-down attachment is
	// dead — drain them into their compute rack's arena in request order.
	for i := range reqs {
		rack := s.pods[reqs[i].Pod].racks[reqs[i].Rack]
		for _, att := range reqs[i].Atts {
			rack.freeAttachment(att)
		}
	}
	return nil
}

// abortEvict replays every journal in reverse — the row phase first
// (last torn down), then each pod's share through rollbackEvict — and
// restores the spill sequence counters at both tiers, leaving the row
// as if the batch never ran; it returns the annotated cause.
func (s *RowScheduler) abortEvict(reqs []EvictRequest, rowLog []detachUndo, seqStart uint64, podSeq []uint64, failed int, cause error) error {
	for i := len(rowLog) - 1; i >= 0; i-- {
		if err := rowLog[i].undoDetach(); err != nil {
			cause = fmt.Errorf("%w (and rollback of %q failed: %v)", cause, rowLog[i].att.Owner, err)
		}
	}
	for p := len(s.pods) - 1; p >= 0; p-- {
		cause = s.pods[p].rollbackEvict(podSeq[p], cause)
	}
	s.attachSeq = seqStart
	return fmt.Errorf("sdm: batch eviction rolled back at request %d (%q): %w", failed, reqs[failed].Owner, cause)
}
