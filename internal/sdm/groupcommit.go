package sdm

// The group commit: batched admission and teardown for every tier above
// the rack. A pod's children are rack Controllers, a row's children are
// PodSchedulers, and both run this one engine, on the tier (tier.go),
// on the caller's goroutine:
//
//  1. Validate the whole burst in request order before anything moves.
//  2. Partition: admission assigns each request a child by the same
//     O(1) aggregates the per-request choice reads, less the cores
//     already planned onto each child (pickChild); the first compute
//     request takes the exact per-request choice, so a batch of one
//     reproduces the sequential path bit for bit. Attach-only requests
//     and evictions already name their child. An eviction's attachments
//     of this tier's spill queue for the cross phase; the rest go down.
//  3. Commit: the per-child sub-batches run in child order, each through
//     the child's shard entry — a rack's placeBatch and evictShard, or a
//     pod's own group commit (the recursion). A shard reads and writes
//     only its child's racks, fabric and summary, so the order cannot
//     move the outcome.
//  4. Merge: gather every child's results, fold the counters once, then
//     walk only the leftovers in request order — re-placing what the
//     planned child could not take and spilling what found no home
//     inside its child (spill.go) — or run the eviction's cross phase.
//
// At the top of the stack the batch is all-or-nothing: a definitive
// failure aborts it. An admission tears every committed request down in
// reverse order, restores the spill sequence counters of the tier and
// its children and powers the batch's boots back down (one bootJournal
// per stack). An eviction replays its journals in reverse — this tier's
// cross phase, then every child whose share ran — so segments re-carve
// at their exact offsets, circuits rebuild, riders re-key, walk orders
// re-thread and released compute re-reserves. In a shard (a pod under a
// row) nothing aborts: a request the pod cannot finish surfaces to the
// row as Err (nothing committed) or needSpill (compute committed, the
// remote part needs the row's spill), and the row owns the rollback.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// EvictRequest is one retirement of a VM-shaped consumer in a batch:
// the attachments to tear down (rack-local and spilled mixed, in the
// caller's order — scale-down paths pass newest-first so packet riders
// precede their hosts) and the compute reservation to return.
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

	// released records a completed compute release for rollback.
	released bool
}

// shards packs a batch into per-child sub-batches.
type shards struct {
	counts  []int // requests per child
	offsets []int // each child's first slot; offsets[len] is the total
	fill    []int
	pos     []int // each request's slot, -1 when planned onto no child
}

// pack groups reqs into per-child sub-batches by child[i], preserving
// request order within a child, and returns them in sub's backing
// (grown if short). A request with child -1 is left out.
func pack[R any](sh *shards, width int, child []int, reqs, sub []R) []R {
	if cap(sh.counts) < width {
		sh.counts = make([]int, width)
		sh.offsets = make([]int, width+1)
		sh.fill = make([]int, width)
	}
	if cap(sh.pos) < len(reqs) {
		sh.pos = make([]int, len(reqs))
	}
	counts, offsets, fill := sh.counts[:width], sh.offsets[:width+1], sh.fill[:width]
	clear(counts)
	for _, c := range child {
		if c >= 0 {
			counts[c]++
		}
	}
	n := 0
	for c, k := range counts {
		offsets[c], fill[c] = n, n
		n += k
	}
	offsets[width] = n
	if cap(sub) < n {
		sub = make([]R, n)
	}
	sub = sub[:n]
	pos := sh.pos[:len(reqs)]
	for i, c := range child {
		if c < 0 {
			pos[i] = -1
			continue
		}
		pos[i] = fill[c]
		sub[fill[c]] = reqs[i]
		fill[c]++
	}
	return sub
}

// stamp records on a result, and on its attachment, the child serving
// it; an abort routes teardown through them. A shard's attachments
// never leave their child, so both endpoints sit in it.
func (t *tier) stamp(res *AdmitResult, c int) {
	*t.coord(&res.Pod, &res.Rack) = c
	if res.Att != nil {
		t.stampAtt(res.Att, c)
	}
}

// admitScratch holds an admission's reused buffers.
type admitScratch struct {
	shards
	child    []int   // each request's planned child
	planned  []int   // cores planned onto each child
	free     []int64 // each child's free cores at the top of the batch
	subReq   []AdmitRequest
	subOut   []AdmitResult
	retry    []bool
	leftover []int
	seqs     []uint64    // spill sequence counters at the top of the batch
	one      *oneScratch // the sequential entry points' batch of one, made on first use
}

// oneScratch is a batch of one, held by pointer to keep tiers small.
type oneScratch struct {
	req [1]AdmitRequest
	out [1]AdmitResult
}

// AdmitBatch admits a burst of requests tier-wide. Results are in
// request order. On error, nothing remains admitted.
func (t *tier) AdmitBatch(reqs []AdmitRequest) ([]AdmitResult, error) {
	out := make([]AdmitResult, len(reqs))
	return out, t.AdmitBatchInto(reqs, out, 0)
}

// AdmitBatchInto is AdmitBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten. workers is unused:
// the group commit runs on the caller's goroutine.
func (t *tier) AdmitBatchInto(reqs []AdmitRequest, out []AdmitResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	// Shards cannot abort, so a malformed request must surface (and
	// count) here, before anything moves.
	for i := range reqs {
		req := &reqs[i]
		switch {
		case req.VCPUs < 0:
			return fmt.Errorf("sdm: batch request %d (%q): reserve of %d vcpus", i, req.Owner, req.VCPUs)
		case req.VCPUs == 0:
			if req.Remote == 0 {
				return fmt.Errorf("sdm: batch request %d (%q): no vCPUs and no remote memory", i, req.Owner)
			}
			if err := t.checkAddr(topo.RowBrickID{Pod: req.Pod, Rack: req.Rack}); err != nil {
				t.requests++
				t.failures++
				return fmt.Errorf("sdm: batch request %d (%q): %v", i, req.Owner, err)
			}
		}
	}
	seqs := append(t.admit.seqs[:0], t.attachSeq)
	for _, st := range t.subTiers {
		seqs = append(seqs, st.attachSeq)
	}
	t.admit.seqs = seqs
	t.boots.start()
	defer t.boots.stop()
	if failed, err := t.admitGroup(reqs, out, false); err != nil {
		return t.abortAdmit(reqs, out, failed, err)
	}
	return nil
}

// commitOne runs one request of a sequential entry point through the
// group commit, in the tier's one-request scratch, and returns the raw
// cause of a failure. The request reserves compute or attaches memory,
// never both, so when it fails it has committed nothing: unlike
// AdmitBatchInto it journals nothing and aborts nothing, and like every
// sequential call it keeps the boots a failed attempt spent. It reaches
// the racks' placeBatch, so it must not run while a rack batch is open
// (batches do not nest).
func (t *tier) commitOne(req AdmitRequest) (*AdmitResult, error) {
	if t.admit.one == nil {
		t.admit.one = new(oneScratch)
	}
	one := t.admit.one
	one.req[0] = req
	_, err := t.admitGroup(one.req[:], one.out[:], false)
	return &one.out[0], err
}

// admitShard runs a pod's share of a row admission.
func (t *tier) admitShard(reqs []AdmitRequest, out []AdmitResult) {
	t.admitGroup(reqs, out, true)
}

// admitGroup partitions a validated burst, commits every child's share
// and merges the leftovers. At the top of the stack the first request
// that definitively fails stops it, and it returns that request and its
// error for the caller to abort; in a shard it returns (-1, nil) and
// leaves such requests to the parent.
func (t *tier) admitGroup(reqs []AdmitRequest, out []AdmitResult, shard bool) (int, error) {
	t.admitPlan(reqs)
	sc := &t.admit
	for c, n := range sc.counts[:len(t.children)] {
		if n > 0 {
			lo, hi := sc.offsets[c], sc.offsets[c+1]
			t.children[c].admitShard(sc.subReq[lo:hi], sc.subOut[lo:hi])
		}
	}

	// Gather every child's results before merging, so an abort sees all
	// committed state in out; fold the request counters once, and list
	// the requests the merge must revisit.
	child, pos := sc.child[:len(reqs)], sc.pos[:len(reqs)]
	retry := sc.retry[:len(reqs)]
	clear(retry)
	leftover := sc.leftover[:0]
	var counted uint64
	for i := range reqs {
		res := &out[i]
		if pos[i] >= 0 {
			*res = sc.subOut[pos[i]]
			t.stamp(res, child[i])
		}
		if pos[i] < 0 || res.Err != nil {
			// No child was planned for it, or the planned child could not
			// serve it after all (the partition reads pre-batch
			// aggregates). Nothing committed: re-place it against
			// committed state.
			*res = AdmitResult{}
			retry[i] = true
			leftover = append(leftover, i)
			continue
		}
		counted += parts(&reqs[i])
		if res.needSpill {
			leftover = append(leftover, i)
		}
	}
	t.requests += counted
	sc.leftover = leftover

	// Merge the leftovers in request order.
	for _, i := range leftover {
		req, res := &reqs[i], &out[i]
		if retry[i] {
			// Re-place it the way a batch places its first request: the
			// exact child choice, then that child's shard of one.
			c, ok := t.childOf(req.Pod, req.Rack), true
			if req.VCPUs > 0 {
				c, ok = t.pickCompute(req.VCPUs, req.LocalMem, -1)
			}
			if ok {
				t.children[c].admitShard(reqs[i:i+1], out[i:i+1])
			} else {
				w := &tierWords[t.level]
				res.Err = fmt.Errorf("sdm: no %s in the %d-%s %s with %d free cores and %v local memory",
					w.child, len(t.children), w.child, w.tier, req.VCPUs, req.LocalMem)
			}
			if res.Err != nil {
				t.requests++
				t.failures++
				if !shard {
					if res.Err == errNoCompute {
						// A rack refused inside its shard; the refusal
						// surfaces here, so its text is built here.
						res.Err = noComputeError(req.VCPUs, req.LocalMem)
					}
					return i, res.Err
				}
				continue // nothing committed: the parent re-places it
			}
			t.stamp(res, c)
			t.requests += parts(req)
			if !res.needSpill {
				continue
			}
		}
		// Every other leftover needs this tier's spill.
		if shard && res.localErr == nil && t.maxMemoryGap() < req.Remote {
			// No brick anywhere in the tier can hold the segment, so the
			// spill and its packet fallback are doomed: count the failed
			// attempt and leave the error text unmaterialized, as the
			// child did, for the parent to build only if its own spill
			// fails too.
			t.failures++
			continue
		}
		att, lat, err := t.attachSpill(req.Owner, topo.RowBrickID{Pod: res.Pod, Rack: res.Rack, Brick: res.CPU}, req.Remote, res.localErr)
		if err != nil {
			if !shard {
				return i, err
			}
			res.localErr = err // needSpill stays set: the parent spills
			continue
		}
		res.Att, res.AttachLat = att, lat
		res.needSpill, res.localErr = false, nil
	}
	return -1, nil
}

// parts is how many requests an admission counts on a tier: one for
// the compute reservation, one for the attachment.
func parts(req *AdmitRequest) uint64 {
	var n uint64
	if req.VCPUs > 0 {
		n++
	}
	if req.Remote > 0 {
		n++
	}
	return n
}

// admitPlan partitions a validated burst across the tier's children and
// packs the per-child sub-batches.
func (t *tier) admitPlan(reqs []AdmitRequest) {
	sc := &t.admit
	width := len(t.children)
	if cap(sc.child) < len(reqs) {
		sc.child = make([]int, len(reqs))
		sc.retry = make([]bool, len(reqs))
	}
	if cap(sc.planned) < width {
		sc.planned = make([]int, width)
		sc.free = make([]int64, width)
	}
	child, planned, free := sc.child[:len(reqs)], sc.planned[:width], sc.free[:width]
	clear(planned)
	exact, read := true, false
	for i := range reqs {
		req := &reqs[i]
		if req.VCPUs == 0 {
			child[i] = t.childOf(req.Pod, req.Rack)
			continue
		}
		var c int
		if exact {
			c, _ = t.pickCompute(req.VCPUs, req.LocalMem, -1)
		} else {
			if !read {
				// Planning commits nothing, so the children's free cores
				// hold still: read them once.
				for k, ch := range t.children {
					free[k] = ch.freeCores()
				}
				read = true
			}
			c = t.pickChild(req.VCPUs, req.LocalMem, free, planned)
		}
		if c >= 0 {
			planned[c] += req.VCPUs
			exact = false
		}
		child[i] = c
	}
	sc.subReq = pack(&sc.shards, width, child, reqs, sc.subReq)
	n := len(sc.subReq)
	if cap(sc.subOut) < n {
		sc.subOut = make([]AdmitResult, n)
	}
	sc.subOut = sc.subOut[:n]
	clear(sc.subOut)
}

// abortAdmit tears every committed admission down in reverse request
// order and powers the batch's boots back down (undoAdmitted), and
// restores the spill sequence counters of the tier and its children,
// leaving the tier as if the batch never ran; it returns the annotated
// cause.
func (t *tier) abortAdmit(reqs []AdmitRequest, out []AdmitResult, failed int, cause error) error {
	undoAdmitted(t.rackAt, t.boots, reqs, out, func(i int, err error) {
		cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
	})
	t.attachSeq = t.admit.seqs[0]
	for k, st := range t.subTiers {
		st.attachSeq = t.admit.seqs[k+1]
	}
	return fmt.Errorf("sdm: batch admission rolled back at request %d (%q): %w", failed, reqs[failed].Owner, cause)
}

// crossItem queues one spilled attachment for the cross phase,
// remembering which request it settles into.
type crossItem struct {
	req int
	att *Attachment
}

// evictScratch holds an eviction's reused buffers. The shared atts
// backing is sized to the batch's attachment count before the
// partition, so the per-request sub-slices carved out of it never move.
type evictScratch struct {
	shards
	child    []int
	shardReq []EvictRequest
	atts     []*Attachment
	cross    []crossItem
	subReq   []EvictRequest
	subOut   []EvictResult
	failAt   []int
	failErr  []error
	// log journals the cross phase of the last evictShard.
	log []detachUndo
}

// EvictBatch retires a burst of consumers tier-wide. Results are in
// request order. On error, the whole batch rolls back and nothing
// remains evicted.
func (t *tier) EvictBatch(reqs []EvictRequest) ([]EvictResult, error) {
	out := make([]EvictResult, len(reqs))
	return out, t.EvictBatchInto(reqs, out, 0)
}

// EvictBatchInto is EvictBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten. workers is unused:
// the group commit runs on the caller's goroutine.
func (t *tier) EvictBatchInto(reqs []EvictRequest, out []EvictResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	for i := range reqs {
		if err := t.checkAddr(topo.RowBrickID{Pod: reqs[i].Pod, Rack: reqs[i].Rack}); err != nil {
			return fmt.Errorf("sdm: batch eviction request %d (%q): %v", i, reqs[i].Owner, err)
		}
	}
	// Teardown never moves a spill sequence counter: a rollback
	// re-threads the walk orders with the original stamps.
	if failed, err := t.evictShard(reqs, out); err != nil {
		cause := t.rollbackEvict(nil, nil, err)
		return fmt.Errorf("sdm: batch eviction rolled back at request %d (%q): %w", failed, reqs[failed].Owner, cause)
	}
	// The batch committed, so every torn-down attachment is dead: drain
	// them into their compute rack's arena in request order.
	for i := range reqs {
		rack := t.rackAt(topo.RowBrickID{Pod: reqs[i].Pod, Rack: reqs[i].Rack})
		for _, att := range reqs[i].Atts {
			rack.freeAttachment(att)
		}
	}
	return nil
}

// evictShard partitions validated requests across the tier's children,
// tears each child's share down and runs the cross phase, journaling
// every step instead of rolling back. It returns the first failed
// request in request order and its error, or (-1, nil); the caller owns
// the rollback.
func (t *tier) evictShard(reqs []EvictRequest, out []EvictResult) (int, error) {
	sc := &t.evict
	width := len(t.children)
	total := 0
	for i := range reqs {
		total += len(reqs[i].Atts)
	}
	if cap(sc.atts) < total {
		sc.atts = make([]*Attachment, 0, total)
	}
	if cap(sc.shardReq) < len(reqs) {
		sc.shardReq = make([]EvictRequest, len(reqs))
		sc.child = make([]int, len(reqs))
		sc.subOut = make([]EvictResult, len(reqs))
	}
	atts, cross := sc.atts[:0], sc.cross[:0]
	shardReq, child := sc.shardReq[:len(reqs)], sc.child[:len(reqs)]
	for i := range reqs {
		req := &reqs[i]
		start := len(atts)
		for _, att := range req.Atts {
			if att.spill == t {
				cross = append(cross, crossItem{req: i, att: att})
			} else {
				atts = append(atts, att)
			}
		}
		shardReq[i] = *req
		shardReq[i].Atts = atts[start:len(atts):len(atts)]
		child[i] = t.childOf(req.Pod, req.Rack)
	}
	sc.atts, sc.cross = atts, cross
	sc.subReq = pack(&sc.shards, width, child, shardReq, sc.subReq)
	subOut := sc.subOut[:len(reqs)]

	// Each child's share, in child order. A failing child stops at its
	// first failed request; the gather below stops the batch at the
	// first failure in request order.
	if cap(sc.failAt) < width {
		sc.failAt = make([]int, width)
		sc.failErr = make([]error, width)
	}
	failAt, failErr := sc.failAt[:width], sc.failErr[:width]
	clear(failErr)
	for c, n := range sc.counts[:width] {
		if n > 0 {
			lo, hi := sc.offsets[c], sc.offsets[c+1]
			failAt[c], failErr[c] = t.children[c].evictShard(sc.subReq[lo:hi], subOut[lo:hi])
		}
	}

	// Gather. Packing preserves request order within a child, so a
	// child's failed slot is reached before any of its later entries,
	// which the child never wrote.
	log := sc.log[:0]
	pos := sc.pos[:len(reqs)]
	for i := range reqs {
		c := child[i]
		if failErr[c] != nil && sc.offsets[c]+failAt[c] == pos[i] {
			sc.log = log
			return i, failErr[c]
		}
		out[i].DetachLat = subOut[pos[i]].DetachLat
		out[i].Detached = subOut[pos[i]].Detached
	}

	// The cross phase: this tier's spills, in request order.
	for _, ci := range cross {
		lat, err := t.rackAt(ci.att.cpuAt()).detach(ci.att, &log)
		if err != nil {
			sc.log = log
			return ci.req, err
		}
		out[ci.req].DetachLat += lat
		out[ci.req].Detached++
	}
	sc.log = log
	return -1, nil
}

// rollbackEvict undoes the last evictShard: the cross-phase journal
// first (torn down last), then every child whose share it ran, last
// child first. Only those children replay: each reset its journals when
// its share began, while any other child's journals still hold an
// earlier committed batch's teardowns, which must not be undone. It
// returns cause annotated with any step that failed to roll back.
func (t *tier) rollbackEvict(_ []EvictRequest, _ []EvictResult, cause error) error {
	sc := &t.evict
	cause = replayUndo(sc.log, cause)
	sc.log = sc.log[:0]
	for c := len(t.children) - 1; c >= 0; c-- {
		if sc.counts[c] > 0 {
			lo, hi := sc.offsets[c], sc.offsets[c+1]
			cause = t.children[c].rollbackEvict(sc.subReq[lo:hi], sc.subOut[lo:hi], cause)
		}
	}
	return cause
}
