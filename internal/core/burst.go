package core

import (
	"slices"

	"repro/internal/scaleup"
	"repro/internal/sdm"
)

// burstScratch is a facade's reused burst state: the duplicate-ID set,
// the request, result and attachment buffers CreateVMs and DestroyVMs
// hand to the scheduler's AdmitBatchInto and EvictBatchInto, and the
// VM handles a teardown resolves once and uses twice. Facade calls are
// serial, so one set is reused across calls and a steady burst train
// stops allocating it; only the []scaleup.Result a burst returns is
// fresh. Every buffer is resized and overwritten at the top of a call.
type burstScratch struct {
	// seen is the duplicate-ID set; dedup is false for a one-VM burst,
	// which skips it.
	seen     map[string]struct{}
	dedup    bool
	admit    []sdm.AdmitRequest
	admitted []sdm.AdmitResult
	evict    []sdm.EvictRequest
	evicted  []sdm.EvictResult
	// atts backs every teardown request's attachment list; each
	// request's Atts is a capacity-capped run of it.
	atts []*sdm.Attachment
	// vms holds a teardown's VM handles between the SDM eviction and
	// the software-stack unwind; cleared after each burst so retired
	// VMs are not kept reachable.
	vms []*scaleup.VM
}

// resetSeen empties the duplicate-ID set for a new burst of n VMs. A
// one-VM burst cannot name a VM twice, so it leaves the set alone:
// clearing a map an earlier large burst grew costs several times a
// one-VM burst's own checks.
func (b *burstScratch) resetSeen(n int) {
	b.dedup = n > 1
	if !b.dedup {
		return
	}
	if b.seen == nil {
		b.seen = make(map[string]struct{})
	}
	clear(b.seen)
}

// repeated records id as named by the current burst and reports
// whether the burst already named it: an insert that does not grow the
// set found the name already there, so each name is hashed once.
func (b *burstScratch) repeated(id string) bool {
	if !b.dedup {
		return false
	}
	n := len(b.seen)
	b.seen[id] = struct{}{}
	return len(b.seen) == n
}

// admitBufs returns the admission request and result buffers sized for
// an n-VM burst.
func (b *burstScratch) admitBufs(n int) ([]sdm.AdmitRequest, []sdm.AdmitResult) {
	b.admit = resize(b.admit, n)
	b.admitted = resize(b.admitted, n)
	return b.admit, b.admitted
}

// evictBufs returns the teardown request, result and VM-handle
// buffers sized for an n-VM burst, and the emptied attachment buffer.
func (b *burstScratch) evictBufs(n int) ([]sdm.EvictRequest, []sdm.EvictResult, []*scaleup.VM, []*sdm.Attachment) {
	b.evict = resize(b.evict, n)
	b.evicted = resize(b.evicted, n)
	b.vms = resize(b.vms, n)
	return b.evict, b.evicted, b.vms, b.atts[:0]
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
