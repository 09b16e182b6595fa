package core

import (
	"slices"

	"repro/internal/scaleup"
	"repro/internal/sdm"
)

// vmSlot is one facade VM: the pod and rack hosting it (pod is 0 on a
// Pod facade), its handle in that rack's Scale-up controller, and the
// stamp of the last burst that named it.
type vmSlot struct {
	pod, rack int32
	vm        *scaleup.VM
	stamp     uint64
}

// vmTable is a facade's VM table and the only name table on its batch
// path: a name hashes to a slot index, and the slot holds everything
// else. Free slots are reused LIFO, and a retired VM's slot is zeroed
// so its handle is not kept reachable. A burst hashes each name at most
// twice: a create burst looks the name up (a miss) and inserts it, and
// a destroy burst looks it up and deletes it when the VM retires. The
// stamp a burst writes into every slot it names catches a name
// repeated within the burst.
type vmTable struct {
	index map[string]int32
	slots []vmSlot
	free  []int32
	// stamp is the current burst's stamp; it only grows, so a slot
	// stamped by an earlier burst never matches.
	stamp uint64
}

func newVMTable() vmTable { return vmTable{index: make(map[string]int32)} }

// len returns the number of VMs in the table.
func (t *vmTable) len() int { return len(t.index) }

// begin starts a burst: slots named from here on carry a fresh stamp.
func (t *vmTable) begin() { t.stamp++ }

// find returns the slot of a VM, if the table holds it.
func (t *vmTable) find(id string) (int32, bool) {
	s, ok := t.index[id]
	return s, ok
}

// at returns a slot for reading or rewriting in place; the pointer is
// valid until the next claim.
func (t *vmTable) at(s int32) *vmSlot { return &t.slots[s] }

// claim inserts a name the current burst creates, stamping a free slot
// for it, and returns that slot and true; the caller fills the slot
// once the VM boots. A name the table already holds is refused with its
// holder's slot and false.
func (t *vmTable) claim(id string) (int32, bool) {
	if s, ok := t.index[id]; ok {
		return s, false
	}
	var s int32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		s = int32(len(t.slots))
		t.slots = append(t.slots, vmSlot{})
	}
	t.slots[s] = vmSlot{stamp: t.stamp}
	t.index[id] = s
	return s, true
}

// named reports whether the current burst has named slot s.
func (t *vmTable) named(s int32) bool { return t.slots[s].stamp == t.stamp }

// mark stamps slot s as named by the current burst and reports whether
// the burst had already named it.
func (t *vmTable) mark(s int32) (repeated bool) {
	repeated = t.named(s)
	t.slots[s].stamp = t.stamp
	return repeated
}

// unclaim drops the names an aborted create burst claimed, newest
// first, so the free list is handed back in the order it was taken.
func (t *vmTable) unclaim(reqs []VMCreate, slots []int32) {
	for i := len(reqs) - 1; i >= 0; i-- {
		t.drop(reqs[i].ID, slots[i])
	}
}

// drop removes a VM from the table and frees its slot.
func (t *vmTable) drop(id string, s int32) {
	delete(t.index, id)
	t.slots[s] = vmSlot{}
	t.free = append(t.free, s)
}

// burstScratch is a facade's reused burst state: the request, result
// and attachment buffers CreateVMs and DestroyVMs hand to the
// scheduler's AdmitBatchInto and EvictBatchInto, and the table slots a
// burst resolves once and uses again after the commit. Facade calls are
// serial, so one set is reused across calls and a steady burst train
// stops allocating it; only the []scaleup.Result a burst returns is
// fresh. Every buffer is resized and overwritten at the top of a call.
type burstScratch struct {
	admit    []sdm.AdmitRequest
	admitted []sdm.AdmitResult
	evict    []sdm.EvictRequest
	evicted  []sdm.EvictResult
	// atts backs every teardown request's attachment list; each
	// request's Atts is a capacity-capped run of it.
	atts []*sdm.Attachment
	// slots holds each VM's table slot between the name lookup and the
	// commit's epilogue.
	slots []int32
}

// admitBufs returns the admission request, result and slot buffers
// sized for an n-VM burst.
func (b *burstScratch) admitBufs(n int) ([]sdm.AdmitRequest, []sdm.AdmitResult, []int32) {
	b.admit = resize(b.admit, n)
	b.admitted = resize(b.admitted, n)
	b.slots = resize(b.slots, n)
	return b.admit, b.admitted, b.slots
}

// evictBufs returns the teardown request, result and slot buffers sized
// for an n-VM burst, and the emptied attachment buffer.
func (b *burstScratch) evictBufs(n int) ([]sdm.EvictRequest, []sdm.EvictResult, []int32, []*sdm.Attachment) {
	b.evict = resize(b.evict, n)
	b.evicted = resize(b.evicted, n)
	b.slots = resize(b.slots, n)
	return b.evict, b.evicted, b.slots, b.atts[:0]
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
