package sdm

// Hierarchical aggregates for the row tier. A podAgg is one pod's
// cached summary — free cores, free memory, max memory gap, and the
// per-power-state brick census — rolled up from the rack index roots.
// Each rack Controller carries a back-pointer (agg/aggSlot, installed
// by the row scheduler); every index maintenance choke point (a
// touch outside a batch, the end of a batch, a rebuild) re-reads that
// rack's O(1) root aggregates and applies the delta to the pod
// summary, so the summary is exact whenever no rack batch is open and
// the row scheduler's pod choice is O(pods) arithmetic over cached
// values — never a rescan of racks, let alone bricks. This is the same trick the pod tier plays
// on rack index roots, applied one level up: rack roots are the leaves
// of the pod summary, pod summaries are the leaves of the row's pick
// loop.
//
// The max gap is the one aggregate that is not a sum. It is maintained
// with a lazy maximum: a rack raising its gap updates the cached pod
// max immediately; a rack lowering the gap that *was* the max marks
// the summary dirty, and the next MaxGap() call recomputes the max
// over the cached per-rack gaps — O(racks) off the hot pick loop,
// amortized O(1) because a recompute only follows a shrink of the
// current maximum.
//
// Every RowScheduler installs the summaries; CheckInvariants checks
// each against its racks' index roots whenever no batch is open.

import "repro/internal/brick"

// podAgg is one pod's cached aggregate summary.
type podAgg struct {
	racks []*Controller

	// Running sums over the cached per-rack values below.
	freeCores int64
	freeMem   int64

	// Cached per-rack contributions, replaced wholesale on notify.
	rackCores []int64
	rackMem   []int64
	rackGap   []brick.Bytes

	// maxGap caches the pod-wide largest memory gap; gapDirty marks it
	// for recomputation after the maximal rack's gap shrank.
	maxGap   brick.Bytes
	gapDirty bool

	// Census sums per power state, split by brick kind to mirror
	// Census(kind) one tier down.
	cpuCensus [nStates]int32
	memCensus [nStates]int32
	// Cached per-rack census contributions.
	rackCPUCensus [][nStates]int32
	rackMemCensus [][nStates]int32
}

// newPodAgg builds the summary over a pod's racks and installs the
// back-pointers that keep it current.
func newPodAgg(racks []*Controller) *podAgg {
	g := &podAgg{
		racks:         racks,
		rackCores:     make([]int64, len(racks)),
		rackMem:       make([]int64, len(racks)),
		rackGap:       make([]brick.Bytes, len(racks)),
		rackCPUCensus: make([][nStates]int32, len(racks)),
		rackMemCensus: make([][nStates]int32, len(racks)),
	}
	for i, r := range racks {
		r.agg, r.aggSlot = g, i
		g.notify(i)
	}
	return g
}

// notify re-reads rack slot's O(1) index-root aggregates and folds the
// delta into the pod summary. Called from the rack's index maintenance
// choke points, so the summary is exact whenever the indexes are.
func (g *podAgg) notify(slot int) {
	r := g.racks[slot]

	cores := r.cpuIdx.rankSum()
	g.freeCores += cores - g.rackCores[slot]
	g.rackCores[slot] = cores

	mem := r.memIdx.rankSum()
	g.freeMem += mem - g.rackMem[slot]
	g.rackMem[slot] = mem

	// maxGap invariant: when clean it is the exact maximum over rackGap;
	// when dirty it is an upper bound (set when the maximal rack shrank).
	// A gap reaching the bound is therefore the new exact maximum either
	// way; a gap dropping from the bound dirties it.
	gap := brick.Bytes(r.memIdx.maxFitAAny())
	old := g.rackGap[slot]
	g.rackGap[slot] = gap
	if gap >= g.maxGap {
		g.maxGap, g.gapDirty = gap, false
	} else if old == g.maxGap {
		g.gapDirty = true
	}

	cc := r.cpuIdx.stateCounts()
	mc := r.memIdx.stateCounts()
	for st := 0; st < nStates; st++ {
		g.cpuCensus[st] += cc[st] - g.rackCPUCensus[slot][st]
		g.memCensus[st] += mc[st] - g.rackMemCensus[slot][st]
	}
	g.rackCPUCensus[slot] = cc
	g.rackMemCensus[slot] = mc
}

// FreeCores returns the pod's cached free-core sum.
func (g *podAgg) FreeCores() int64 { return g.freeCores }

// FreeMemory returns the pod's cached free-byte sum over memory bricks.
func (g *podAgg) FreeMemory() brick.Bytes { return brick.Bytes(g.freeMem) }

// MaxGap returns the pod's largest contiguous memory gap, recomputing
// over the cached per-rack gaps only after the maximal rack shrank.
func (g *podAgg) MaxGap() brick.Bytes {
	if g.gapDirty {
		var m brick.Bytes
		for _, gap := range g.rackGap {
			if gap > m {
				m = gap
			}
		}
		g.maxGap, g.gapDirty = m, false
	}
	return g.maxGap
}

// notifyAgg folds this rack's current index roots into the pod summary
// it rolls up into, if one is installed.
func (c *Controller) notifyAgg() {
	if c.agg != nil {
		c.agg.notify(c.aggSlot)
	}
}
