package sdm

// The indexed placement engine: each controller maintains one
// placementIndex per brick kind it schedules (compute, memory) — a
// segment tree over the controller's deterministic brick order whose
// leaves carry the brick's scheduler-visible capacity vector and whose
// inner nodes carry per-power-state maxima plus a rank sum. Every
// placement policy becomes an ordered-tree descent — O(log n) on
// typical inventories; adversarial shapes (every subtree viable
// because the two fitness maxima come from different leaves, or ranks
// monotonically increasing in order position) degrade a descent to
// O(n), the same bound as the linear scan, never worse:
//
//   - first-fit descends to the lowest order position whose leaf fits,
//     which preserves the pre-index computeOrder semantics exactly;
//   - spread descends for the maximum rank among fitting leaves
//     (earliest position wins ties, as the linear scan's strict ">" did);
//   - power-aware runs the first-fit descent once per power bucket in
//     preference order, pruned by the per-state maxima.
//
// Leaves refresh at the single choke point every mutation already flows
// through — the lifecycle engine's commit/rollback plus the handful of
// direct reservation paths — and carry the brick's change epoch so a
// refresh of an untouched brick is a no-op comparison. The root's
// aggregates (rank sum, per-state maxima) are what the pod tier reads
// to make rack choice O(racks) arithmetic with no nested brick scans.

import (
	"slices"

	"repro/internal/brick"
	"repro/internal/topo"
)

// nStates is the number of brick power states bucketed by the index.
const nStates = 3

// pstat is one brick's scheduler-visible capacity vector.
type pstat struct {
	state brick.PowerState
	// fitA/fitB are the two fitness dimensions a placement must satisfy:
	// free cores / free local bytes for compute bricks, largest
	// contiguous gap / free transceiver ports for memory bricks.
	fitA, fitB int64
	// rank orders the spread policy: free cores for compute bricks,
	// total free bytes for memory bricks.
	rank int64
	// epoch is the brick change epoch this vector was read at.
	epoch uint64
}

// node is one inner segment-tree node: per-power-state maxima of the
// fitness dimensions and rank, plus the subtree rank sum and the
// per-state brick census.
type node struct {
	maxFitA [nStates]int64
	maxFitB [nStates]int64
	maxRank [nStates]int64
	sumRank int64
	cnt     [nStates]int32
}

// placementIndex is the ordered capacity index over one brick kind.
type placementIndex struct {
	n       int // brick count
	size    int // leaf span (power of two >= n)
	stats   []pstat
	tree    []node
	refresh func(pos int) pstat
	// work is touchMany's reused ancestor worklist.
	work []int
}

// newPlacementIndex builds the index over n bricks; refresh reads the
// live capacity vector of the brick at one order position.
func newPlacementIndex(n int, refresh func(pos int) pstat) *placementIndex {
	size := 1
	for size < n {
		size *= 2
	}
	if n == 0 {
		size = 0
	}
	t := &placementIndex{
		n:       n,
		size:    size,
		stats:   make([]pstat, n),
		tree:    make([]node, 2*size),
		refresh: refresh,
	}
	t.rebuild()
	return t
}

// setLeaf writes the inner-node view of one leaf in place — the tree's
// hot path runs through here on every touch, so nodes are never copied
// by value.
func (nd *node) setLeaf(s pstat) {
	for st := 0; st < nStates; st++ {
		nd.maxFitA[st] = -1
		nd.maxFitB[st] = -1
		nd.maxRank[st] = -1
		nd.cnt[st] = 0
	}
	st := int(s.state)
	nd.maxFitA[st] = s.fitA
	nd.maxFitB[st] = s.fitB
	nd.maxRank[st] = s.rank
	nd.sumRank = s.rank
	nd.cnt[st] = 1
}

// setMerge combines two child nodes in place.
func (nd *node) setMerge(a, b *node) {
	for st := 0; st < nStates; st++ {
		nd.maxFitA[st] = max64(a.maxFitA[st], b.maxFitA[st])
		nd.maxFitB[st] = max64(a.maxFitB[st], b.maxFitB[st])
		nd.maxRank[st] = max64(a.maxRank[st], b.maxRank[st])
		nd.cnt[st] = a.cnt[st] + b.cnt[st]
	}
	nd.sumRank = a.sumRank + b.sumRank
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// setEmpty writes the identity leaf for positions past n.
func (nd *node) setEmpty() {
	for st := 0; st < nStates; st++ {
		nd.maxFitA[st] = -1
		nd.maxFitB[st] = -1
		nd.maxRank[st] = -1
		nd.cnt[st] = 0
	}
	nd.sumRank = 0
}

// rebuild refreshes every leaf and recomputes the tree bottom-up —
// used at construction and after bulk mutations (power sweeps).
func (t *placementIndex) rebuild() {
	if t.n == 0 {
		return
	}
	for i := 0; i < t.size; i++ {
		if i < t.n {
			t.stats[i] = t.refresh(i)
			t.tree[t.size+i].setLeaf(t.stats[i])
		} else {
			t.tree[t.size+i].setEmpty()
		}
	}
	for i := t.size - 1; i >= 1; i-- {
		t.tree[i].setMerge(&t.tree[2*i], &t.tree[2*i+1])
	}
}

// touch re-reads the brick at one order position and, if its epoch
// moved, updates the leaf and its root path — the O(log n) maintenance
// step run at every mutation choke point.
func (t *placementIndex) touch(pos int) {
	if pos < 0 || pos >= t.n {
		return
	}
	s := t.refresh(pos)
	if s == t.stats[pos] {
		return
	}
	t.stats[pos] = s
	i := t.size + pos
	t.tree[i].setLeaf(s)
	for i >>= 1; i >= 1; i >>= 1 {
		t.tree[i].setMerge(&t.tree[2*i], &t.tree[2*i+1])
	}
}

// touchMany is touch for a batch flush: it refreshes every listed order
// position once, then recomputes each affected ancestor exactly once,
// level by level. One root path per touched leaf is the right shape for
// sparse updates, but a group commit that dirtied much of the tree
// (spread placement lands every request on a distinct brick) walks the
// shared upper levels once per leaf; here the paths union instead, so a
// flush costs at most one recompute per tree node. The resulting tree
// is identical to applying touch per position — node values are pure
// functions of the leaf stats, independent of recompute order.
func (t *placementIndex) touchMany(poss []int) {
	// Small flushes (one or two leaves — the common case for the
	// per-pick flushes of spread placement and single-attachment
	// commits) are cheaper as plain root paths than as a sorted
	// worklist.
	if len(poss) <= 2 {
		for _, pos := range poss {
			t.touch(pos)
		}
		return
	}
	w := t.work[:0]
	for _, pos := range poss {
		if pos < 0 || pos >= t.n {
			continue
		}
		s := t.refresh(pos)
		if s == t.stats[pos] {
			continue
		}
		t.stats[pos] = s
		t.tree[t.size+pos].setLeaf(s)
		w = append(w, t.size+pos)
	}
	slices.Sort(w)
	// Sorted node indices map to sorted parent indices, so each level
	// dedups with an adjacent-equality check; the loop ends right after
	// the iteration that recomputes the root (index 1).
	for len(w) > 0 && w[0] > 1 {
		n := 0
		for _, i := range w {
			if p := i >> 1; n == 0 || w[n-1] != p {
				w[n] = p
				n++
			}
		}
		w = w[:n]
		for _, i := range w {
			t.tree[i].setMerge(&t.tree[2*i], &t.tree[2*i+1])
		}
	}
	t.work = w[:0]
}

// fitsAny reports whether a node may contain a leaf (in any power
// state) satisfying both fitness thresholds. Conservative: the maxima
// of the two dimensions may come from different leaves, so a true
// answer still needs leaf confirmation; a false answer is exact.
func (nd *node) fitsAny(minA, minB int64) bool {
	for st := 0; st < nStates; st++ {
		if nd.maxFitA[st] >= minA && nd.maxFitB[st] >= minB {
			return true
		}
	}
	return false
}

// fitsState is fitsAny restricted to one power state.
func (nd *node) fitsState(st int, minA, minB int64) bool {
	return nd.maxFitA[st] >= minA && nd.maxFitB[st] >= minB
}

// maxRankAny returns the node's maximum rank across states.
func (nd *node) maxRankAny() int64 {
	m := nd.maxRank[0]
	for st := 1; st < nStates; st++ {
		m = max64(m, nd.maxRank[st])
	}
	return m
}

// firstFit returns the lowest order position whose brick satisfies both
// thresholds in any power state, skipping exclude; -1 if none.
func (t *placementIndex) firstFit(minA, minB int64, exclude int) int {
	if t.n == 0 {
		return -1
	}
	return t.descendFirst(1, 0, t.size, exclude, func(nd *node) bool {
		return nd.fitsAny(minA, minB)
	}, func(s pstat) bool {
		return s.fitA >= minA && s.fitB >= minB
	})
}

// firstFitState is firstFit restricted to one power state.
func (t *placementIndex) firstFitState(state brick.PowerState, minA, minB int64, exclude int) int {
	if t.n == 0 {
		return -1
	}
	st := int(state)
	return t.descendFirst(1, 0, t.size, exclude, func(nd *node) bool {
		return nd.fitsState(st, minA, minB)
	}, func(s pstat) bool {
		return s.state == state && s.fitA >= minA && s.fitB >= minB
	})
}

// descendFirst walks the tree left to right for the first accepted leaf.
func (t *placementIndex) descendFirst(i, lo, hi, exclude int, viable func(*node) bool, accept func(pstat) bool) int {
	if lo >= t.n || !viable(&t.tree[i]) {
		return -1
	}
	if hi-lo == 1 {
		if lo != exclude && accept(t.stats[lo]) {
			return lo
		}
		return -1
	}
	mid := (lo + hi) / 2
	if p := t.descendFirst(2*i, lo, mid, exclude, viable, accept); p >= 0 {
		return p
	}
	return t.descendFirst(2*i+1, mid, hi, exclude, viable, accept)
}

// spreadBest returns the order position with the maximum rank among
// bricks satisfying both thresholds (any state), lowest position
// winning ties — exactly the linear spread scan's strict-"> " answer;
// -1 if none fits.
func (t *placementIndex) spreadBest(minA, minB int64, exclude int) int {
	if t.n == 0 {
		return -1
	}
	best, bestRank := -1, int64(-1)
	var walk func(i, lo, hi int)
	walk = func(i, lo, hi int) {
		nd := &t.tree[i]
		if lo >= t.n || !nd.fitsAny(minA, minB) || nd.maxRankAny() <= bestRank {
			return
		}
		if hi-lo == 1 {
			s := t.stats[lo]
			if lo != exclude && s.fitA >= minA && s.fitB >= minB && s.rank > bestRank {
				best, bestRank = lo, s.rank
			}
			return
		}
		mid := (lo + hi) / 2
		walk(2*i, lo, mid)
		walk(2*i+1, mid, hi)
	}
	walk(1, 0, t.size)
	return best
}

// maxFitAAny returns the largest first-dimension fitness value over
// all bricks (any state) — the rack's largest memory gap or largest
// free-core count, read in O(1) at the root.
func (t *placementIndex) maxFitAAny() int64 {
	if t.n == 0 {
		return 0
	}
	m := int64(0)
	for st := 0; st < nStates; st++ {
		m = max64(m, t.tree[1].maxFitA[st])
	}
	return m
}

// canFit reports whether some brick may satisfy both thresholds — the
// O(1) root check the pod tier uses to skip infeasible racks before
// asking for an exact pick. Conservative in the same way fitsAny is.
func (t *placementIndex) canFit(minA, minB int64) bool {
	if t.n == 0 {
		return false
	}
	return t.tree[1].fitsAny(minA, minB)
}

// rankSum returns the total rank over all bricks — the rack's free
// cores (compute) or free bytes (memory), read in O(1).
func (t *placementIndex) rankSum() int64 {
	if t.n == 0 {
		return 0
	}
	return t.tree[1].sumRank
}

// stateCounts returns the per-power-state brick census, read in O(1) at
// the root — what the row tier's aggregate layer rolls up so a
// row-wide power census never rescans bricks.
func (t *placementIndex) stateCounts() [nStates]int32 {
	if t.n == 0 {
		return [nStates]int32{}
	}
	return t.tree[1].cnt
}

// computeStat reads the capacity vector of the compute brick at one
// order position.
func (c *Controller) computeStat(pos int) pstat {
	b := c.computes[pos].Brick
	return pstat{
		state: b.State(),
		fitA:  int64(b.FreeCores()),
		fitB:  int64(b.LocalMemory - b.UsedLocal()),
		rank:  int64(b.FreeCores()),
		epoch: b.Epoch(),
	}
}

// memoryStat reads the capacity vector of the memory brick at one
// order position.
func (c *Controller) memoryStat(pos int) pstat {
	m := c.memories[pos]
	return pstat{
		state: m.State(),
		fitA:  int64(m.LargestGap()),
		fitB:  int64(m.Ports.Free()),
		rank:  int64(m.Free()),
		epoch: m.Epoch(),
	}
}

// buildIndexes constructs both placement indexes; called once the
// brick orders are final. (The [tray][slot] → ordinal pos tables are
// built alongside the orders in NewController.)
func (c *Controller) buildIndexes() {
	c.cpuIdx = newPlacementIndex(len(c.computeOrder), c.computeStat)
	c.memIdx = newPlacementIndex(len(c.memoryOrder), c.memoryStat)
}

// touchCompute refreshes one compute brick's index leaf. Under batch
// planning the refresh is deferred instead: the position joins the
// batch's dirty set and is flushed once per batch (see batch.go).
func (c *Controller) touchCompute(id topo.BrickID) {
	pos := c.cpuPos(id)
	if pos < 0 {
		return
	}
	if b := c.batch; b != nil && b.active {
		if !b.inDirtyCPU[pos] {
			b.inDirtyCPU[pos] = true
			b.dirtyCPU = append(b.dirtyCPU, pos)
		}
		return
	}
	c.cpuIdx.touch(pos)
	c.notifyAgg()
}

// touchMemory refreshes one memory brick's index leaf (deferred to the
// batch dirty set under batch planning, like touchCompute).
func (c *Controller) touchMemory(id topo.BrickID) {
	pos := c.memPos(id)
	if pos < 0 {
		return
	}
	if b := c.batch; b != nil && b.active {
		if !b.inDirtyMem[pos] {
			b.inDirtyMem[pos] = true
			b.dirtyMem = append(b.dirtyMem, pos)
		}
		return
	}
	c.memIdx.touch(pos)
	c.notifyAgg()
}

// reindexAll rebuilds both indexes after a bulk mutation (power sweep).
func (c *Controller) reindexAll() {
	c.cpuIdx.rebuild()
	c.memIdx.rebuild()
	c.notifyAgg()
}

// CanPlaceCompute reports in O(1) whether the rack may have a compute
// brick with the requested free cores and local memory. A true answer
// must be confirmed by pickCompute (the maxima may come from different
// bricks); false is exact — the property the pod tier's rack loop
// relies on to skip infeasible racks without scanning their bricks.
func (c *Controller) CanPlaceCompute(vcpus int, localMem brick.Bytes) bool {
	return c.cpuIdx.canFit(int64(vcpus), int64(localMem))
}

// MaxMemoryGap returns the largest contiguous free region on any of
// the rack's memory bricks — O(1) at the index root; the pod tier uses
// it to skip a doomed rack-local attach without building a plan.
func (c *Controller) MaxMemoryGap() brick.Bytes {
	return brick.Bytes(c.memIdx.maxFitAAny())
}

// CanPlaceMemory reports in O(1) whether the rack may have a memory
// brick with a contiguous gap of at least size and a spare port, with
// the same conservative contract as CanPlaceCompute.
func (c *Controller) CanPlaceMemory(size brick.Bytes) bool {
	return c.memIdx.canFit(int64(size), 1)
}
