package brick

import (
	"fmt"

	"repro/internal/topo"
)

// MemTech identifies the memory technology behind a dMEMBRICK's glue
// logic. The paper stresses technology independence: the glue logic sits
// on an AXI interconnect and fronts either Xilinx DDR or HMC controller
// IPs, so the brick model carries the technology tag and per-technology
// timing lives in internal/mem.
type MemTech int

const (
	// TechDDR is conventional DDR4 behind a Xilinx DDR controller.
	TechDDR MemTech = iota
	// TechHMC is a Hybrid Memory Cube behind an HMC controller.
	TechHMC
)

func (t MemTech) String() string {
	switch t {
	case TechDDR:
		return "DDR"
	case TechHMC:
		return "HMC"
	default:
		return fmt.Sprintf("MemTech(%d)", int(t))
	}
}

// Segment is a contiguous region of a dMEMBRICK's pooled capacity that
// has been carved out for one consumer. Segments are what RMST entries
// on compute bricks point at.
type Segment struct {
	Brick  topo.BrickID
	Offset Bytes // offset within the brick's pool
	Size   Bytes
	Owner  string // opaque consumer tag (VM ID, app ID)
}

// Memory is a dMEMBRICK: pooled capacity that the orchestrator partitions
// into segments and wires to compute bricks. The brick can be dimensioned
// in capacity and in the number of memory controllers (paper §II), and its
// links can be split across multiple consuming compute bricks.
type Memory struct {
	ID          topo.BrickID
	Capacity    Bytes
	Controllers int
	Tech        MemTech
	Ports       *PortSet

	segments []*Segment // sorted by offset
	segFree  []*Segment // recycled Segment objects, popped by Carve/CarveAt
	used     Bytes
	state    PowerState

	// gaps is a multiset of free-gap sizes: one (size, count) run per
	// distinct size, largest first, maintained incrementally by Carve and
	// Release so LargestGap reads gaps[0] in O(1) instead of rescanning
	// the segment list — the quantity every placement-fitness probe asks
	// for. A brick carries few segments, so it has few distinct gap sizes
	// and a linear walk over the runs is cheaper than hashing; gapBuf
	// backs the list inline, so carve and release never allocate for it
	// until a brick holds more distinct sizes than gapBuf has room for.
	gaps   []gapRun
	gapBuf [gapInline]gapRun
}

// gapRun is one distinct free-gap size and how many gaps have it.
type gapRun struct {
	size Bytes
	n    int
}

// gapInline is how many distinct gap sizes a brick tracks before its
// gap list spills to the heap.
const gapInline = 8

// MemoryConfig parameterizes NewMemory. Zero fields take prototype
// defaults: 64 GiB DDR behind 2 controllers.
type MemoryConfig struct {
	Capacity    Bytes
	Controllers int
	Tech        MemTech
	Ports       int
}

// NewMemory builds a powered-off memory brick.
func NewMemory(id topo.BrickID, cfg MemoryConfig) *Memory {
	if cfg.Capacity == 0 {
		cfg.Capacity = 64 * GiB
	}
	if cfg.Controllers <= 0 {
		cfg.Controllers = 2
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 8
	}
	m := &Memory{
		ID:          id,
		Capacity:    cfg.Capacity,
		Controllers: cfg.Controllers,
		Tech:        cfg.Tech,
		Ports:       NewPortSet(id, cfg.Ports),
		state:       PowerOff,
	}
	m.gaps = append(m.gapBuf[:0], gapRun{size: cfg.Capacity, n: 1})
	return m
}

// addGap records one free gap of the given size, keeping the runs
// sorted largest first.
func (m *Memory) addGap(sz Bytes) {
	if sz == 0 {
		return
	}
	i := 0
	for ; i < len(m.gaps) && m.gaps[i].size >= sz; i++ {
		if m.gaps[i].size == sz {
			m.gaps[i].n++
			return
		}
	}
	m.gaps = append(m.gaps, gapRun{})
	copy(m.gaps[i+1:], m.gaps[i:])
	m.gaps[i] = gapRun{size: sz, n: 1}
}

// removeGap drops one free gap of the given size; a run whose last gap
// goes leaves the list, so gaps[0] stays the largest gap.
func (m *Memory) removeGap(sz Bytes) {
	if sz == 0 {
		return
	}
	for i := range m.gaps {
		if m.gaps[i].size != sz {
			continue
		}
		if m.gaps[i].n--; m.gaps[i].n == 0 {
			copy(m.gaps[i:], m.gaps[i+1:])
			m.gaps = m.gaps[:len(m.gaps)-1]
		}
		return
	}
}

// newSegment hands out a Segment with the given identity, reusing a
// recycled object from the brick's free list when one is available.
// Every field is overwritten, so nothing from the previous life leaks;
// callers must treat a released segment as dead — its fields are
// rewritten the moment the object is carved again.
func (m *Memory) newSegment(offset, size Bytes, owner string) *Segment {
	if n := len(m.segFree); n > 0 {
		seg := m.segFree[n-1]
		m.segFree[n-1] = nil
		m.segFree = m.segFree[:n-1]
		seg.Brick, seg.Offset, seg.Size, seg.Owner = m.ID, offset, size, owner
		return seg
	}
	// Pool miss: this carve allocates anyway, so pay for the segment's
	// eventual recycling here too — growing the (empty) free list now
	// keeps cap(segFree) ≥ live segments + pooled segments, which makes
	// Release itself permanently alloc-free, even under release-only
	// bursts like a batched teardown.
	if cap(m.segFree) <= len(m.segments) {
		m.segFree = make([]*Segment, 0, 2*(len(m.segments)+1))
	}
	return &Segment{Brick: m.ID, Offset: offset, Size: size, Owner: owner}
}

// State returns the power state.
func (m *Memory) State() PowerState { return m.state }

// PowerOn transitions the brick to idle or active.
func (m *Memory) PowerOn() {
	if len(m.segments) > 0 {
		m.state = PowerActive
		return
	}
	m.state = PowerIdle
}

// PowerDown powers the brick off; it fails while segments remain.
func (m *Memory) PowerDown() error {
	if len(m.segments) > 0 {
		return fmt.Errorf("memory %v: power down with %d segments allocated", m.ID, len(m.segments))
	}
	m.state = PowerOff
	return nil
}

// Free returns unallocated capacity.
func (m *Memory) Free() Bytes { return m.Capacity - m.used }

// Used returns allocated capacity.
func (m *Memory) Used() Bytes { return m.used }

// Segments returns the live segments in offset order. The slice is shared;
// callers must not mutate it.
func (m *Memory) Segments() []*Segment { return m.segments }

// IsIdle reports whether the brick carries no segments.
func (m *Memory) IsIdle() bool { return len(m.segments) == 0 }

// Carve allocates a segment of the given size for owner using first-fit
// over the gaps between existing segments. The paper's RMST addresses
// "large and contiguous portions of remote memory", so segments are
// always contiguous within the brick.
func (m *Memory) Carve(size Bytes, owner string) (*Segment, error) {
	if size == 0 {
		return nil, fmt.Errorf("memory %v: zero-byte segment", m.ID)
	}
	if m.state == PowerOff {
		return nil, fmt.Errorf("memory %v: carve on powered-off brick", m.ID)
	}
	if size > m.Free() {
		return nil, fmt.Errorf("memory %v: %v requested, %v free", m.ID, size, m.Free())
	}
	if size > m.LargestGap() {
		// Free capacity exists but is fragmented into gaps smaller
		// than the request.
		return nil, fmt.Errorf("memory %v: fragmentation prevents %v contiguous segment (%v free total)", m.ID, size, m.Free())
	}
	// First-fit gap search over the offset-sorted segment list.
	var cursor, gap Bytes
	insertAt := len(m.segments)
	found := false
	for i, s := range m.segments {
		if s.Offset-cursor >= size {
			insertAt, gap = i, s.Offset-cursor
			found = true
			break
		}
		cursor = s.Offset + s.Size
	}
	if !found {
		gap = m.Capacity - cursor
		insertAt = len(m.segments)
	}
	seg := m.newSegment(cursor, size, owner)
	m.segments = append(m.segments, nil)
	copy(m.segments[insertAt+1:], m.segments[insertAt:])
	m.segments[insertAt] = seg
	m.removeGap(gap)
	m.addGap(gap - size)
	m.used += size
	m.state = PowerActive
	return seg, nil
}

// Release frees a previously carved segment.
func (m *Memory) Release(seg *Segment) error {
	for i, s := range m.segments {
		if s != seg {
			continue
		}
		// The freed region merges with the free gaps on either side into
		// one; the multiset swap keeps the cached maximum exact.
		var before, after Bytes
		prevEnd := Bytes(0)
		if i > 0 {
			prevEnd = m.segments[i-1].Offset + m.segments[i-1].Size
		}
		before = seg.Offset - prevEnd
		nextStart := m.Capacity
		if i+1 < len(m.segments) {
			nextStart = m.segments[i+1].Offset
		}
		after = nextStart - (seg.Offset + seg.Size)
		m.removeGap(before)
		m.removeGap(after)
		m.addGap(before + seg.Size + after)

		m.segments = append(m.segments[:i], m.segments[i+1:]...)
		m.used -= seg.Size
		// The segment is verified-removed from the live list, so it can
		// be recycled; foreign segments never reach this push and fall
		// through to the unknown-segment error below.
		m.segFree = append(m.segFree, seg)
		if len(m.segments) == 0 {
			m.state = PowerIdle
		}
		return nil
	}
	return fmt.Errorf("memory %v: release of unknown segment at offset %v", m.ID, seg.Offset)
}

// LargestGap returns the largest contiguous free region, which bounds
// the biggest segment Carve can satisfy. The value is maintained
// incrementally by Carve and Release, so this is an O(1) read — the
// property the scheduler's fitness probes depend on.
func (m *Memory) LargestGap() Bytes {
	if len(m.gaps) == 0 {
		return 0
	}
	return m.gaps[0].size
}

// LargestGapScan recomputes the largest contiguous free region by
// scanning the segment list — the pre-index O(segments) path, kept as
// the ground truth CheckInvariants pins the cached gap to, and as the
// fitness probe of the test-only linear pickers in internal/sdm.
func (m *Memory) LargestGapScan() Bytes {
	var cursor, best Bytes
	for _, s := range m.segments {
		if gap := s.Offset - cursor; gap > best {
			best = gap
		}
		cursor = s.Offset + s.Size
	}
	if tail := m.Capacity - cursor; tail > best {
		best = tail
	}
	return best
}
