package sdm

import (
	"repro/internal/brick"
	"repro/internal/topo"
)

// The picker oracle tests compare the tier's memory and compute choices
// in the shapes their linear twins return: a pod's rack choice (with the
// brick it found, for memory), a row's pod choice (with the rack and
// brick, for memory). These adapters unpack the one picker's path into
// those shapes. The pod's compute adapter shadows the tier's picker on
// PodScheduler, so production code calls that one as s.tier.pickCompute.

func (s *PodScheduler) pickCompute(vcpus int, localMem brick.Bytes, exclude int) (int, bool) {
	if p, ok := s.tier.pickCompute(vcpus, localMem, exclude); ok {
		return p.Rack, true
	}
	return -1, false
}

func (s *PodScheduler) pickMemoryRack(size brick.Bytes, home int) (int, topo.BrickID, bool) {
	if p, ok := s.pickMemory(size, home); ok {
		return p.Rack, p.Brick, true
	}
	return -1, topo.BrickID{}, false
}

func (s *RowScheduler) pickComputePod(vcpus int, localMem brick.Bytes) (int, bool) {
	if p, ok := s.pickCompute(vcpus, localMem, -1); ok {
		return p.Pod, true
	}
	return -1, false
}

func (s *RowScheduler) pickMemoryPod(size brick.Bytes, home int) (pod, rack int, id topo.BrickID, ok bool) {
	if p, ok := s.pickMemory(size, home); ok {
		return p.Pod, p.Rack, p.Brick, true
	}
	return -1, -1, topo.BrickID{}, false
}
