package topo

import "fmt"

// Pod is one tier above Rack: a group of racks that share an inter-rack
// optical tier and one pod-level orchestrator. The rack stays the unit
// of physical assembly (trays, bricks, ports); the pod is the unit of
// datacenter-scale deployment — the dReDBox paper argues disaggregation
// pays off at datacenter scale, and the pod is the first sharding step
// toward it (DESIGN.md §1, ROADMAP north star).
type Pod struct {
	racks []*Rack
}

// Racks returns the number of racks.
func (p *Pod) Racks() int { return len(p.racks) }

// Rack returns the rack at index i, or nil if out of range.
func (p *Pod) Rack(i int) *Rack {
	if i < 0 || i >= len(p.racks) {
		return nil
	}
	return p.racks[i]
}

// Count returns the pod-wide number of bricks of kind k.
func (p *Pod) Count(k BrickKind) int {
	n := 0
	for _, r := range p.racks {
		n += r.Count(k)
	}
	return n
}

// PodBrickID identifies a brick pod-wide: the rack index plus the
// brick's rack-local identifier. Rack-local BrickIDs collide across
// racks (every rack has a t0.s0), so every pod-tier interface speaks
// PodBrickID.
type PodBrickID struct {
	Rack  int
	Brick BrickID
}

func (id PodBrickID) String() string { return fmt.Sprintf("r%d.%v", id.Rack, id.Brick) }

// BuildPod constructs a pod of n identical racks from a uniform spec.
func BuildPod(n int, s BuildSpec) (*Pod, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: pod needs at least one rack, got %d", n)
	}
	p := &Pod{racks: make([]*Rack, n)}
	for i := range p.racks {
		r, err := Build(s)
		if err != nil {
			return nil, fmt.Errorf("topo: building rack %d: %w", i, err)
		}
		p.racks[i] = r
	}
	return p, nil
}
