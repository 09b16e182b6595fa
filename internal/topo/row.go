package topo

import "fmt"

// Row is one tier above Pod: a group of pods that share an inter-pod
// optical tier and one row-level orchestrator. The pod stays the unit
// of shared-nothing scheduling (each pod scheduler owns its racks); the
// row is the unit of datacenter-scale deployment — at 8–32 pods of 32
// racks each the row spans the ~100k bricks the dReDBox paper's
// datacenter-scale claim is about (ROADMAP north star).
type Row struct {
	pods []*Pod
}

// Pods returns the number of pods.
func (r *Row) Pods() int { return len(r.pods) }

// Pod returns the pod at index i, or nil if out of range.
func (r *Row) Pod(i int) *Pod {
	if i < 0 || i >= len(r.pods) {
		return nil
	}
	return r.pods[i]
}

// Count returns the row-wide number of bricks of kind k.
func (r *Row) Count(k BrickKind) int {
	n := 0
	for _, p := range r.pods {
		n += p.Count(k)
	}
	return n
}

// RowBrickID identifies a brick row-wide: the pod index, the rack index
// within that pod, and the brick's rack-local identifier. PodBrickIDs
// collide across pods (every pod has an r0.t0.s0), so every row-tier
// interface speaks RowBrickID.
type RowBrickID struct {
	Pod   int
	Rack  int
	Brick BrickID
}

func (id RowBrickID) String() string { return fmt.Sprintf("p%d.r%d.%v", id.Pod, id.Rack, id.Brick) }

// BuildRow constructs a row of n identical pods, each of racksPerPod
// identical racks from a uniform spec.
func BuildRow(n, racksPerPod int, s BuildSpec) (*Row, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: row needs at least one pod, got %d", n)
	}
	r := &Row{pods: make([]*Pod, n)}
	for i := range r.pods {
		p, err := BuildPod(racksPerPod, s)
		if err != nil {
			return nil, fmt.Errorf("topo: building pod %d: %w", i, err)
		}
		r.pods[i] = p
	}
	return r, nil
}
