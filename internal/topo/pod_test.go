package topo

import "testing"

func TestBuildPod(t *testing.T) {
	spec := BuildSpec{Trays: 2, ComputePerTray: 1, MemoryPerTray: 2, AccelPerTray: 1, PortsPerBrick: 4}
	p, err := BuildPod(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Racks() != 3 {
		t.Fatalf("racks = %d, want 3", p.Racks())
	}
	if got := p.Count(KindMemory); got != 12 {
		t.Fatalf("pod-wide memory bricks = %d, want 12", got)
	}
	for i := 0; i < 3; i++ {
		if p.Rack(i) == nil {
			t.Fatalf("rack %d missing", i)
		}
		if p.Rack(i).Count(KindCompute) != 2 {
			t.Fatalf("rack %d compute count = %d, want 2", i, p.Rack(i).Count(KindCompute))
		}
	}
	if p.Rack(3) != nil || p.Rack(-1) != nil {
		t.Fatal("out-of-range rack lookup should be nil")
	}
}

func TestBuildPodRejectsBadSpecs(t *testing.T) {
	if _, err := BuildPod(0, BuildSpec{Trays: 1, ComputePerTray: 1, PortsPerBrick: 1}); err == nil {
		t.Fatal("zero racks accepted")
	}
	if _, err := BuildPod(2, BuildSpec{}); err == nil {
		t.Fatal("invalid rack spec accepted")
	}
}

func TestPodBrickID(t *testing.T) {
	a := PodBrickID{Rack: 0, Brick: BrickID{Tray: 1, Slot: 2}}
	if got := a.String(); got != "r0.t1.s2" {
		t.Fatalf("String() = %q", got)
	}
}
