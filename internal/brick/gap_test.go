package brick

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestLargestGapIncremental drives randomized carve/release sequences
// and checks the incrementally maintained LargestGap against the
// brute-force segment-list scan after every mutation.
func TestLargestGapIncremental(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRand(seed)
		m := NewMemory(topo.BrickID{}, MemoryConfig{Capacity: 64 * MiB})
		m.PowerOn()
		var live []*Segment
		check := func(step int, op string) {
			t.Helper()
			if got, want := m.LargestGap(), m.LargestGapScan(); got != want {
				t.Fatalf("seed %d step %d after %s: LargestGap=%v, scan says %v (%d segments)",
					seed, step, op, got, want, len(m.segments))
			}
		}
		check(0, "init")
		for step := 0; step < 2000; step++ {
			// Bias toward carves so the brick fills and fragments; carve
			// sizes span sub-MiB to multi-MiB so gaps split unevenly.
			if len(live) == 0 || rng.Uint64()%10 < 6 {
				size := Bytes(1 + rng.Uint64()%(4*uint64(MiB)))
				seg, err := m.Carve(size, "t")
				if err == nil {
					live = append(live, seg)
				}
				check(step, "carve")
				continue
			}
			i := int(rng.Uint64() % uint64(len(live)))
			seg := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := m.Release(seg); err != nil {
				t.Fatalf("seed %d step %d: release: %v", seed, step, err)
			}
			check(step, "release")
		}
		// Drain completely: the gap multiset must collapse back to one
		// capacity-sized gap.
		for _, seg := range live {
			if err := m.Release(seg); err != nil {
				t.Fatalf("seed %d drain: %v", seed, err)
			}
		}
		if m.LargestGap() != m.Capacity {
			t.Fatalf("seed %d drained: LargestGap=%v, want %v", seed, m.LargestGap(), m.Capacity)
		}
		if m.Free() != m.Capacity {
			t.Fatalf("seed %d drained: Free=%v, want %v", seed, m.Free(), m.Capacity)
		}
	}
	t.Run("many-distinct-sizes", testLargestGapManyDistinctSizes)
}

// testLargestGapManyDistinctSizes opens more distinct gap sizes than
// the inline gap list holds, so the list spills to the heap, and checks
// LargestGap against the scan as the gaps open and close again.
func testLargestGapManyDistinctSizes(t *testing.T) {
	m := NewMemory(topo.BrickID{}, MemoryConfig{Capacity: 64 * MiB})
	m.PowerOn()
	check := func(what string) {
		t.Helper()
		if got, want := m.LargestGap(), m.LargestGapScan(); got != want {
			t.Fatalf("%s: LargestGap=%v, scan says %v (%d segments, %d gap sizes)", what, got, want, len(m.segments), len(m.gaps))
		}
	}
	// Carve holes of sizes 1..n KiB, each followed by a 1 KiB spacer;
	// releasing the holes leaves n gaps of n distinct sizes.
	n := 3 * gapInline
	holes := make([]*Segment, n)
	for i := range holes {
		var err error
		if holes[i], err = m.Carve(Bytes(i+1)*KiB, "hole"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Carve(KiB, "spacer"); err != nil {
			t.Fatal(err)
		}
	}
	check("carved")
	// Release in a scrambled order so runs are inserted mid-list.
	for i := range holes {
		j := (i * 7) % n
		if err := m.Release(holes[j]); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("released hole %d", j))
	}
	if len(m.gaps) <= gapInline {
		t.Fatalf("only %d distinct gap sizes, want more than the %d the inline list holds", len(m.gaps), gapInline)
	}
	// Refill the holes largest first: each carve closes the largest
	// run, so the cached maximum must step down through every size.
	for i := n; i >= 1; i-- {
		if _, err := m.Carve(Bytes(i)*KiB, "refill"); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("refilled %d KiB", i))
	}
}

// TestCarveReleaseAllocFree pins a warmed carve/release cycle at zero
// allocations: the segment comes from the brick's free list and the gap
// list stays inside its inline buffer.
func TestCarveReleaseAllocFree(t *testing.T) {
	m := NewMemory(topo.BrickID{}, MemoryConfig{Capacity: 64 * MiB})
	m.PowerOn()
	// A few live segments so the cycle splits and merges real gaps.
	for i := 0; i < 4; i++ {
		if _, err := m.Carve(Bytes(i+1)*MiB, "base"); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		a, err := m.Carve(3*MiB, "a")
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Carve(5*MiB, "b")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Release(a); err != nil {
			t.Fatal(err)
		}
		if err := m.Release(b); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warmed carve/release cycle allocates %.1f times, want 0", allocs)
	}
}
