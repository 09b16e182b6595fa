package sdm

import (
	"fmt"
	"testing"

	"repro/internal/brick"
	"repro/internal/topo"
)

// TestAttachmentQueriesAllocFree pins the append-into-dst attachment
// queries at zero allocations per call once the destination has
// capacity — the contract migration pre-flights and the rebalancer
// rely on to stop allocating per sweep.
func TestAttachmentQueriesAllocFree(t *testing.T) {
	cfg := DefaultConfig
	cfg.PacketFallback = true
	s := buildBatchPod(t, 2, 2, 2, 8*brick.GiB, cfg)
	first, err := s.AdmitBatch([]AdmitRequest{
		{Owner: "vm", VCPUs: 1, LocalMem: brick.GiB, Remote: brick.GiB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdmitBatch([]AdmitRequest{
		{Owner: "vm", VCPUs: 0, Remote: brick.GiB, CPU: first[0].CPU, Rack: first[0].Rack},
	}); err != nil {
		t.Fatal(err)
	}
	dst := make([]*Attachment, 0, 16)
	if n := testing.AllocsPerRun(100, func() {
		dst = s.AppendAttachments(dst[:0], "vm")
	}); n != 0 {
		t.Fatalf("PodScheduler.AppendAttachments allocates %.0f/op, want 0", n)
	}
	if len(dst) == 0 {
		t.Fatal("AppendAttachments returned no attachments")
	}
	rack := s.Rack(0)
	if n := testing.AllocsPerRun(100, func() {
		dst = rack.AppendAttachments(dst[:0], "vm")
	}); n != 0 {
		t.Fatalf("Controller.AppendAttachments allocates %.0f/op, want 0", n)
	}
}

// TestRebalanceSweepAllocFree pins a no-promotion rebalancing sweep at
// zero allocations once its snapshot scratch is warm: a periodic
// background rebalancer costs nothing while there is nothing to do.
func TestRebalanceSweepAllocFree(t *testing.T) {
	cfg := DefaultConfig
	cfg.PacketFallback = true
	s := buildPodSched(t, 2, 2*brick.GiB, 4, cfg)
	cpu, _, err := s.ReserveCompute("vm", 1, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the home rack's memory, then spill cross-rack; the home rack
	// stays full, so every sweep skips the spill with no-room.
	if _, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB); err != nil {
		t.Fatal(err)
	}
	spill, _, err := s.AttachRemoteMemory("vm", cpu, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if !spill.CrossRack() {
		t.Fatal("expected a cross-rack spill")
	}
	s.Rebalance(0) // warm the scratch buffer
	if n := testing.AllocsPerRun(50, func() {
		rep := s.Rebalance(0)
		if rep.SkippedNoRoom != 1 || rep.Promoted != 0 {
			t.Fatalf("sweep did not skip the spill: %+v", rep)
		}
	}); n != 0 {
		t.Fatalf("no-op rebalance sweep allocates %.0f/op, want 0", n)
	}

	// Room frees at home: each sweep now promotes the spill, which a
	// sideways re-home then spills again. The promotion allocates
	// nothing; the sweep's one allocation is its report's Promotions
	// slice, which the caller keeps.
	if _, err := s.DetachRemoteMemory(s.Attachments("vm")[0]); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		rep := s.Rebalance(0)
		if rep.Promoted != 1 || rep.Failed != 0 {
			t.Fatalf("sweep did not promote the spill: %+v", rep)
		}
		if _, err := s.Rehome(spill, 1); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the host lists and the spill order
	if n := testing.AllocsPerRun(50, cycle); n != 1 {
		t.Fatalf("promoting rebalance sweep allocates %.0f/op, want 1 (the Promotions slice)", n)
	}
}

// TestMovesAllocFree pins the inline moves at zero allocations once
// warm: a re-point there and back on one rack, a re-point through the
// pod from a rack-local to a cross-rack circuit and back, a sideways
// re-home and back, and a promotion with the re-spill that undoes it.
func TestMovesAllocFree(t *testing.T) {
	s := buildPodSchedSpec(t, 3, 8*brick.GiB, 4, DefaultConfig, 2)
	rack0 := s.racks[0]
	home := topo.PodBrickID{Brick: rack0.computeOrder[0]}
	if _, _, err := s.ReserveCompute("vm", 1, 0); err != nil {
		t.Fatal(err)
	}
	local, _, err := s.AttachRemoteMemory("local", home, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	cross, _, err := s.attachCross("cross", topo.RowBrickID{Brick: home.Brick}, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if local.CrossRack() || !cross.CrossRack() {
		t.Fatalf("set-up: local crosses %t, cross crosses %t", local.CrossRack(), cross.CrossRack())
	}
	memRack := cross.MemRack
	sideways := 3 - memRack // the rack that is neither home (0) nor memRack
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	repoint := func(att *Attachment, to topo.PodBrickID) {
		_, _, err := s.Repoint(att, to)
		must(err)
	}
	rehome := func(att *Attachment, rack int) {
		_, err := s.Rehome(att, rack)
		must(err)
	}
	moves := []struct {
		name string
		run  func()
	}{
		{"rack-repoint", func() {
			_, _, err := rack0.ReattachRemoteMemory(local, rack0.computeOrder[1])
			must(err)
			_, _, err = rack0.ReattachRemoteMemory(local, home.Brick)
			must(err)
		}},
		{"pod-repoint", func() {
			repoint(local, topo.PodBrickID{Rack: 1, Brick: s.racks[1].computeOrder[0]})
			if !local.CrossRack() {
				t.Fatal("re-point onto rack 1 left the circuit rack-local")
			}
			repoint(local, home)
		}},
		{"rehome-sideways", func() {
			rehome(cross, sideways)
			rehome(cross, memRack)
		}},
		{"promote", func() {
			_, err := s.Promote(cross)
			must(err)
			rehome(cross, memRack)
		}},
	}
	for _, m := range moves {
		m.run()
		m.run() // warm the host lists, live lists and spill order
		if n := testing.AllocsPerRun(50, m.run); n != 0 {
			t.Errorf("%s there and back allocates %.1f/op, want 0", m.name, n)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitRetryAllocFree pins a pod admission whose partition plan a
// rack refuses at zero allocations: the rack records the refusal with
// no error text, and the retry re-places the request exactly.
func TestAdmitRetryAllocFree(t *testing.T) {
	s := buildPodSchedSpec(t, 2, 8*brick.GiB, 4, DefaultConfig, 2)
	rack0 := s.racks[0]
	// Rack 0 has 4 free cores, 3 on its first brick and 1 on its
	// second. The first 2-vCPU request takes the first brick; the
	// partition plans the second onto rack 0 too (4 free less 2
	// planned), where no brick has 2 cores left after the first.
	for pos, used := range []int{1, 3} {
		node := rack0.computes[pos]
		node.Brick.PowerOn()
		if err := node.Brick.AllocCores(used); err != nil {
			t.Fatal(err)
		}
		rack0.touchCompute(rack0.computeOrder[pos])
	}
	reqs := []AdmitRequest{{Owner: "a", VCPUs: 2}, {Owner: "b", VCPUs: 2}}
	out := make([]AdmitResult, len(reqs))
	ereqs := make([]EvictRequest, len(reqs))
	eout := make([]EvictResult, len(reqs))
	cycle := func() {
		if err := s.AdmitBatchInto(reqs, out, 0); err != nil {
			t.Fatal(err)
		}
		if out[0].Rack != 0 || out[1].Rack != 1 {
			t.Fatalf("admitted onto racks %d and %d, want 0 and 1", out[0].Rack, out[1].Rack)
		}
		for i := range reqs {
			ereqs[i] = EvictRequest{Owner: reqs[i].Owner, CPU: out[i].CPU, Rack: out[i].Rack, VCPUs: reqs[i].VCPUs}
		}
		if err := s.EvictBatchInto(ereqs, eout, 0); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	_, before := rack0.Stats()
	const runs = 50
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Fatalf("admission through a rack refusal allocates %.1f/op, want 0", n)
	}
	if _, after := rack0.Stats(); after-before != runs+1 {
		t.Fatalf("rack 0 refused %d of %d admissions, want every one", after-before, runs+1)
	}
}

// steadyChurn runs warmed admit→evict cycles over caller-held buffers
// and returns the amortised allocations per full cycle. Every cycle
// admits the same owners and evicts them again, so the schedulers'
// arenas (attachments, circuits, segments), live lists and batch
// scratch all reach steady state during the warm-up cycles.
func steadyChurn(t *testing.T, admit func([]AdmitRequest, []AdmitResult) error,
	evict func([]EvictRequest, []EvictResult) error, reqs []AdmitRequest) float64 {
	t.Helper()
	aout := make([]AdmitResult, len(reqs))
	ereqs := make([]EvictRequest, len(reqs))
	for i := range ereqs {
		ereqs[i].Atts = make([]*Attachment, 1)
	}
	eout := make([]EvictResult, len(reqs))
	cycle := func() {
		if err := admit(reqs, aout); err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			ereqs[i] = EvictRequest{
				Owner: reqs[i].Owner, CPU: aout[i].CPU, Rack: aout[i].Rack, Pod: aout[i].Pod,
				VCPUs: reqs[i].VCPUs, LocalMem: reqs[i].LocalMem, Atts: ereqs[i].Atts,
			}
			ereqs[i].Atts[0] = aout[i].Att
		}
		if err := evict(ereqs, eout); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle() // warm arenas, live lists and batch scratch
	}
	return testing.AllocsPerRun(10, cycle)
}

// TestAdmitEvictSteadyStateAllocFree pins the tentpole contract of the
// dense-ID data plane: once warm, a steady admit→evict churn through
// the group-commit engines allocates nothing per cycle at either tier,
// under both placement policies. Both worker arguments are pinned —
// workers=0 is the facade default — because the commit must stay on the
// caller's goroutine whatever the caller asks for.
func TestAdmitEvictSteadyStateAllocFree(t *testing.T) {
	policies := []struct {
		name string
		pol  Policy
	}{{"firstfit", PolicyFirstFit}, {"spread", PolicySpread}}
	for _, pol := range policies {
		for _, workers := range []int{0, 1} {
			name := fmt.Sprintf("%s/workers=%d", pol.name, workers)
			t.Run("pod/"+name, func(t *testing.T) {
				cfg := DefaultConfig
				cfg.Policy = pol.pol
				s := buildBatchPod(t, 2, 4, 4, 8*brick.GiB, cfg)
				reqs := make([]AdmitRequest, 6)
				for i := range reqs {
					reqs[i] = AdmitRequest{
						Owner: fmt.Sprintf("churn-%d", i), VCPUs: 1, Remote: brick.GiB / 4,
					}
				}
				n := steadyChurn(t,
					func(r []AdmitRequest, o []AdmitResult) error { return s.AdmitBatchInto(r, o, workers) },
					func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, workers) },
					reqs)
				if n != 0 {
					t.Fatalf("pod admit+evict cycle allocates %.1f/op, want 0", n)
				}
			})
			t.Run("row/"+name, func(t *testing.T) {
				cfg := DefaultConfig
				cfg.Policy = pol.pol
				s := buildRowSched(t, 2, 2, 8*brick.GiB, cfg)
				reqs := make([]AdmitRequest, 4)
				for i := range reqs {
					reqs[i] = AdmitRequest{
						Owner: fmt.Sprintf("churn-%d", i), VCPUs: 1, Remote: brick.GiB / 4,
					}
				}
				n := steadyChurn(t,
					func(r []AdmitRequest, o []AdmitResult) error { return s.AdmitBatchInto(r, o, workers) },
					func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, workers) },
					reqs)
				if n != 0 {
					t.Fatalf("row admit+evict cycle allocates %.1f/op, want 0", n)
				}
			})
			t.Run("row-one/"+name, func(t *testing.T) {
				cfg := DefaultConfig
				cfg.Policy = pol.pol
				s := buildRowSched(t, 2, 2, 8*brick.GiB, cfg)
				// A batch of one, with every idle brick powered off first so
				// each cycle boots a compute and a memory brick into the
				// row's shared boot journal, whose entries must be reused.
				reqs := []AdmitRequest{{Owner: "one", VCPUs: 1, Remote: brick.GiB / 4}}
				offs := 0
				n := steadyChurn(t,
					func(r []AdmitRequest, o []AdmitResult) error {
						offs += s.PowerOffIdle()
						return s.AdmitBatchInto(r, o, workers)
					},
					func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, workers) },
					reqs)
				if n != 0 {
					t.Fatalf("row batch-of-one admit+evict cycle allocates %.1f/op, want 0", n)
				}
				if offs == 0 {
					t.Fatal("no cycle powered a brick off, so none booted one")
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("pod-spill/"+name, func(t *testing.T) {
				cfg := DefaultConfig
				cfg.Policy = pol.pol
				s := buildBatchPod(t, 4, 2, 2, 8*brick.GiB, cfg)
				// Racks 0-1 keep cores but no memory, racks 2-3 memory but no
				// cores: every VM lands on 0-1 and spills cross-rack.
				for r := 0; r < 2; r++ {
					fillRackMemory(t, s.Rack(r), 8*brick.GiB)
					fillRackCores(t, s.Rack(r+2))
				}
				reqs := make([]AdmitRequest, 6)
				for i := range reqs {
					reqs[i] = AdmitRequest{
						Owner: fmt.Sprintf("spill-%d", i), VCPUs: 1, Remote: brick.GiB,
					}
				}
				aout := make([]AdmitResult, len(reqs))
				if err := s.AdmitBatchInto(reqs, aout, workers); err != nil {
					t.Fatal(err)
				}
				for i := range aout {
					if !aout[i].Att.CrossRack() {
						t.Fatalf("request %d placed rack-locally, want a cross-rack spill", i)
					}
				}
				evictAll(t, func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, workers) }, reqs, aout)
				n := steadyChurn(t,
					func(r []AdmitRequest, o []AdmitResult) error { return s.AdmitBatchInto(r, o, workers) },
					func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, workers) },
					reqs)
				if n != 0 {
					t.Fatalf("pod spill admit+evict cycle allocates %.1f/op, want 0", n)
				}
			})
			t.Run("row-spill/"+name, func(t *testing.T) {
				cfg := DefaultConfig
				cfg.Policy = pol.pol
				s := buildRowSched(t, 2, 2, 8*brick.GiB, cfg)
				// Pod 0 keeps cores but no memory, pod 1 memory but no cores:
				// every VM lands in pod 0 and spills cross-pod.
				for r := 0; r < 2; r++ {
					fillRackMemory(t, s.Pod(0).Rack(r), 8*brick.GiB)
					fillRackCores(t, s.Pod(1).Rack(r))
				}
				// Three VMs: first-fit packs them on one 4-port compute brick
				// whose fourth port holds its rack's ballast circuit.
				reqs := make([]AdmitRequest, 3)
				for i := range reqs {
					reqs[i] = AdmitRequest{
						Owner: fmt.Sprintf("spill-%d", i), VCPUs: 1, Remote: brick.GiB,
					}
				}
				aout := make([]AdmitResult, len(reqs))
				if err := s.AdmitBatchInto(reqs, aout, workers); err != nil {
					t.Fatal(err)
				}
				for i := range aout {
					if !aout[i].Att.CrossPod() {
						t.Fatalf("request %d placed pod-locally, want a cross-pod spill", i)
					}
				}
				evictAll(t, func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, workers) }, reqs, aout)
				n := steadyChurn(t,
					func(r []AdmitRequest, o []AdmitResult) error { return s.AdmitBatchInto(r, o, workers) },
					func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, workers) },
					reqs)
				if n != 0 {
					t.Fatalf("row spill admit+evict cycle allocates %.1f/op, want 0", n)
				}
			})
		}
	}
}

// TestAdmitEvictUniqueOwnersAllocFree is the steady churn with a fresh
// owner name for every VM, drawn from a pre-built slice, at the rack,
// pod and row tiers: registration keys nothing by name, so once warm a
// cycle allocates nothing however many distinct owners pass through,
// and no rack's live list outgrows its peak occupancy.
func TestAdmitEvictUniqueOwnersAllocFree(t *testing.T) {
	// churn runs steadyChurn with every admitted request renamed first;
	// racks are the controllers whose live lists are bounded.
	churn := func(t *testing.T, n int, racks []*Controller,
		admit func([]AdmitRequest, []AdmitResult) error, evict func([]EvictRequest, []EvictResult) error) {
		t.Helper()
		names := make([]string, 64*n)
		for i := range names {
			names[i] = fmt.Sprintf("vm-%d", i)
		}
		next := 0
		peak := make([]int, len(racks))
		reqs := make([]AdmitRequest, n)
		for i := range reqs {
			reqs[i] = AdmitRequest{VCPUs: 1, Remote: brick.GiB / 4}
		}
		allocs := steadyChurn(t, func(r []AdmitRequest, o []AdmitResult) error {
			if next+len(r) > len(names) {
				t.Fatal("owner names exhausted")
			}
			for i := range r {
				r[i].Owner = names[next]
				next++
			}
			err := admit(r, o)
			for i, c := range racks {
				peak[i] = max(peak[i], len(c.live))
			}
			return err
		}, evict, reqs)
		if allocs != 0 {
			t.Fatalf("unique-owner admit+evict cycle allocates %.1f/op, want 0", allocs)
		}
		for i, c := range racks {
			if cap(c.live) > 2*peak[i] {
				t.Fatalf("rack %d live list cap %d after a peak of %d live attachments", i, cap(c.live), peak[i])
			}
		}
	}
	t.Run("rack", func(t *testing.T) {
		s := buildBatchPod(t, 1, 4, 4, 8*brick.GiB, DefaultConfig)
		c := s.Rack(0)
		rel := make([]ReleaseRequest, 6)
		relOut := make([]ReleaseResult, len(rel))
		churn(t, len(rel), []*Controller{c},
			func(r []AdmitRequest, o []AdmitResult) error {
				c.PlaceBatch(r, o)
				for i := range o {
					if o[i].Err != nil {
						return o[i].Err
					}
				}
				return nil
			},
			func(r []EvictRequest, o []EvictResult) error {
				for i := range r {
					rel[i] = ReleaseRequest{Owner: r[i].Owner, CPU: r[i].CPU, VCPUs: r[i].VCPUs, LocalMem: r[i].LocalMem, Atts: r[i].Atts}
				}
				c.ReleaseBatch(rel, relOut)
				for i := range relOut {
					if relOut[i].Err != nil {
						return relOut[i].Err
					}
				}
				// The rack tier has no batch epilogue of its own: park the
				// retired attachments as the pod and row epilogues do.
				for i := range rel {
					for _, att := range rel[i].Atts {
						c.freeAttachment(att)
					}
				}
				return nil
			})
	})
	t.Run("pod", func(t *testing.T) {
		s := buildBatchPod(t, 2, 4, 4, 8*brick.GiB, DefaultConfig)
		churn(t, 6, s.racks,
			func(r []AdmitRequest, o []AdmitResult) error { return s.AdmitBatchInto(r, o, 0) },
			func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, 0) })
	})
	t.Run("row", func(t *testing.T) {
		s := buildRowSched(t, 2, 2, 8*brick.GiB, DefaultConfig)
		var racks []*Controller
		for _, p := range s.pods {
			racks = append(racks, p.racks...)
		}
		churn(t, 4, racks,
			func(r []AdmitRequest, o []AdmitResult) error { return s.AdmitBatchInto(r, o, 0) },
			func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, 0) })
	})
}

// fillRackMemory carves every memory brick of a rack full through the
// rack's own attach path, so indexes, ports and circuits stay
// consistent.
func fillRackMemory(t *testing.T, c *Controller, capacity brick.Bytes) {
	t.Helper()
	cpu := c.computeOrder[0]
	for i := range c.memories {
		if _, _, err := c.AttachRemoteMemory(fmt.Sprintf("ballast-%d", i), cpu, capacity); err != nil {
			t.Fatal(err)
		}
	}
	if gap := c.MaxMemoryGap(); gap != 0 {
		t.Fatalf("filled rack keeps a %v gap", gap)
	}
}

// fillRackCores reserves every core of a rack.
func fillRackCores(t *testing.T, c *Controller) {
	t.Helper()
	for c.FreeCores() > 0 {
		if _, _, err := c.ReserveCompute("ballast", 1, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// evictAll retires one admitted burst, checking it succeeds.
func evictAll(t *testing.T, evict func([]EvictRequest, []EvictResult) error, reqs []AdmitRequest, aout []AdmitResult) {
	t.Helper()
	ereqs := make([]EvictRequest, len(reqs))
	for i := range ereqs {
		ereqs[i] = EvictRequest{
			Owner: reqs[i].Owner, CPU: aout[i].CPU, Rack: aout[i].Rack, Pod: aout[i].Pod,
			VCPUs: reqs[i].VCPUs, LocalMem: reqs[i].LocalMem, Atts: []*Attachment{aout[i].Att},
		}
	}
	if err := evict(ereqs, make([]EvictResult, len(reqs))); err != nil {
		t.Fatal(err)
	}
}
