package sdm

import (
	"fmt"
	"testing"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// evictSequential retires one consumer through the reference
// sequential detach (sequential_reference_test.go) and the release
// entry point in the batch engine's canonical order — rack-local detaches,
// compute release, cross-rack detaches — the sequential path a batch of
// size 1 must reproduce bit for bit.
func evictSequential(s *PodScheduler, req EvictRequest) (EvictResult, error) {
	var res EvictResult
	for _, att := range req.Atts {
		if att.spill != nil {
			continue
		}
		lat, err := s.racks[req.Rack].seqDetach(att)
		if err != nil {
			return res, err
		}
		res.DetachLat += lat
		res.Detached++
	}
	if req.VCPUs > 0 || req.LocalMem > 0 {
		if err := s.ReleaseCompute(topo.PodBrickID{Rack: req.Rack, Brick: req.CPU}, req.VCPUs, req.LocalMem); err != nil {
			return res, err
		}
	}
	for _, att := range req.Atts {
		if att.spill == nil {
			continue
		}
		lat, err := seqDetachAt(s.rackAt, att)
		if err != nil {
			return res, err
		}
		res.DetachLat += lat
		res.Detached++
	}
	return res, nil
}

// evictRequestFor builds the EvictRequest retiring one admitted
// consumer: its attachments newest-first (so packet riders precede
// their hosts) plus its compute reservation.
func evictRequestFor(s *PodScheduler, owner string, req AdmitRequest, res AdmitResult) EvictRequest {
	atts := s.Attachments(owner)
	for i, j := 0, len(atts)-1; i < j; i, j = i+1, j-1 {
		atts[i], atts[j] = atts[j], atts[i]
	}
	return EvictRequest{
		Owner: owner, CPU: res.CPU, Rack: res.Rack,
		VCPUs: req.VCPUs, LocalMem: req.LocalMem, Atts: atts,
	}
}

// populateChurnPod drives a deterministic admission trace and returns
// the placed requests and results in placement order.
func populateChurnPod(t *testing.T, s *PodScheduler, seed uint64, rounds, perRound int) ([]AdmitRequest, []AdmitResult) {
	t.Helper()
	rng := sim.NewRand(seed)
	var reqs []AdmitRequest
	var placed []AdmitResult
	for round := 0; round < rounds; round++ {
		// Admit one request per batch so deterministic capacity misses
		// skip that request alone instead of rolling back the round.
		for _, req := range batchTestRequests(rng, perRound, placed) {
			out, err := s.AdmitBatch([]AdmitRequest{req})
			if err != nil {
				continue
			}
			reqs = append(reqs, req)
			placed = append(placed, out...)
		}
	}
	if len(reqs) == 0 {
		t.Fatal("populate admitted nothing")
	}
	return reqs, placed
}

// TestEvictBatchSizeOneMatchesSequential drives the same LIFO teardown
// trace through single-request EvictBatch calls and through the
// per-request entry points on twin pods: results, counters and final
// per-rack snapshots must be byte-identical — the acceptance contract
// that batch size 1 IS the sequential path.
func TestEvictBatchSizeOneMatchesSequential(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicyFirstFit, PolicySpread} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := DefaultConfig
			cfg.Policy = policy
			cfg.PacketFallback = true
			seqPod := buildBatchPod(t, 3, 3, 1, 4*brick.GiB, cfg)
			batPod := buildBatchPod(t, 3, 3, 1, 4*brick.GiB, cfg)
			reqs, seqPlaced := populateChurnPod(t, seqPod, 17, 4, 8)
			_, batPlaced := populateChurnPod(t, batPod, 17, 4, 8)

			// Newest-first teardown: packet riders always detach before
			// the circuits they ride.
			for i := len(reqs) - 1; i >= 0; i-- {
				seqReq := evictRequestFor(seqPod, reqs[i].Owner, reqs[i], seqPlaced[i])
				batReq := evictRequestFor(batPod, reqs[i].Owner, reqs[i], batPlaced[i])
				seqRes, seqErr := evictSequential(seqPod, seqReq)
				batOut, batErr := batPod.EvictBatch([]EvictRequest{batReq})
				if (seqErr == nil) != (batErr == nil) {
					t.Fatalf("evict %d (%q): sequential err=%v, batch err=%v", i, reqs[i].Owner, seqErr, batErr)
				}
				if seqErr != nil {
					continue
				}
				if batOut[0].DetachLat != seqRes.DetachLat || batOut[0].Detached != seqRes.Detached {
					t.Fatalf("evict %d (%q): batch %+v != sequential %+v", i, reqs[i].Owner, batOut[0], seqRes)
				}
			}
			if got, want := podSnapshotJSON(t, batPod), podSnapshotJSON(t, seqPod); got != want {
				t.Fatalf("final pod snapshots diverge:\nbatch:\n%s\nsequential:\n%s", got, want)
			}
			sr, sf, ss := seqPod.Stats()
			br, bf, bs := batPod.Stats()
			if sr != br || sf != bf || ss != bs {
				t.Fatalf("pod counters diverge: sequential %d/%d/%d, batch %d/%d/%d", sr, sf, ss, br, bf, bs)
			}
			if err := batPod.CheckInvariants(); err != nil {
				t.Fatalf("invariants after full teardown: %v", err)
			}
		})
	}
}

// TestReleaseBatchSizeOneMatchesSequentialRack checks the rack-level
// contract: ReleaseBatch selections, latencies, counters and final
// state are byte-identical to the per-request detach loop.
func TestReleaseBatchSizeOneMatchesSequentialRack(t *testing.T) {
	cfg := DefaultConfig
	cfg.PacketFallback = true
	seqC := buildBatchPod(t, 1, 3, 2, 6*brick.GiB, cfg).Rack(0)
	batC := buildBatchPod(t, 1, 3, 2, 6*brick.GiB, cfg).Rack(0)

	type vm struct {
		owner string
		cpu   topo.BrickID
		atts  int
	}
	var vms []vm
	for i := 0; i < 10; i++ {
		owner := fmt.Sprintf("vm-%d", i)
		atts := 1 + i%2
		for _, c := range []*Controller{seqC, batC} {
			id, _, err := c.ReserveCompute(owner, 1, brick.GiB/2)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < atts; j++ {
				if _, _, err := c.AttachRemoteMemory(owner, id, brick.GiB/2); err != nil {
					t.Fatal(err)
				}
			}
		}
		vms = append(vms, vm{owner: owner, cpu: seqC.Attachments(owner)[0].CPU, atts: atts})
	}

	for i := len(vms) - 1; i >= 0; i-- {
		v := vms[i]
		var seqLat sim.Duration
		seqAtts := seqC.Attachments(v.owner)
		for j := len(seqAtts) - 1; j >= 0; j-- {
			lat, err := seqC.seqDetach(seqAtts[j])
			if err != nil {
				t.Fatalf("sequential detach of %q: %v", v.owner, err)
			}
			seqLat += lat
		}
		if err := seqC.ReleaseCompute(v.cpu, 1, brick.GiB/2); err != nil {
			t.Fatal(err)
		}

		batAtts := batC.Attachments(v.owner)
		for a, b := 0, len(batAtts)-1; a < b; a, b = a+1, b-1 {
			batAtts[a], batAtts[b] = batAtts[b], batAtts[a]
		}
		out := make([]ReleaseResult, 1)
		batC.ReleaseBatch([]ReleaseRequest{{
			Owner: v.owner, CPU: batAtts[0].CPU, VCPUs: 1, LocalMem: brick.GiB / 2, Atts: batAtts,
		}}, out)
		if out[0].Err != nil {
			t.Fatalf("batch release of %q: %v", v.owner, out[0].Err)
		}
		if out[0].DetachLat != seqLat {
			t.Fatalf("release of %q: batch latency %v != sequential %v", v.owner, out[0].DetachLat, seqLat)
		}
	}
	seqSnap, _ := seqC.Snapshot().JSON()
	batSnap, _ := batC.Snapshot().JSON()
	if string(seqSnap) != string(batSnap) {
		t.Fatalf("rack snapshots diverge:\nbatch:\n%s\nsequential:\n%s", batSnap, seqSnap)
	}
}

// TestEvictBatchDeterministicAcrossWorkers replays the same admission
// and LIFO eviction trace on two identically built pods: the pod must
// pass its invariants after the teardowns, and final state must be
// byte-identical between the runs.
func TestEvictBatchDeterministicAcrossWorkers(t *testing.T) {
	run := func() string {
		cfg := DefaultConfig
		cfg.Policy = PolicySpread // spreads the trace across all racks
		cfg.PacketFallback = true
		s := buildBatchPod(t, 4, 3, 2, 8*brick.GiB, cfg)
		reqs, placed := populateChurnPod(t, s, 29, 3, 10)

		// Tear half of it down in LIFO chunks of 5.
		for hi := len(reqs) - 1; hi >= len(reqs)/2; hi -= 5 {
			var batch []EvictRequest
			for i := hi; i > hi-5 && i >= len(reqs)/2; i-- {
				batch = append(batch, evictRequestFor(s, reqs[i].Owner, reqs[i], placed[i]))
			}
			if _, err := s.EvictBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		return podSnapshotJSON(t, s)
	}
	if run() != run() {
		t.Fatal("final state diverges between two identical runs")
	}
}

// podSnapshotNoCounters renders every rack's snapshot with the
// request/failure counters zeroed — a failed batch legitimately spends
// counters, but must restore everything else byte-identically.
func podSnapshotNoCounters(t *testing.T, s *PodScheduler) string {
	t.Helper()
	out := ""
	for i := 0; i < s.Racks(); i++ {
		snap := s.Rack(i).Snapshot()
		snap.Requests, snap.Failures = 0, 0
		data, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		out += string(data)
	}
	return out
}

// TestEvictBatchRollbackRestoresState is the teardown rollback
// acceptance test, mirroring TestAdmitBatchRollbackRestoresState:
// randomized eviction batches with one poisoned (not-live) attachment
// at a random position must fail as a whole and leave indexes, free
// aggregates, circuits, attachments, power states and the rebalancer's
// crossOrder byte-identical to the pre-batch state — including batches
// whose healthy prefix already tore down cross-rack spills and packet
// riders.
func TestEvictBatchRollbackRestoresState(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicySpread} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := DefaultConfig
			cfg.Policy = policy
			cfg.PacketFallback = true
			// Small memory bricks so the population holds cross-rack
			// spills and packet riders.
			s := buildBatchPod(t, 3, 3, 1, 4*brick.GiB, cfg)
			reqs, placed := populateChurnPod(t, s, 47, 3, 8)
			if s.cross.n == 0 {
				t.Fatal("population produced no cross-rack spills; the rollback test needs live crossOrder entries")
			}

			rng := sim.NewRand(53)
			for trial := 0; trial < 25; trial++ {
				before := snapPodBatch(s)
				beforeJSON := podSnapshotNoCounters(t, s)

				// A LIFO slice of the live population (legit teardowns the
				// rollback must then restore) plus one poisoned request.
				n := 2 + int(rng.Uint64()%4)
				var batch []EvictRequest
				for i := len(reqs) - 1; i >= 0 && len(batch) < n; i-- {
					batch = append(batch, evictRequestFor(s, reqs[i].Owner, reqs[i], placed[i]))
				}
				ghost := &Attachment{Owner: fmt.Sprintf("ghost-%d", trial), CPU: placed[0].CPU}
				if trial%2 == 1 {
					// Odd trials poison the serial cross phase instead of
					// the parallel rack phase.
					ghost.spill = &s.tier
					ghost.CPURack, ghost.MemRack = placed[0].Rack, (placed[0].Rack+1)%3
				}
				pi := int(rng.Uint64() % uint64(len(batch)))
				batch[pi].Atts = append(append([]*Attachment(nil), batch[pi].Atts...), ghost)

				if _, err := s.EvictBatch(batch); err == nil {
					t.Fatalf("trial %d: poisoned eviction committed", trial)
				}
				comparePodBatchSnap(t, trial, before, snapPodBatch(s))
				if after := podSnapshotNoCounters(t, s); after != beforeJSON {
					t.Fatalf("trial %d: pod state not byte-identical after rollback:\nbefore:\n%s\nafter:\n%s", trial, beforeJSON, after)
				}
				for r := 0; r < s.Racks(); r++ {
					verifyIndexes(t, s.Rack(r), trial)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: invariants after rollback: %v", trial, err)
				}
			}
		})
	}
}

// TestEvictBatchRollbackIgnoresStaleJournals: a committed eviction
// leaves per-rack teardown journals behind; a later failed batch that
// never touches those racks must not replay them — the rollback may
// only resurrect its own teardowns.
func TestEvictBatchRollbackIgnoresStaleJournals(t *testing.T) {
	cfg := DefaultConfig
	cfg.Policy = PolicySpread // land the two VMs on different racks
	s := buildBatchPod(t, 2, 2, 2, 8*brick.GiB, cfg)
	out, err := s.AdmitBatch([]AdmitRequest{
		{Owner: "vm-r0", VCPUs: 1, LocalMem: brick.GiB, Remote: brick.GiB},
		{Owner: "vm-r1", VCPUs: 1, LocalMem: brick.GiB, Remote: brick.GiB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Rack == out[1].Rack {
		t.Fatalf("both VMs landed on rack %d; the test needs them apart", out[0].Rack)
	}

	// Commit an eviction of vm-r0: its rack's journal now holds entries.
	r0 := evictRequestFor(s, "vm-r0", AdmitRequest{Owner: "vm-r0", VCPUs: 1, LocalMem: brick.GiB}, out[0])
	if _, err := s.EvictBatch([]EvictRequest{r0}); err != nil {
		t.Fatal(err)
	}

	// Poison an eviction of vm-r1 on the other rack: the rollback must
	// not resurrect vm-r0's teardown.
	r1 := evictRequestFor(s, "vm-r1", AdmitRequest{Owner: "vm-r1", VCPUs: 1, LocalMem: brick.GiB}, out[1])
	r1.Atts = append(r1.Atts, &Attachment{Owner: "ghost", CPU: out[1].CPU})
	if _, err := s.EvictBatch([]EvictRequest{r1}); err == nil {
		t.Fatal("poisoned eviction committed")
	}
	if n := len(s.Attachments("vm-r0")); n != 0 {
		t.Fatalf("rollback resurrected %d attachments of the previously evicted vm-r0", n)
	}
	if n := len(s.Attachments("vm-r1")); n != 1 {
		t.Fatalf("vm-r1 has %d attachments after rollback, want 1", n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseBatchAllocFree pins the teardown hot path: once the batch
// state and journal are warm, a rack-level ReleaseBatch over
// caller-provided request/result slices allocates nothing.
func TestReleaseBatchAllocFree(t *testing.T) {
	cfg := DefaultConfig
	c := buildBatchPod(t, 1, 4, 4, 4*brick.GiB, cfg).Rack(0)

	const sets = 7
	type relSet struct {
		reqs []ReleaseRequest
		out  []ReleaseResult
	}
	all := make([]relSet, 0, sets)
	for i := 0; i < sets; i++ {
		var rs relSet
		for j := 0; j < 4; j++ {
			owner := fmt.Sprintf("af-%d-%d", i, j)
			id, _, err := c.ReserveCompute(owner, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			att, _, err := c.AttachRemoteMemory(owner, id, brick.GiB/4)
			if err != nil {
				t.Fatal(err)
			}
			rs.reqs = append(rs.reqs, ReleaseRequest{Owner: owner, CPU: id, VCPUs: 1, Atts: []*Attachment{att}})
		}
		rs.out = make([]ReleaseResult, len(rs.reqs))
		all = append(all, rs)
	}

	// One warm batch allocates the lazy batch state and journal backing.
	c.ReleaseBatch(all[0].reqs, all[0].out)
	next := 1
	allocs := testing.AllocsPerRun(sets-2, func() {
		rs := &all[next]
		next++
		c.ReleaseBatch(rs.reqs, rs.out)
	})
	if allocs != 0 {
		t.Fatalf("ReleaseBatch allocated %.1f times per batch; want 0", allocs)
	}
	for _, rs := range all {
		for i, r := range rs.out {
			if r.Err != nil {
				t.Fatalf("release %s failed: %v", rs.reqs[i].Owner, r.Err)
			}
		}
	}
}

// TestRebalanceBatchMatchesSequential runs the batched promotion sweep
// and the sequential sweep on twin pods: reports and final state must
// be byte-identical.
func TestRebalanceBatchMatchesSequential(t *testing.T) {
	build := func() (*PodScheduler, []*Attachment) {
		cfg := DefaultConfig
		cfg.PacketFallback = true
		s := buildBatchPod(t, 2, 3, 1, 4*brick.GiB, cfg)
		// Fill rack 0's memory so scale-ups spill, then free the filler:
		// the spills become promotable.
		out, err := s.AdmitBatch([]AdmitRequest{
			{Owner: "base", VCPUs: 2, LocalMem: brick.GiB, Remote: 3 * brick.GiB},
			{Owner: "spill-1", VCPUs: 0, Remote: brick.GiB, CPU: topo.BrickID{}, Rack: 0},
			{Owner: "spill-2", VCPUs: 0, Remote: brick.GiB, CPU: topo.BrickID{}, Rack: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		filler := out[0].Att
		if _, err := s.DetachRemoteMemory(filler); err != nil {
			t.Fatal(err)
		}
		return s, []*Attachment{out[1].Att, out[2].Att}
	}
	seqPod, _ := build()
	batPod, _ := build()
	if seqPod.cross.n == 0 {
		t.Fatal("no spills to promote")
	}

	seqRep := seqPod.Rebalance(sim.Time(1000))
	batRep := batPod.RebalanceBatch(sim.Time(1000))
	if seqRep.Promoted == 0 {
		t.Fatal("sequential sweep promoted nothing; test scenario is inert")
	}
	if batRep.Promoted != seqRep.Promoted || batRep.Scanned != seqRep.Scanned ||
		batRep.Latency != seqRep.Latency || batRep.FreedUplinks != seqRep.FreedUplinks ||
		batRep.SkippedNoRoom != seqRep.SkippedNoRoom || batRep.Failed != seqRep.Failed {
		t.Fatalf("reports diverge: batch %+v, sequential %+v", batRep, seqRep)
	}
	if got, want := podSnapshotJSON(t, batPod), podSnapshotJSON(t, seqPod); got != want {
		t.Fatalf("final pod snapshots diverge:\nbatch:\n%s\nsequential:\n%s", got, want)
	}
	for r := 0; r < batPod.Racks(); r++ {
		verifyIndexes(t, batPod.Rack(r), 0)
	}
	if err := batPod.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConsolidateDrainsAndPowersDown builds a pod whose trailing racks
// hold nothing but parked remote memory and checks that one
// consolidation pass re-homes it, drains the racks and powers them
// fully down.
func TestConsolidateDrainsAndPowersDown(t *testing.T) {
	cfg := DefaultConfig
	cfg.PacketFallback = true
	s := buildBatchPod(t, 3, 3, 1, 4*brick.GiB, cfg)
	// One VM on rack 0 whose memory overflows onto rack 1.
	out, err := s.AdmitBatch([]AdmitRequest{
		{Owner: "vm-a", VCPUs: 2, LocalMem: brick.GiB, Remote: 3 * brick.GiB},
		{Owner: "vm-a-up1", VCPUs: 0, Remote: 2 * brick.GiB, CPU: topo.BrickID{}, Rack: 0},
		{Owner: "vm-a-up2", VCPUs: 0, Remote: brick.GiB, CPU: topo.BrickID{}, Rack: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.cross.n == 0 {
		t.Fatal("scenario produced no cross-rack spills")
	}
	// Free the 3GiB filler: rack 0 can now hold the parked segments.
	if _, err := s.DetachRemoteMemory(out[0].Att); err != nil {
		t.Fatal(err)
	}

	rep := s.Consolidate(sim.Time(5000))
	if rep.Promoted+rep.Rehomed == 0 {
		t.Fatalf("consolidation moved nothing: %+v", rep)
	}
	if rep.RacksDrained < 1 {
		t.Fatalf("no rack drained: %+v", rep)
	}
	if rep.DarkRacks < 1 {
		t.Fatalf("no rack went dark: %+v", rep)
	}
	if s.DarkRacks() != rep.DarkRacks {
		t.Fatalf("DarkRacks()=%d but report says %d", s.DarkRacks(), rep.DarkRacks)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The moved attachments still answer for their owners.
	if len(s.Attachments("vm-a-up1")) != 1 || len(s.Attachments("vm-a-up2")) != 1 {
		t.Fatal("consolidation lost a live attachment")
	}
}
