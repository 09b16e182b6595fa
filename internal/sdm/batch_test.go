package sdm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/topo"
)

// buildBatchPod assembles a pod with several bricks per rack for batch
// admission tests.
func buildBatchPod(t testing.TB, racks, computes, memories int, memCap brick.Bytes, cfg Config) *PodScheduler {
	t.Helper()
	pod, err := topo.BuildPod(racks, topo.BuildSpec{
		Trays: 1, ComputePerTray: computes, MemoryPerTray: memories, AccelPerTray: 0, PortsPerBrick: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	fabrics := make([]*optical.Fabric, racks)
	for i := range fabrics {
		sw, err := optical.NewSwitch(optical.SwitchConfig{
			Ports: 128, InsertionLossDB: 1, PortPowerW: 0.1, ReconfigTime: 25 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		fabrics[i] = optical.NewFabric(sw)
	}
	pf, err := optical.NewPodFabric(optical.DefaultPodProfile, fabrics)
	if err != nil {
		t.Fatal(err)
	}
	bc := BrickConfigs{
		Compute: brick.ComputeConfig{Cores: 8, LocalMemory: 8 * brick.GiB},
		Memory:  brick.MemoryConfig{Capacity: memCap},
	}
	s, err := NewPodScheduler(pod, pf, bc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// admitSequential serves one AdmitRequest through the reference
// sequential pod entry points (sequential_reference_test.go) — the path
// batch admission must reproduce.
// Like the atomic batch, a failed attach releases the request's own
// compute reservation.
func admitSequential(s *PodScheduler, req AdmitRequest) (AdmitResult, error) {
	var res AdmitResult
	reserved := false
	if req.VCPUs > 0 {
		id, lat, err := s.seqReserve(req.Owner, req.VCPUs, req.LocalMem)
		if err != nil {
			return res, err
		}
		res.CPU, res.Rack, res.ComputeLat = id.Brick, id.Rack, lat
		reserved = true
	} else {
		res.CPU, res.Rack = req.CPU, req.Rack
	}
	if req.Remote > 0 {
		att, lat, err := s.seqAttach(req.Owner, topo.RowBrickID{Rack: res.Rack, Brick: res.CPU}, req.Remote)
		if err != nil {
			if reserved {
				s.ReleaseCompute(topo.PodBrickID{Rack: res.Rack, Brick: res.CPU}, req.VCPUs, req.LocalMem)
			}
			return res, err
		}
		res.Att, res.AttachLat = att, lat
	}
	return res, nil
}

// attState flattens an attachment for comparison across twin pods.
type attState struct {
	Owner            string
	CPU, Mem         topo.BrickID
	Offset, Size     int64
	WindowBase       uint64
	Mode             AttachMode
	CPURack, MemRack int
}

func flattenAtt(a *Attachment) attState {
	if a == nil {
		return attState{}
	}
	return attState{
		Owner: a.Owner, CPU: a.CPU, Mem: a.Segment.Brick,
		Offset: int64(a.Segment.Offset), Size: int64(a.Segment.Size),
		WindowBase: a.Window.Base, Mode: a.Mode,
		CPURack: a.CPURack, MemRack: a.MemRack,
	}
}

// flattenResult projects an AdmitResult onto comparable values.
type resultState struct {
	CPU                   topo.BrickID
	Rack                  int
	ComputeLat, AttachLat sim.Duration
	Att                   attState
}

func flattenResult(r AdmitResult) resultState {
	return resultState{CPU: r.CPU, Rack: r.Rack, ComputeLat: r.ComputeLat, AttachLat: r.AttachLat, Att: flattenAtt(r.Att)}
}

// podSnapshotJSON renders every rack's full SDM snapshot — bricks,
// attachments, circuits, counters — for byte-level comparison.
func podSnapshotJSON(t *testing.T, s *PodScheduler) string {
	t.Helper()
	out := ""
	for i := 0; i < s.Racks(); i++ {
		data, err := s.Rack(i).Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		out += string(data)
	}
	return out
}

// batchTestRequests builds a mixed admission trace: VM boots with and
// without remote memory, plus attach-only scale-ups against CPUs the
// trace already placed.
func batchTestRequests(rng *sim.Rand, n int, placed []AdmitResult) []AdmitRequest {
	reqs := make([]AdmitRequest, 0, n)
	for i := 0; i < n; i++ {
		owner := fmt.Sprintf("vm-%d-%d", len(placed), i)
		switch rng.Uint64() % 4 {
		case 0: // compute only
			reqs = append(reqs, AdmitRequest{Owner: owner, VCPUs: 1 + int(rng.Uint64()%3), LocalMem: brick.GiB})
		case 1, 2: // compute + remote
			reqs = append(reqs, AdmitRequest{
				Owner: owner, VCPUs: 1 + int(rng.Uint64()%3), LocalMem: brick.GiB,
				Remote: brick.Bytes(1+rng.Uint64()%3) * brick.GiB,
			})
		default: // attach-only scale-up of an already-placed VM
			if len(placed) == 0 {
				reqs = append(reqs, AdmitRequest{Owner: owner, VCPUs: 1, LocalMem: brick.GiB, Remote: brick.GiB})
				continue
			}
			p := placed[rng.Uint64()%uint64(len(placed))]
			reqs = append(reqs, AdmitRequest{Owner: owner, VCPUs: 0, Remote: brick.GiB, CPU: p.CPU, Rack: p.Rack})
		}
	}
	return reqs
}

// TestAdmitBatchSizeOneMatchesSequential drives the same mixed trace
// through single-request AdmitBatch calls and through the per-request
// entry points on twin pods: results and final per-rack snapshots must
// be byte-identical — the acceptance contract that batch size 1 IS the
// sequential path.
func TestAdmitBatchSizeOneMatchesSequential(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicyFirstFit, PolicySpread} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := DefaultConfig
			cfg.Policy = policy
			cfg.PacketFallback = true
			seqPod := buildBatchPod(t, 3, 3, 2, 6*brick.GiB, cfg)
			batPod := buildBatchPod(t, 3, 3, 2, 6*brick.GiB, cfg)
			// Power everything on: a failed batch powers its own boots
			// back down (the atomic contract), which the sequential
			// path's failures do not — pre-powering keeps the twins in
			// lockstep across the trace's deliberate failures. Boot
			// latency equality is covered by the rack-level test.
			seqPod.PowerOnAll()
			batPod.PowerOnAll()

			rng := sim.NewRand(11)
			var placed []AdmitResult
			for step := 0; step < 60; step++ {
				req := batchTestRequests(rng, 1, placed)[0]
				seqRes, seqErr := admitSequential(seqPod, req)
				batOut, batErr := batPod.AdmitBatch([]AdmitRequest{req})
				if (seqErr == nil) != (batErr == nil) {
					t.Fatalf("step %d: sequential err=%v, batch err=%v", step, seqErr, batErr)
				}
				if seqErr != nil {
					continue
				}
				if got, want := flattenResult(batOut[0]), flattenResult(seqRes); got != want {
					t.Fatalf("step %d: batch result %+v != sequential %+v", step, got, want)
				}
				placed = append(placed, seqRes)
			}
			if got, want := podSnapshotJSON(t, batPod), podSnapshotJSON(t, seqPod); got != want {
				t.Fatalf("final pod snapshots diverge:\nbatch:\n%s\nsequential:\n%s", got, want)
			}
			sr, sf, ss := seqPod.Stats()
			br, bf, bs := batPod.Stats()
			if sr != br || sf != bf || ss != bs {
				t.Fatalf("pod counters diverge: sequential %d/%d/%d, batch %d/%d/%d", sr, sf, ss, br, bf, bs)
			}
		})
	}
}

// TestPlaceBatchMatchesSequentialRack checks the stronger rack-level
// property: for every policy and any batch size, PlaceBatch selections,
// latencies and final state are byte-identical to the per-request loop
// — cache hits return exactly what a fresh descent would have.
func TestPlaceBatchMatchesSequentialRack(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicyFirstFit, PolicySpread} {
		t.Run(policy.String(), func(t *testing.T) {
			seqC := indexTestController(t, policy)
			batC := indexTestController(t, policy)
			rng := sim.NewRand(23)

			var placed []AdmitResult
			for round := 0; round < 6; round++ {
				n := 1 + int(rng.Uint64()%9)
				reqs := batchTestRequests(rng, n, placed)
				for i := range reqs {
					reqs[i].Rack = 0
				}
				out := make([]AdmitResult, len(reqs))
				batC.PlaceBatch(reqs, out)
				for i, req := range reqs {
					var seqRes AdmitResult
					var seqErr error
					cpu := req.CPU
					if req.VCPUs > 0 {
						id, lat, err := seqC.ReserveCompute(req.Owner, req.VCPUs, req.LocalMem)
						seqErr = err
						if err == nil {
							cpu, seqRes.CPU, seqRes.ComputeLat = id, id, lat
						}
					} else {
						seqRes.CPU = cpu
					}
					if seqErr == nil && req.Remote > 0 {
						att, lat, err := seqC.AttachRemoteMemory(req.Owner, cpu, req.Remote)
						seqErr = err
						if err == nil {
							seqRes.Att, seqRes.AttachLat = att, lat
						} else if seqRes.ComputeLat != 0 || req.VCPUs > 0 {
							// The batch path releases the request's own
							// compute reservation when its attach fails;
							// mirror it so the twins stay in lockstep.
							seqC.ReleaseCompute(cpu, req.VCPUs, req.LocalMem)
						}
					}
					if (seqErr == nil) != (out[i].Err == nil) {
						t.Fatalf("round %d req %d: sequential err=%v, batch err=%v", round, i, seqErr, out[i].Err)
					}
					if seqErr != nil {
						continue
					}
					if got, want := flattenResult(out[i]), flattenResult(seqRes); got != want {
						t.Fatalf("round %d req %d: batch %+v != sequential %+v", round, i, got, want)
					}
					placed = append(placed, seqRes)
				}
				verifyIndexes(t, batC, round)
			}
			seqSnap, err := seqC.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			batSnap, err := batC.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(seqSnap) != string(batSnap) {
				t.Fatalf("rack snapshots diverge:\nbatch:\n%s\nsequential:\n%s", batSnap, seqSnap)
			}
		})
	}
}

// TestAdmitBatchDeterministicAcrossWorkers replays the same burst
// train on two identically built pods: results and final state must be
// byte-identical, and the pod must pass its invariants after every
// round. The commit runs on the caller's goroutine whatever the workers
// argument says, so replay is the whole determinism contract.
func TestAdmitBatchDeterministicAcrossWorkers(t *testing.T) {
	run := func() ([]resultState, string) {
		cfg := DefaultConfig
		cfg.Policy = PolicySpread // spreads the burst across all racks
		cfg.PacketFallback = true
		s := buildBatchPod(t, 4, 3, 3, 16*brick.GiB, cfg)
		rng := sim.NewRand(31)
		var placed []AdmitResult
		var results []resultState
		for round := 0; round < 4; round++ {
			out, err := s.AdmitBatch(batchTestRequests(rng, 12, placed))
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			for _, r := range out {
				results = append(results, flattenResult(r))
				placed = append(placed, r)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("round %d: invariants: %v", round, err)
			}
		}
		return results, podSnapshotJSON(t, s)
	}
	results, snap := run()
	replay, replaySnap := run()
	if !reflect.DeepEqual(results, replay) {
		t.Fatal("results diverge between two identical runs")
	}
	if snap != replaySnap {
		t.Fatal("final state diverges between two identical runs")
	}
}

// indexValueSnap captures one placement index's scheduler-visible state
// — tree nodes plus leaf capacity vectors.
type indexValueSnap struct {
	stats []pstat
	tree  []node
}

func snapIndex(idx *placementIndex) indexValueSnap {
	return indexValueSnap{
		stats: append([]pstat(nil), idx.stats...),
		tree:  append([]node(nil), idx.tree...),
	}
}

// podBatchSnap captures everything the rollback contract promises to
// restore: per-rack placement indexes, free aggregates, live circuits,
// and the pod tier's crossOrder walk (as the exact attachment pointers
// in order) plus uplink headroom.
type podBatchSnap struct {
	cpu, mem     []indexValueSnap
	freeCores    []int
	freeMem      []brick.Bytes
	maxGap       []brick.Bytes
	circuits     []int
	freeUplinks  []int
	crossOrder   []*Attachment
	attachSeq    uint64
	crossCircuit int
}

func snapPodBatch(s *PodScheduler) podBatchSnap {
	var snap podBatchSnap
	for i, r := range s.racks {
		snap.cpu = append(snap.cpu, snapIndex(r.cpuIdx))
		snap.mem = append(snap.mem, snapIndex(r.memIdx))
		snap.freeCores = append(snap.freeCores, r.FreeCores())
		snap.freeMem = append(snap.freeMem, r.FreeMemory())
		snap.maxGap = append(snap.maxGap, r.MaxMemoryGap())
		snap.circuits = append(snap.circuits, r.fabric.LiveCircuits())
		snap.freeUplinks = append(snap.freeUplinks, s.fabric.FreeUplinks(i))
	}
	for att := s.cross.head; att != nil; att = att.crossNext {
		snap.crossOrder = append(snap.crossOrder, att)
	}
	snap.attachSeq = s.attachSeq
	snap.crossCircuit = s.fabric.CrossCircuits()
	return snap
}

func comparePodBatchSnap(t *testing.T, trial int, before, after podBatchSnap) {
	t.Helper()
	if !reflect.DeepEqual(before.crossOrder, after.crossOrder) {
		t.Fatalf("trial %d: crossOrder changed across rolled-back batch: %d entries before, %d after",
			trial, len(before.crossOrder), len(after.crossOrder))
	}
	if before.attachSeq != after.attachSeq {
		t.Fatalf("trial %d: attachSeq %d -> %d across rolled-back batch", trial, before.attachSeq, after.attachSeq)
	}
	if !reflect.DeepEqual(before.freeCores, after.freeCores) ||
		!reflect.DeepEqual(before.freeMem, after.freeMem) ||
		!reflect.DeepEqual(before.maxGap, after.maxGap) ||
		!reflect.DeepEqual(before.circuits, after.circuits) ||
		!reflect.DeepEqual(before.freeUplinks, after.freeUplinks) ||
		before.crossCircuit != after.crossCircuit {
		t.Fatalf("trial %d: capacity aggregates changed across rolled-back batch:\nbefore %+v\nafter  %+v",
			trial, before, after)
	}
	for r := range before.cpu {
		if !reflect.DeepEqual(before.cpu[r], after.cpu[r]) {
			t.Fatalf("trial %d: rack %d compute index not byte-identical after rollback", trial, r)
		}
		if !reflect.DeepEqual(before.mem[r], after.mem[r]) {
			t.Fatalf("trial %d: rack %d memory index not byte-identical after rollback", trial, r)
		}
	}
}

// TestAdmitBatchRollbackRestoresState is the rollback acceptance test:
// randomized bursts with one poisoned (unplaceable) request at a random
// position must fail as a whole and leave the controller indexes, free
// aggregates, circuits and the rebalancer's crossOrder byte-identical
// to the pre-batch snapshot — including bursts whose healthy prefix
// already spilled cross-rack.
func TestAdmitBatchRollbackRestoresState(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicySpread} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := DefaultConfig
			cfg.Policy = policy
			cfg.PacketFallback = true
			// Small memory bricks so batches regularly spill cross-rack.
			s := buildBatchPod(t, 3, 3, 1, 4*brick.GiB, cfg)
			rng := sim.NewRand(47)

			// Pre-populate: committed admissions that must survive every
			// rolled-back batch untouched, including live cross-rack
			// spills — the attach-only requests overflow the first VM's
			// home-rack memory brick deterministically for every policy.
			pre, err := s.AdmitBatch([]AdmitRequest{
				{Owner: "pre-0", VCPUs: 2, LocalMem: brick.GiB, Remote: 3 * brick.GiB},
			})
			if err != nil {
				t.Fatal(err)
			}
			more, err := s.AdmitBatch([]AdmitRequest{
				{Owner: "pre-1", VCPUs: 0, Remote: 2 * brick.GiB, CPU: pre[0].CPU, Rack: pre[0].Rack},
				{Owner: "pre-2", VCPUs: 0, Remote: 3 * brick.GiB, CPU: pre[0].CPU, Rack: pre[0].Rack},
			})
			if err != nil {
				t.Fatal(err)
			}
			pre = append(pre, more...)
			if s.cross.n == 0 {
				t.Fatal("pre-population produced no cross-rack spills; the rollback test needs live crossOrder entries")
			}

			for trial := 0; trial < 25; trial++ {
				before := snapPodBatch(s)
				n := 2 + int(rng.Uint64()%6)
				reqs := batchTestRequests(rng, n, pre)
				for i := range reqs {
					reqs[i].Owner = fmt.Sprintf("t%d-%s", trial, reqs[i].Owner)
				}
				// Poison one request with a segment no brick in the pod
				// can hold.
				poison := int(rng.Uint64() % uint64(len(reqs)))
				reqs[poison].Remote = 64 * brick.GiB
				if reqs[poison].VCPUs == 0 {
					reqs[poison] = AdmitRequest{Owner: reqs[poison].Owner, VCPUs: 1, Remote: 64 * brick.GiB}
				}
				if _, err := s.AdmitBatch(reqs); err == nil {
					t.Fatalf("trial %d: poisoned batch committed", trial)
				}
				after := snapPodBatch(s)
				comparePodBatchSnap(t, trial, before, after)
				for r := 0; r < s.Racks(); r++ {
					verifyIndexes(t, s.Rack(r), trial)
				}
			}
		})
	}
}

// TestAdmitBatchIndexesFreshAfterCommit checks the group-commit flush:
// after a successful batch every index leaf agrees with live brick
// state — no dirty position survives endBatch.
func TestAdmitBatchIndexesFreshAfterCommit(t *testing.T) {
	cfg := DefaultConfig
	cfg.PacketFallback = true
	s := buildBatchPod(t, 3, 3, 3, 16*brick.GiB, cfg)
	rng := sim.NewRand(7)
	var placed []AdmitResult
	for round := 0; round < 4; round++ {
		reqs := batchTestRequests(rng, 8, placed)
		out, err := s.AdmitBatch(reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		placed = append(placed, out...)
		for r := 0; r < s.Racks(); r++ {
			verifyIndexes(t, s.Rack(r), round)
			if s.Rack(r).batch != nil && s.Rack(r).batch.active {
				t.Fatalf("round %d: rack %d still in batch mode", round, r)
			}
		}
	}
}

// crossCoverage counts what a churn run exercised: committed
// admissions, spills committed across the tier boundary, the
// packet-mode ones among them (the circuit path was doomed and the
// packet fallback served the spill), and cross-tier attachments torn
// down by EvictBatch.
type crossCoverage struct {
	admitted, spills, packetSpills, teardowns int
}

// hotRequests builds the tight trace generator: a quarter compute
// boots, the rest attach-only scale-ups aimed at CPUs that share the
// first placement's hot unit (a rack at the pod tier, a pod at the row
// tier, as same decides) — overflowing that unit's memory every round
// so the burst spills across the tier (and, once the circuits run dry,
// falls back to packet mode) while overall capacity still holds.
func hotRequests(same func(a, b AdmitResult) bool) func(rng *sim.Rand, n, round int, placed []AdmitResult) []AdmitRequest {
	return func(rng *sim.Rand, n, round int, placed []AdmitResult) []AdmitRequest {
		reqs := make([]AdmitRequest, 0, n)
		var hot []AdmitResult
		for _, p := range placed {
			if same(p, placed[0]) {
				hot = append(hot, p)
			}
		}
		for i := 0; i < n; i++ {
			owner := fmt.Sprintf("vm-%d-%d", round, i)
			if len(hot) == 0 || i%4 == 0 {
				reqs = append(reqs, AdmitRequest{Owner: owner, VCPUs: 1, LocalMem: brick.MiB})
				continue
			}
			p := hot[rng.Uint64()%uint64(len(hot))]
			reqs = append(reqs, AdmitRequest{Owner: owner, VCPUs: 0, Remote: brick.GiB, CPU: p.CPU, Rack: p.Rack, Pod: p.Pod})
		}
		return reqs
	}
}

// churnBatches drives randomized admission/eviction churn through a
// group-commit engine: each round admits one generated burst, then
// retires the newest half of the live population newest first, so
// packet riders always precede their circuit hosts into EvictBatch.
// check runs after every admission and eviction; cross classifies an
// attachment as cross-tier for the coverage counts.
func churnBatches(t *testing.T, seed uint64, rounds, n int,
	gen func(rng *sim.Rand, n, round int, placed []AdmitResult) []AdmitRequest,
	admit func([]AdmitRequest) ([]AdmitResult, error),
	evict func([]EvictRequest) ([]EvictResult, error),
	check func() error, cross func(*Attachment) bool) crossCoverage {
	t.Helper()
	type admitted struct {
		req AdmitRequest
		res AdmitResult
	}
	var cov crossCoverage
	rng := sim.NewRand(seed)
	var placed []AdmitResult
	var live []admitted
	for round := 0; round < rounds; round++ {
		reqs := gen(rng, n, round, placed)
		out, err := admit(reqs)
		if cerr := check(); cerr != nil {
			t.Fatalf("round %d admit (err=%v): invariants: %v", round, err, cerr)
		}
		if err == nil {
			cov.admitted += len(out)
			for i, res := range out {
				if res.Att != nil && cross(res.Att) {
					cov.spills++
					if res.Att.Mode == ModePacket {
						cov.packetSpills++
					}
				}
				placed = append(placed, res)
				live = append(live, admitted{req: reqs[i], res: res})
			}
		}

		var ev []EvictRequest
		crossAtts := 0
		half := len(live) / 2
		for k := len(live) - 1; k >= half; k-- {
			a := live[k]
			r := EvictRequest{
				Owner: a.req.Owner, CPU: a.res.CPU, Rack: a.res.Rack, Pod: a.res.Pod,
				VCPUs: a.req.VCPUs, LocalMem: a.req.LocalMem,
			}
			if a.res.Att != nil {
				r.Atts = []*Attachment{a.res.Att}
				if cross(a.res.Att) {
					crossAtts++
				}
			}
			ev = append(ev, r)
		}
		live = live[:half]
		_, err = evict(ev)
		if err != nil {
			t.Fatalf("round %d evict: %v", round, err)
		}
		cov.teardowns += crossAtts
		if err := check(); err != nil {
			t.Fatalf("round %d evict: invariants: %v", round, err)
		}
	}
	return cov
}

// TestBatchChurnCrossRack is the pod-tier randomized churn: bursts of
// admissions and newest-first evictions across policies and an
// ample/tight capacity split, with invariants checked after every
// batch. The tight scenario concentrates attach-only load on one hot
// rack, so cross-rack spills, spills the circuit path cannot serve
// (packet fallback) and cross-rack teardowns must all occur.
func TestBatchChurnCrossRack(t *testing.T) {
	scenarios := []struct {
		name                      string
		racks, computes, memories int
		memCap                    brick.Bytes
		rounds, n                 int
		gen                       func(rng *sim.Rand, n, round int, placed []AdmitResult) []AdmitRequest
	}{
		{name: "ample", racks: 4, computes: 3, memories: 3, memCap: 16 * brick.GiB, rounds: 3, n: 48,
			gen: func(rng *sim.Rand, n, round int, placed []AdmitResult) []AdmitRequest {
				return batchTestRequests(rng, n, placed)
			}},
		{name: "tight", racks: 3, computes: 3, memories: 2, memCap: 8 * brick.GiB, rounds: 5, n: 32,
			gen: hotRequests(func(a, b AdmitResult) bool { return a.Rack == b.Rack })},
	}
	for _, policy := range []Policy{PolicyPowerAware, PolicySpread} {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/%s", policy, sc.name), func(t *testing.T) {
				cfg := DefaultConfig
				cfg.Policy = policy
				cfg.PacketFallback = true
				s := buildBatchPod(t, sc.racks, sc.computes, sc.memories, sc.memCap, cfg)
				s.PowerOnAll()
				cov := churnBatches(t, 61, sc.rounds, sc.n, sc.gen, s.AdmitBatch, s.EvictBatch, s.CheckInvariants,
					func(a *Attachment) bool { return a.CrossRack() })
				t.Logf("coverage: %+v", cov)
				if cov.admitted == 0 {
					t.Fatal("no burst committed")
				}
				if sc.name == "tight" && (cov.spills == 0 || cov.packetSpills == 0 || cov.teardowns == 0) {
					t.Fatalf("cross-rack paths not all exercised: %+v", cov)
				}
			})
		}
	}
}

// TestRowBatchChurnCrossPod is the same churn one tier up, on a row
// small enough that the hot pod overflows every round: cross-pod
// spills, their packet fallback and cross-pod teardowns must all occur.
func TestRowBatchChurnCrossPod(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicySpread} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := DefaultConfig
			cfg.Policy = policy
			cfg.PacketFallback = true
			s := buildRowSched(t, 4, 2, 2*brick.GiB, cfg)
			s.PowerOnAll()
			cov := churnBatches(t, 73, 5, 8, hotRequests(func(a, b AdmitResult) bool { return a.Pod == b.Pod }),
				s.AdmitBatch, s.EvictBatch, s.CheckInvariants,
				func(a *Attachment) bool { return a.CrossPod() })
			t.Logf("coverage: %+v", cov)
			if cov.spills == 0 || cov.packetSpills == 0 || cov.teardowns == 0 {
				t.Fatalf("cross-pod paths not all exercised: %+v", cov)
			}
		})
	}
}
