package sdm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/topo"
)

// buildRowSched assembles a row of tiny pods (racks with one compute
// and one memory brick each) for scheduler tests.
func buildRowSched(t *testing.T, pods, racks int, memCap brick.Bytes, cfg Config) *RowScheduler {
	t.Helper()
	row, err := topo.BuildRow(pods, racks, topo.BuildSpec{
		Trays: 1, ComputePerTray: 1, MemoryPerTray: 1, AccelPerTray: 0, PortsPerBrick: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	podFabrics := make([]*optical.PodFabric, pods)
	for p := range podFabrics {
		fabrics := make([]*optical.Fabric, racks)
		for i := range fabrics {
			sw, err := optical.NewSwitch(optical.SwitchConfig{
				Ports: 16, InsertionLossDB: 1, PortPowerW: 0.1, ReconfigTime: 25 * sim.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			fabrics[i] = optical.NewFabric(sw)
		}
		if podFabrics[p], err = optical.NewPodFabric(optical.DefaultPodProfile, fabrics); err != nil {
			t.Fatal(err)
		}
	}
	rf, err := optical.NewRowFabric(optical.DefaultRowProfile, podFabrics)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRowScheduler(row, rf, BrickConfigs{Memory: brick.MemoryConfig{Capacity: memCap}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rowFingerprint renders the row's complete observable state — every
// rack's snapshot plus the row fabric's uplink and circuit census — so
// tests can assert byte-identical outcomes. With counters false the
// rack request/failure counters are zeroed: a failed batch
// legitimately spends counters (the sequential path would too), but
// must restore everything else byte-identically.
func rowFingerprint(t *testing.T, s *RowScheduler, counters bool) string {
	t.Helper()
	var b strings.Builder
	for p := 0; p < s.Pods(); p++ {
		fmt.Fprintf(&b, "uplinks[%d]=%d\n", p, s.Fabric().FreeUplinks(p))
		for r := 0; r < s.Pod(p).Racks(); r++ {
			snap := s.Pod(p).Rack(r).Snapshot()
			if !counters {
				snap.Requests, snap.Failures = 0, 0
			}
			data, err := snap.JSON()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "pod%d/rack%d: %s\n", p, r, data)
		}
	}
	fmt.Fprintf(&b, "rowCircuits=%d\n", s.Fabric().CrossCircuits())
	return b.String()
}

// TestRowSpillCrossPod is the row acceptance scenario: a VM whose home
// pod cannot satisfy a memory request attaches remote memory in
// another pod through the row switch, with the row tier's extra hops
// and fiber on top of a pod-tier spill.
func TestRowSpillCrossPod(t *testing.T) {
	s := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)

	cpu, _, err := s.ReserveCompute("vm", 2, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Pod != 0 || cpu.Rack != 0 {
		t.Fatalf("placement started at pod %d rack %d, want 0/0", cpu.Pod, cpu.Rack)
	}
	// Two 2 GiB attachments fill the home pod's memory (one brick per
	// rack).
	local, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if local.CrossPod() || local.CrossRack() {
		t.Fatal("first attachment should be rack-local")
	}
	podSpill, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if podSpill.CrossPod() || !podSpill.CrossRack() {
		t.Fatalf("second attachment: pod %d->%d rack %d->%d, want a pod-tier cross-rack spill",
			podSpill.CPUPod, podSpill.MemPod, podSpill.CPURack, podSpill.MemRack)
	}
	// The third cannot be satisfied pod-locally and must cross the row.
	rowSpill, lat, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if !rowSpill.CrossPod() || rowSpill.MemPod != 1 || rowSpill.Mode != ModeCircuit {
		t.Fatalf("row spill: CPUPod=%d MemPod=%d mode=%v, want cross-pod circuit into pod 1",
			rowSpill.CPUPod, rowSpill.MemPod, rowSpill.Mode)
	}
	if lat <= 0 {
		t.Fatal("row spill orchestration latency must be positive")
	}
	if rowSpill.Circuit.Hops <= podSpill.Circuit.Hops {
		t.Fatalf("cross-pod hops %d not above cross-rack %d", rowSpill.Circuit.Hops, podSpill.Circuit.Hops)
	}
	if rowSpill.Circuit.FiberMeters <= podSpill.Circuit.FiberMeters {
		t.Fatalf("cross-pod fiber %v not above cross-rack %v", rowSpill.Circuit.FiberMeters, podSpill.Circuit.FiberMeters)
	}
	if _, _, spills := s.Stats(); spills != 1 {
		t.Fatalf("row spills = %d, want 1", spills)
	}
	if atts := s.Attachments("vm"); len(atts) != 3 || atts[2] != rowSpill {
		t.Fatalf("row attachments = %d, want 3 ending in the row spill", len(atts))
	}

	// Teardown routes by attachment: the row spill through the row tier,
	// the rest through their pod.
	for _, att := range []*Attachment{rowSpill, podSpill, local} {
		if _, err := s.DetachRemoteMemory(att); err != nil {
			t.Fatal(err)
		}
	}
	if s.Fabric().CrossCircuits() != 0 {
		t.Fatalf("cross circuits = %d after teardown", s.Fabric().CrossCircuits())
	}
	if atts := s.Attachments("vm"); atts != nil {
		t.Fatalf("attachments = %d after teardown", len(atts))
	}
}

// TestRowAdmitBatchOfOneMatchesSequential: a row admission batch of one
// must reproduce the sequential ReserveCompute + AttachRemoteMemory
// path byte-for-byte — same placements, same latencies, same counters,
// same final state — including requests that spill cross-rack and
// cross-pod.
func TestRowAdmitBatchOfOneMatchesSequential(t *testing.T) {
	seqRow := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)
	batRow := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)

	// Six scale-ups of 1 GiB from pod 0 rack 0: two rack-local, two
	// cross-rack, two cross-pod.
	cpuSeq, _, err := seqRow.seqReserve("vm", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpuBat, _, err := batRow.ReserveCompute("vm", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cpuSeq != cpuBat {
		t.Fatalf("compute placement diverges before the test: %v vs %v", cpuSeq, cpuBat)
	}
	for i := 0; i < 6; i++ {
		owner := fmt.Sprintf("vm-up-%d", i)
		attSeq, latSeq, errSeq := seqRow.seqAttach(owner, cpuSeq, brick.GiB)
		res, errBat := batRow.AdmitBatch([]AdmitRequest{{
			Owner: owner, Remote: brick.GiB, CPU: cpuBat.Brick, Rack: cpuBat.Rack, Pod: cpuBat.Pod,
		}})
		if (errSeq == nil) != (errBat == nil) {
			t.Fatalf("attach %d: sequential err %v, batch err %v", i, errSeq, errBat)
		}
		if errSeq != nil {
			continue
		}
		attBat := res[0].Att
		if attSeq.CPUPod != attBat.CPUPod || attSeq.MemPod != attBat.MemPod ||
			attSeq.CPURack != attBat.CPURack || attSeq.MemRack != attBat.MemRack ||
			attSeq.Segment.Brick != attBat.Segment.Brick || attSeq.Segment.Offset != attBat.Segment.Offset ||
			attSeq.Mode != attBat.Mode || attSeq.seq != attBat.seq {
			t.Fatalf("attach %d diverges:\nsequential: %+v\nbatch:      %+v", i, attSeq, attBat)
		}
		if latSeq != res[0].AttachLat {
			t.Fatalf("attach %d latency: sequential %v, batch %v", i, latSeq, res[0].AttachLat)
		}
	}

	sr, sf, ss := seqRow.Stats()
	br, bf, bs := batRow.Stats()
	if sr != br || sf != bf || ss != bs {
		t.Fatalf("row counters diverge: seq %d/%d/%d, batch %d/%d/%d", sr, sf, ss, br, bf, bs)
	}
	for p := 0; p < 2; p++ {
		sr, sf, ss := seqRow.Pod(p).Stats()
		br, bf, bs := batRow.Pod(p).Stats()
		if sr != br || sf != bf || ss != bs {
			t.Fatalf("pod %d counters diverge: seq %d/%d/%d, batch %d/%d/%d", p, sr, sf, ss, br, bf, bs)
		}
	}
	if a, b := rowFingerprint(t, seqRow, true), rowFingerprint(t, batRow, true); a != b {
		t.Fatalf("state diverges:\nsequential:\n%s\nbatch:\n%s", a, b)
	}
}

// TestRowAdmitBatchDeterministicAcrossWorkers replays the same burst
// on two identically built rows: placements and the state fingerprint
// must be byte-identical, and the row must pass its invariants.
func TestRowAdmitBatchDeterministicAcrossWorkers(t *testing.T) {
	type placement struct {
		pod, rack int
		cpu       topo.BrickID
		memPod    int
		mode      AttachMode
		hasAtt    bool
	}
	run := func() ([]placement, string) {
		s := buildRowSched(t, 4, 2, 2*brick.GiB, DefaultConfig)
		reqs := make([]AdmitRequest, 12)
		for i := range reqs {
			reqs[i] = AdmitRequest{Owner: fmt.Sprintf("vm%02d", i), VCPUs: 1, Remote: brick.GiB}
		}
		out, err := s.AdmitBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		got := make([]placement, len(out))
		for i, res := range out {
			got[i] = placement{pod: res.Pod, rack: res.Rack, cpu: res.CPU, mode: ModeCircuit, hasAtt: res.Att != nil}
			if res.Att != nil {
				got[i].memPod = res.Att.MemPod
				got[i].mode = res.Att.Mode
			}
		}
		return got, rowFingerprint(t, s, true)
	}
	got, fp := run()
	replay, replayFP := run()
	for i := range got {
		if got[i] != replay[i] {
			t.Fatalf("placement %d diverges between two identical runs: %+v vs %+v", i, got[i], replay[i])
		}
	}
	if fp != replayFP {
		t.Fatal("state fingerprint diverges between two identical runs")
	}
}

// TestRowEvictBatchRollsBack: a failing eviction must restore the row
// exactly — including a cross-pod circuit torn down earlier in the
// same batch (the row-phase undo path).
func TestRowEvictBatchRollsBack(t *testing.T) {
	s := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)

	// Two VMs on pod 0, each with a cross-pod attachment: vm-a's third
	// attachment overflows pod 0 (2 racks x 2 GiB), so vm-b's single
	// attachment crosses pods too.
	mk := func(owner string, n int) (topo.RowBrickID, []*Attachment) {
		cpu, _, err := s.ReserveCompute(owner, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var atts []*Attachment
		for i := 0; i < n; i++ {
			att, _, err := s.AttachRemoteMemory(owner, cpu, 2*brick.GiB)
			if err != nil {
				t.Fatal(err)
			}
			atts = append(atts, att)
		}
		return cpu, atts
	}
	cpuA, attsA := mk("vm-a", 3)
	cpuB, attsB := mk("vm-b", 1)
	if !attsA[2].CrossPod() || !attsB[0].CrossPod() {
		t.Fatalf("setup: want both last attachments cross-pod (a: %v, b: %v)",
			attsA[2].CrossPod(), attsB[0].CrossPod())
	}

	// Stale attachment: vm-b's cross-pod attachment is detached out of
	// band, then named in the batch. vm-a's teardown (including its
	// cross-pod circuit) commits first and must roll back.
	if _, err := s.DetachRemoteMemory(attsB[0]); err != nil {
		t.Fatal(err)
	}
	before := rowFingerprint(t, s, false)

	reqs := []EvictRequest{
		{Owner: "vm-a", CPU: cpuA.Brick, Rack: cpuA.Rack, Pod: cpuA.Pod, VCPUs: 1, Atts: []*Attachment{attsA[2], attsA[1], attsA[0]}},
		{Owner: "vm-b", CPU: cpuB.Brick, Rack: cpuB.Rack, Pod: cpuB.Pod, VCPUs: 1, Atts: []*Attachment{attsB[0]}},
	}
	if _, err := s.EvictBatch(reqs); err == nil {
		t.Fatal("eviction with a stale attachment must fail")
	} else if !strings.Contains(err.Error(), "rolled back at request 1") {
		t.Fatalf("unexpected abort error: %v", err)
	}
	if after := rowFingerprint(t, s, false); after != before {
		t.Fatalf("rollback is not exact:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	// Dropping the stale attachment, the batch commits and the row
	// drains completely.
	reqs[1].Atts = nil
	if _, err := s.EvictBatch(reqs); err != nil {
		t.Fatal(err)
	}
	if s.Fabric().CrossCircuits() != 0 {
		t.Fatalf("cross circuits = %d after eviction", s.Fabric().CrossCircuits())
	}
	if atts := s.Attachments("vm-a"); atts != nil {
		t.Fatalf("vm-a attachments = %d after eviction", len(atts))
	}
}

// TestRowEvictBatchOfOneMatchesSequential: an eviction batch of one
// must leave the same state as the per-attachment sequential teardown.
func TestRowEvictBatchOfOneMatchesSequential(t *testing.T) {
	build := func() (*RowScheduler, topo.RowBrickID, []*Attachment) {
		s := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)
		cpu, _, err := s.ReserveCompute("vm", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var atts []*Attachment
		for i := 0; i < 3; i++ {
			att, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB)
			if err != nil {
				t.Fatal(err)
			}
			atts = append(atts, att)
		}
		return s, cpu, atts
	}

	seqRow, cpuSeq, attsSeq := build()
	for i := len(attsSeq) - 1; i >= 0; i-- {
		if _, err := seqDetachAt(seqRow.rackAt, attsSeq[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := seqRow.ReleaseCompute(cpuSeq, 1, 0); err != nil {
		t.Fatal(err)
	}

	batRow, cpuBat, attsBat := build()
	out, err := batRow.EvictBatch([]EvictRequest{{
		Owner: "vm", CPU: cpuBat.Brick, Rack: cpuBat.Rack, Pod: cpuBat.Pod, VCPUs: 1,
		Atts: []*Attachment{attsBat[2], attsBat[1], attsBat[0]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Detached != 3 {
		t.Fatalf("detached = %d, want 3", out[0].Detached)
	}
	if a, b := rowFingerprint(t, seqRow, true), rowFingerprint(t, batRow, true); a != b {
		t.Fatalf("state diverges:\nsequential:\n%s\nbatch:\n%s", a, b)
	}
}

// TestRowSpillOrderingMatchesLinearReference is the property test: on
// a randomized admit/detach trace, the indexed row — aggregate screens,
// segment-tree picks — must make exactly the placement decisions of the
// linear-scan oracle (linear_test.go), across the whole rack -> pod ->
// row spill cascade, for both packing and spread policies. Every
// reserve must land on the linear pod -> rack -> brick choice; before
// every attach the indexed and linear picks must agree at each tier
// (home-rack brick, pod spill rack, row spill pod), and the attachment
// must land on the pick of the tier that served it.
func TestRowSpillOrderingMatchesLinearReference(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicySpread} {
		cfg := DefaultConfig
		cfg.Policy = policy
		s := buildRowSched(t, 3, 2, 4*brick.GiB, cfg)

		rng := sim.NewRand(42)
		type vm struct {
			owner string
			cpu   topo.RowBrickID
			atts  []*Attachment
		}
		var vms []*vm
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // boot a VM
				v := &vm{owner: fmt.Sprintf("p%v-vm%03d", policy, step)}
				want, ok := topo.RowBrickID{}, false
				if want.Pod, ok = s.pickComputePodLinear(1, 0); ok {
					pod := s.pods[want.Pod]
					want.Rack, _ = pod.pickComputeRackLinear(1, 0, -1)
					want.Brick, _ = pod.racks[want.Rack].pickComputeLinear(1, 0)
				}
				var err error
				v.cpu, _, err = s.ReserveCompute(v.owner, 1, 0)
				if (err == nil) != ok {
					t.Fatalf("%v step %d: reserve: %v, linear pick found=%t", policy, step, err, ok)
				}
				if err != nil {
					continue
				}
				if v.cpu != want {
					t.Fatalf("%v step %d: compute pick %v, linear %v", policy, step, v.cpu, want)
				}
				vms = append(vms, v)
			case op < 8: // attach memory to a random VM
				if len(vms) == 0 {
					continue
				}
				v := vms[rng.Intn(len(vms))]
				size := brick.Bytes(rng.Intn(3)+1) * brick.GiB / 2
				pod := s.pods[v.cpu.Pod]
				rackBrick, rackOK := pod.racks[v.cpu.Rack].pickMemory(size)
				if b, ok := pod.racks[v.cpu.Rack].pickMemoryLinear(size); b != rackBrick || ok != rackOK {
					t.Fatalf("%v step %d (size %v): home-rack pick %v/%t, linear %v/%t", policy, step, size, rackBrick, rackOK, b, ok)
				}
				podRack, podBrick, podOK := pod.pickMemoryRack(size, v.cpu.Rack)
				if r, b, ok := pod.pickMemoryRackLinear(size, v.cpu.Rack); r != podRack || b != podBrick || ok != podOK {
					t.Fatalf("%v step %d (size %v): pod spill pick %d/%v/%t, linear %d/%v/%t", policy, step, size, podRack, podBrick, podOK, r, b, ok)
				}
				rowPod, rowRack, rowBrick, rowOK := s.pickMemoryPod(size, v.cpu.Pod)
				if p, r, b, ok := s.pickMemoryPodLinear(size, v.cpu.Pod); p != rowPod || r != rowRack || b != rowBrick || ok != rowOK {
					t.Fatalf("%v step %d (size %v): row spill pick %d/%d/%v/%t, linear %d/%d/%v/%t", policy, step, size, rowPod, rowRack, rowBrick, rowOK, p, r, b, ok)
				}
				att, _, err := s.AttachRemoteMemory(v.owner, v.cpu, size)
				if err != nil {
					continue
				}
				// The tier that served the attach is where its memory end
				// sits; a tier above the rack serves only after the tiers
				// below it failed (for lack of a pick, or of compute ports).
				tier, want, picked := "rack", topo.RowBrickID{Pod: v.cpu.Pod, Rack: v.cpu.Rack, Brick: rackBrick}, rackOK
				if att.MemPod != v.cpu.Pod {
					tier, want, picked = "row", topo.RowBrickID{Pod: rowPod, Rack: rowRack, Brick: rowBrick}, rowOK
				} else if att.MemRack != v.cpu.Rack {
					tier, want, picked = "pod", topo.RowBrickID{Pod: v.cpu.Pod, Rack: podRack, Brick: podBrick}, podOK
				}
				got := topo.RowBrickID{Pod: att.MemPod, Rack: att.MemRack, Brick: att.Segment.Brick}
				if !picked || got != want || att.CPUPod != v.cpu.Pod || att.CPURack != v.cpu.Rack || att.Mode != ModeCircuit {
					t.Fatalf("%v step %d (size %v): %s tier served the attach on %v (mode %v), its pick was %v/%t:\n%+v",
						policy, step, size, tier, got, att.Mode, want, picked, att)
				}
				v.atts = append(v.atts, att)
			default: // detach a random attachment (newest first per VM)
				if len(vms) == 0 {
					continue
				}
				v := vms[rng.Intn(len(vms))]
				if len(v.atts) == 0 {
					continue
				}
				n := len(v.atts) - 1
				if _, err := s.DetachRemoteMemory(v.atts[n]); err != nil {
					t.Fatalf("%v step %d: detach: %v", policy, step, err)
				}
				v.atts = v.atts[:n]
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%v step %d: %v", policy, step, err)
			}
		}
	}
}

// TestRowAggCensusMatchesExact: the O(pods) census from the cached pod
// summaries must match the exact brick walk through power transitions.
func TestRowAggCensusMatchesExact(t *testing.T) {
	s := buildRowSched(t, 3, 2, 2*brick.GiB, DefaultConfig)
	check := func(when string) {
		t.Helper()
		for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory} {
			if agg, exact := s.AggCensus(kind), s.Census(kind); agg != exact {
				t.Fatalf("%s: AggCensus(%v) = %+v, exact %+v", when, kind, agg, exact)
			}
		}
	}
	check("fresh")
	s.PowerOnAll()
	check("all on")
	cpu, _, err := s.ReserveCompute("vm", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB); err != nil {
		t.Fatal(err)
	}
	check("loaded")
	s.PowerOffIdle()
	check("after power-off sweep")
}
