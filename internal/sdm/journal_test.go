package sdm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/topo"
)

// rowEvictRequestFor builds the EvictRequest retiring one admitted
// consumer of a row: its attachments newest-first plus its compute
// reservation.
func rowEvictRequestFor(s *RowScheduler, req AdmitRequest, res AdmitResult) EvictRequest {
	atts := s.Attachments(req.Owner)
	for i, j := 0, len(atts)-1; i < j; i, j = i+1, j-1 {
		atts[i], atts[j] = atts[j], atts[i]
	}
	return EvictRequest{
		Owner: req.Owner, CPU: res.CPU, Rack: res.Rack, Pod: res.Pod,
		VCPUs: req.VCPUs, LocalMem: req.LocalMem, Atts: atts,
	}
}

// TestRowEvictBatchRollbackIgnoresStaleJournals is the row twin of
// TestEvictBatchRollbackIgnoresStaleJournals. A committed eviction
// leaves its rack's teardown journal behind, and no tier resets the
// journals of racks a batch does not touch; a later failed batch must
// replay only its own teardowns — whether its shard lies in another
// pod (the stale pod's shard count is zero) or on another rack of the
// same pod (the stale rack's shard count is zero).
func TestRowEvictBatchRollbackIgnoresStaleJournals(t *testing.T) {
	for _, tc := range []struct {
		name     string
		poisoned [2]int // pod and rack of the VM whose eviction is poisoned
	}{
		{"other-pod", [2]int{1, 0}},
		{"same-pod-other-rack", [2]int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig
			cfg.Policy = PolicySpread // one VM per rack
			s := buildRowSched(t, 2, 2, 8*brick.GiB, cfg)
			reqs := make([]AdmitRequest, 4)
			for i := range reqs {
				reqs[i] = AdmitRequest{Owner: fmt.Sprintf("vm-%d", i), VCPUs: 1, LocalMem: brick.GiB, Remote: brick.GiB}
			}
			out, err := s.AdmitBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			at := map[[2]int]int{}
			for i, res := range out {
				at[[2]int{res.Pod, res.Rack}] = i
			}
			if len(at) != 4 {
				t.Fatalf("VMs share racks (%v); the test needs one per rack", at)
			}
			committed, poisoned := at[[2]int{0, 0}], at[tc.poisoned]

			// Commit an eviction on pod 0, rack 0: its journal now holds
			// entries.
			if _, err := s.EvictBatch([]EvictRequest{rowEvictRequestFor(s, reqs[committed], out[committed])}); err != nil {
				t.Fatal(err)
			}
			before := rowFingerprint(t, s, false)

			// Poison an eviction elsewhere: the rollback must not resurrect
			// the committed teardown.
			req := rowEvictRequestFor(s, reqs[poisoned], out[poisoned])
			req.Atts = append(req.Atts, &Attachment{Owner: "ghost", CPU: out[poisoned].CPU})
			if _, err := s.EvictBatch([]EvictRequest{req}); err == nil {
				t.Fatal("poisoned eviction committed")
			}
			if n := len(s.Attachments(reqs[committed].Owner)); n != 0 {
				t.Fatalf("rollback resurrected %d attachments of the previously evicted %s", n, reqs[committed].Owner)
			}
			if n := len(s.Attachments(reqs[poisoned].Owner)); n != 1 {
				t.Fatalf("%s has %d attachments after rollback, want 1", reqs[poisoned].Owner, n)
			}
			if after := rowFingerprint(t, s, false); after != before {
				t.Fatalf("rollback is not exact:\nbefore:\n%s\nafter:\n%s", before, after)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRowAbortedBatchPowersDownBootsAcrossPods: a power-aware row burst
// that boots compute and memory bricks on both racks of both pods and
// then aborts must power every one of them back down through the
// row's one shared boot journal, leaving both censuses and every
// rack's snapshot as they were.
func TestRowAbortedBatchPowersDownBootsAcrossPods(t *testing.T) {
	build := func() *RowScheduler {
		return buildRowSched(t, 2, 2, 4*brick.GiB, DefaultConfig)
	}
	// Each VM takes a whole 4-core compute brick and a segment on its
	// rack's memory brick, so the healthy prefix fills all four racks.
	healthy := make([]AdmitRequest, 4)
	for i := range healthy {
		healthy[i] = AdmitRequest{Owner: fmt.Sprintf("vm-%d", i), VCPUs: 4, Remote: 2 * brick.GiB}
	}

	// A twin commits the healthy prefix, proving it boots both brick
	// kinds on every rack of both pods.
	twin := build()
	if _, err := twin.AdmitBatch(healthy); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < twin.Pods(); p++ {
		for r := 0; r < twin.Pod(p).Racks(); r++ {
			rack := twin.Pod(p).Rack(r)
			for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory} {
				if c := rack.Census(kind); c.Off != 0 {
					t.Fatalf("healthy prefix left a %v brick off on pod %d rack %d", kind, p, r)
				}
			}
		}
	}
	if err := twin.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	s := build()
	cpuBefore, memBefore := s.Census(topo.KindCompute), s.Census(topo.KindMemory)
	if cpuBefore.Active+cpuBefore.Idle != 0 || memBefore.Active+memBefore.Idle != 0 {
		t.Fatalf("power-aware row starts with bricks on: compute %+v, memory %+v", cpuBefore, memBefore)
	}
	before := rowFingerprint(t, s, false)
	burst := append(append([]AdmitRequest(nil), healthy...), AdmitRequest{Owner: "too-big", VCPUs: 64})
	if _, err := s.AdmitBatch(burst); err == nil {
		t.Fatal("a burst with an unplaceable request was admitted")
	} else if !strings.Contains(err.Error(), "rolled back at request 4") {
		t.Fatalf("unexpected abort error: %v", err)
	}
	if c := s.Census(topo.KindCompute); c != cpuBefore {
		t.Fatalf("aborted burst left compute census %+v, want %+v", c, cpuBefore)
	}
	if c := s.Census(topo.KindMemory); c != memBefore {
		t.Fatalf("aborted burst left memory census %+v, want %+v", c, memBefore)
	}
	if after := rowFingerprint(t, s, false); after != before {
		t.Fatalf("aborted burst changed the row:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The journal is reused, not regrown: the same abort again leaves
	// the same state.
	if _, err := s.AdmitBatch(burst); err == nil {
		t.Fatal("a burst with an unplaceable request was admitted")
	}
	if after := rowFingerprint(t, s, false); after != before {
		t.Fatal("second aborted burst changed the row")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceBatchRollbackOnSharedJournal: a rack that belongs to a pod
// or a row logs its boots into the tier's shared journal, and a
// rack-level PlaceBatch + RollbackBatch on it must still power those
// boots back down.
func TestPlaceBatchRollbackOnSharedJournal(t *testing.T) {
	pod := buildBatchPod(t, 2, 2, 2, 8*brick.GiB, DefaultConfig)
	row := buildRowSched(t, 2, 2, 4*brick.GiB, DefaultConfig)
	for _, tc := range []struct {
		name  string
		rack  *Controller
		check func() error
	}{
		{"pod", pod.Rack(1), pod.CheckInvariants},
		{"row", row.Pod(1).Rack(1), row.CheckInvariants},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.rack
			cpuBefore, memBefore := c.Census(topo.KindCompute), c.Census(topo.KindMemory)
			if cpuBefore.Off == 0 || memBefore.Off == 0 {
				t.Fatal("power-aware rack starts with no brick off")
			}
			snap := c.Snapshot()
			snap.Requests, snap.Failures = 0, 0
			before, err := snap.JSON()
			if err != nil {
				t.Fatal(err)
			}
			reqs := []AdmitRequest{
				{Owner: "boot-a", VCPUs: 1, Remote: brick.GiB},
				{Owner: "boot-b", VCPUs: 1, LocalMem: brick.GiB, Remote: brick.GiB},
			}
			out := make([]AdmitResult, len(reqs))
			c.PlaceBatch(reqs, out)
			for i := range out {
				if out[i].Err != nil {
					t.Fatalf("request %d: %v", i, out[i].Err)
				}
			}
			if c.Census(topo.KindCompute).Off == cpuBefore.Off || c.Census(topo.KindMemory).Off == memBefore.Off {
				t.Fatal("the batch booted no compute or no memory brick; the test needs both")
			}
			if err := c.RollbackBatch(reqs, out); err != nil {
				t.Fatal(err)
			}
			if got := c.Census(topo.KindCompute); got != cpuBefore {
				t.Fatalf("rolled-back batch left compute census %+v, want %+v", got, cpuBefore)
			}
			if got := c.Census(topo.KindMemory); got != memBefore {
				t.Fatalf("rolled-back batch left memory census %+v, want %+v", got, memBefore)
			}
			snap = c.Snapshot()
			snap.Requests, snap.Failures = 0, 0
			after, err := snap.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Fatalf("rack not restored:\nbefore:\n%s\nafter:\n%s", before, after)
			}
			if err := tc.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
