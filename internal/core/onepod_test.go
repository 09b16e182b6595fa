package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/brick"
	"repro/internal/scaleup"
	"repro/internal/sim"
)

// TestOnePodRowMatchesPod: a 1-pod row of N racks is a pod of the same
// N racks. Both facades run one seeded sequence of create bursts with
// bundled remote memory (some spilling cross-rack, some refused),
// newest-first and interleaved teardown bursts, scale-ups and
// consolidation passes, and must agree on every result, clock, VM
// placement, consolidation report and refusal. Error texts differ by
// design ("pod" against "row"), so only whether a call failed is
// compared.
func TestOnePodRowMatchesPod(t *testing.T) {
	const racks = 3
	for _, seed := range []uint64{1, 7, 23, 64} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Small memory bricks, so bundled remote memory spills.
			podCfg := batchPodConfig(racks)
			podCfg.Rack.Bricks.Memory.Capacity = 4 * brick.GiB
			pod, err := NewPod(podCfg)
			if err != nil {
				t.Fatal(err)
			}
			rowCfg := DefaultRowConfig(1, racks)
			rowCfg.Rack = podCfg.Rack
			row, err := NewRow(rowCfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRand(seed)
			var live []string // creation order
			nextID := 0
			var spills, refusals, moves int

			same := func(step int, op string, podRes, rowRes []scaleup.Result, podErr, rowErr error) {
				t.Helper()
				if (podErr == nil) != (rowErr == nil) {
					t.Fatalf("step %d (%s): pod err = %v, row err = %v", step, op, podErr, rowErr)
				}
				if !reflect.DeepEqual(podRes, rowRes) {
					t.Fatalf("step %d (%s): results differ:\npod %+v\nrow %+v", step, op, podRes, rowRes)
				}
				if pod.Now() != row.Now() {
					t.Fatalf("step %d (%s): pod clock %v, row clock %v", step, op, pod.Now(), row.Now())
				}
				for _, id := range live {
					pr, pok := pod.VMRack(id)
					rp, rr, rok := row.VMLoc(id)
					if !pok || !rok || rp != 0 || pr != rr {
						t.Fatalf("step %d (%s): VM %q on pod rack %d (%v), row pod %d rack %d (%v)", step, op, id, pr, pok, rp, rr, rok)
					}
				}
				if err := pod.Scheduler().CheckInvariants(); err != nil {
					t.Fatalf("step %d (%s): pod: %v", step, op, err)
				}
				if err := row.Scheduler().CheckInvariants(); err != nil {
					t.Fatalf("step %d (%s): row: %v", step, op, err)
				}
			}

			for step := 0; step < 60; step++ {
				switch rng.Uint64() % 8 {
				case 0, 1, 2: // create burst
					n := 1 + int(rng.Uint64()%5)
					reqs := make([]VMCreate, n)
					for i := range reqs {
						reqs[i] = VMCreate{
							ID:     fmt.Sprintf("vm-%d", nextID+i),
							VCPUs:  1 + int(rng.Uint64()%4),
							Memory: brick.Bytes(1+rng.Uint64()%3) * brick.GiB / 2,
							Remote: brick.Bytes(rng.Uint64()%5) * brick.GiB,
						}
					}
					switch rng.Uint64() % 10 {
					case 0: // more cores than any brick has
						reqs[n-1].VCPUs = 9
					case 1: // a name repeated within the burst
						reqs = append(reqs, reqs[0])
					case 2: // a name already live
						if len(live) > 0 {
							reqs[n-1].ID = live[rng.Uint64()%uint64(len(live))]
						}
					}
					nextID += n
					podRes, podErr := pod.CreateVMs(reqs, 0)
					rowRes, rowErr := row.CreateVMs(reqs, 0)
					same(step, "create", podRes, rowRes, podErr, rowErr)
					if podErr != nil {
						refusals++
						continue
					}
					for _, r := range reqs {
						live = append(live, r.ID)
						for _, att := range pod.Scheduler().Attachments(r.ID) {
							if att.CrossRack() {
								spills++
							}
						}
					}
				case 3: // newest-first teardown
					if len(live) == 0 {
						continue
					}
					k := 1 + int(rng.Uint64()%uint64(min(len(live), 4)))
					ids := make([]string, k)
					for i := range ids {
						ids[i] = live[len(live)-1-i]
					}
					podRes, podErr := pod.DestroyVMs(ids, 0)
					rowRes, rowErr := row.DestroyVMs(ids, 0)
					if podErr == nil {
						live = live[:len(live)-k]
					}
					same(step, "destroy newest-first", podRes, rowRes, podErr, rowErr)
				case 4, 5: // interleaved teardown, sometimes naming a retired VM
					if len(live) == 0 {
						continue
					}
					var ids []string
					for _, id := range live {
						if rng.Uint64()%3 == 0 {
							ids = append(ids, id)
						}
					}
					if rng.Uint64()%5 == 0 {
						ids = append(ids, "vm-retired")
					}
					if len(ids) == 0 {
						ids = append(ids, live[rng.Uint64()%uint64(len(live))])
					}
					podRes, podErr := pod.DestroyVMs(ids, 0)
					rowRes, rowErr := row.DestroyVMs(ids, 0)
					if podErr == nil {
						live = without(live, ids)
					} else {
						refusals++
					}
					same(step, "destroy interleaved", podRes, rowRes, podErr, rowErr)
				case 6: // scale-up
					if len(live) == 0 {
						continue
					}
					id := live[rng.Uint64()%uint64(len(live))]
					size := brick.Bytes(1+rng.Uint64()%3) * brick.GiB
					podRes, podErr := pod.ScaleUpVM(id, size)
					rowRes, rowErr := row.ScaleUpVM(id, size)
					same(step, "scale-up", []scaleup.Result{podRes}, []scaleup.Result{rowRes}, podErr, rowErr)
					if podErr == nil {
						atts := pod.Scheduler().Attachments(id)
						if atts[len(atts)-1].CrossRack() {
							spills++
						}
					}
				case 7:
					podRep := pod.Consolidate()
					rowRep := row.Consolidate()
					if podRep != PodConsolidation(rowRep) {
						t.Fatalf("step %d: consolidation differs:\npod %+v\nrow %+v", step, podRep, rowRep)
					}
					moves += podRep.VMsMoved
					same(step, "consolidate", nil, nil, nil, nil)
				}
			}
			t.Logf("%d cross-rack spills, %d refused bursts, %d consolidation moves", spills, refusals, moves)
			if spills == 0 || refusals == 0 {
				t.Fatalf("sequence exercised %d spills and %d refusals, want both", spills, refusals)
			}
		})
	}
}

// TestRowConsolidateKeepsCrossPodPinnedVM: a VM holding a cross-pod
// attachment stays on its rack through Row.Consolidate even when a
// lower rack of its pod has room — row circuits cannot re-point — and
// the pass reports it as a failed move with the attachment untouched.
func TestRowConsolidateKeepsCrossPodPinnedVM(t *testing.T) {
	cfg := DefaultRowConfig(2, 2)
	cfg.Rack = batchPodConfig(2).Rack
	row, err := NewRow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Five 4-vCPU VMs: four fill pod 0 rack 0's 16 cores, the fifth
	// lands on pod 0 rack 1.
	var reqs []VMCreate
	for i := 0; i < 5; i++ {
		reqs = append(reqs, VMCreate{ID: fmt.Sprintf("vm-%d", i), VCPUs: 4, Memory: brick.GiB})
	}
	if _, err := row.CreateVMs(reqs, 0); err != nil {
		t.Fatal(err)
	}
	const pinned = "vm-4"
	if pod, rack, _ := row.VMLoc(pinned); pod != 0 || rack != 1 {
		t.Fatalf("%s on pod %d rack %d, want pod 0 rack 1", pinned, pod, rack)
	}
	// Fill pod 0's memory, so the pinned VM's scale-up spills cross-pod.
	for r := 0; r < cfg.Racks; r++ {
		fillRack(t, row.Scheduler().Pod(0), row.Topology().Pod(0).Rack(r), r, cfg.Rack.Bricks.Memory.Capacity)
	}
	if _, err := row.ScaleUpVM(pinned, brick.GiB); err != nil {
		t.Fatal(err)
	}
	atts := row.Scheduler().Attachments(pinned)
	if len(atts) != 1 || !atts[0].CrossPod() {
		t.Fatalf("%s holds %d attachments, want one cross-pod", pinned, len(atts))
	}
	before := *atts[0]
	// Open room on pod 0 rack 0.
	if _, err := row.DestroyVMs([]string{"vm-0"}, 0); err != nil {
		t.Fatal(err)
	}
	if !row.Scheduler().Pod(0).Rack(0).CanPlaceCompute(4, brick.GiB) {
		t.Fatal("pod 0 rack 0 has no room for the pinned VM")
	}

	rep := row.Consolidate()
	if rep.MovesFailed < 1 {
		t.Fatalf("pinned VM not reported as a failed move: %+v", rep)
	}
	if pod, rack, ok := row.VMLoc(pinned); !ok || pod != 0 || rack != 1 {
		t.Fatalf("%s moved to pod %d rack %d (%v)", pinned, pod, rack, ok)
	}
	after := row.Scheduler().Attachments(pinned)
	if len(after) != 1 || after[0] != atts[0] || *after[0] != before {
		t.Fatalf("%s attachments changed: before %+v, after %+v", pinned, before, after)
	}
	if err := row.Scheduler().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
