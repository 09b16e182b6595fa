package exp

import (
	"reflect"
	"testing"
)

// TestChurnMeetsAcceptance pins the scenario's headline claims at the
// full 16-rack scale: sustained churn holds fragmentation in steady
// state (the final churn round is no worse than the phase's peak, and
// the peak stays well below saturation), consolidation powers at least
// one drained rack fully down, and both engines report throughput.
func TestChurnMeetsAcceptance(t *testing.T) {
	res, err := RunChurn(Params{Seed: 1, Workers: 2, Batch: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Racks != defaultChurnRacks {
		t.Fatalf("ran %d racks, want %d", res.Racks, defaultChurnRacks)
	}
	if res.PlacementsPerS <= 0 || res.TeardownsPerS <= 0 {
		t.Fatalf("throughput not reported: %+v", res)
	}
	if res.FragPeak >= 0.95 {
		t.Fatalf("fragmentation saturated: peak %.3f", res.FragPeak)
	}
	if res.FragFinal > res.FragPeak {
		t.Fatalf("steady state not held: final frag %.3f above peak %.3f", res.FragFinal, res.FragPeak)
	}
	if res.DarkPeak < 1 {
		t.Fatalf("no rack powered down during churn: %+v", res)
	}
	if res.DarkFinal < 1 {
		t.Fatalf("no rack dark after decay: %+v", res)
	}
	if res.LiveFinal == 0 {
		t.Fatal("decay drained the pod completely; the dark-rack claim needs survivors")
	}
}

// TestChurnBatchSizeOneMatchesSequential is the in-process version of
// the CI check: batched admission and teardown at batch size 1 must
// produce byte-identical experiment output to the per-request facade.
func TestChurnBatchSizeOneMatchesSequential(t *testing.T) {
	seq, err := RunChurn(Params{Seed: 1, Racks: 4, Workers: 1, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := RunChurn(Params{Seed: 1, Racks: 4, Workers: 1, Fast: true, Batch: true, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Mode is recorded on the result struct (not in the text); blank it
	// for the compare.
	bat.Batch, bat.BatchSize = false, 0
	if !reflect.DeepEqual(seq, bat) {
		t.Fatalf("batch-size-1 churn diverges from sequential:\nbatch:      %+v\nsequential: %+v", bat, seq)
	}
}

// TestChurnBatchDeterministicAcrossWorkers: the batched scenario must
// be byte-identical at any trial-level worker count.
func TestChurnBatchDeterministicAcrossWorkers(t *testing.T) {
	var prev ChurnResult
	for i, workers := range []int{1, 4, 8} {
		res, err := RunChurn(Params{Seed: 1, Racks: 4, Workers: workers, Fast: true, Batch: true})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !reflect.DeepEqual(prev, res) {
			t.Fatalf("batch churn diverges between worker counts:\n%+v\n%+v", prev, res)
		}
		prev = res
	}
}
