package exp

import "testing"

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
