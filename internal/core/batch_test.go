package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/brick"
	"repro/internal/scaleup"
	"repro/internal/topo"
	"repro/internal/workload"
)

// batchPodConfig sizes a pod with room for batch boots.
func batchPodConfig(racks int) PodConfig {
	cfg := DefaultPodConfig(racks)
	cfg.Rack.Topology = topo.BuildSpec{
		Trays: 1, ComputePerTray: 2, MemoryPerTray: 2, AccelPerTray: 0, PortsPerBrick: 8,
	}
	cfg.Rack.Switch.Ports = 32
	cfg.Rack.Bricks.Compute = brick.ComputeConfig{Cores: 8, LocalMemory: 16 * brick.GiB}
	cfg.Rack.Bricks.Memory.Capacity = 16 * brick.GiB
	return cfg
}

// TestCreateVMsSizeOneMatchesCreateVM: a batch of one reproduces the
// sequential facade — result, placement and clock — bit for bit.
func TestCreateVMsSizeOneMatchesCreateVM(t *testing.T) {
	seqPod, err := NewPod(batchPodConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	batPod, err := NewPod(batchPodConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("vm%d", i)
		seqRes, seqErr := seqPod.CreateVM(id, 1+i%3, brick.Bytes(1+i%2)*brick.GiB)
		batRes, batErr := batPod.CreateVMs([]VMCreate{{ID: id, VCPUs: 1 + i%3, Memory: brick.Bytes(1+i%2) * brick.GiB}}, 1)
		if (seqErr == nil) != (batErr == nil) {
			t.Fatalf("vm %d: sequential err=%v, batch err=%v", i, seqErr, batErr)
		}
		if seqErr != nil {
			continue
		}
		if !reflect.DeepEqual(batRes[0], seqRes) {
			t.Fatalf("vm %d: batch result %+v != sequential %+v", i, batRes[0], seqRes)
		}
		sr, _ := seqPod.VMRack(id)
		br, _ := batPod.VMRack(id)
		if sr != br {
			t.Fatalf("vm %d: batch rack %d != sequential rack %d", i, br, sr)
		}
		if seqPod.Now() != batPod.Now() {
			t.Fatalf("vm %d: clocks diverge: batch %v, sequential %v", i, batPod.Now(), seqPod.Now())
		}
	}
}

// TestCreateVMsBurst boots a whole burst — including bundled remote
// memory — in one batch admission, deterministically at every worker
// count.
func TestCreateVMsBurst(t *testing.T) {
	src, err := workload.NewBurstSource(workload.HalfHalf, 3, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := src.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	mkReqs := func() []VMCreate {
		reqs := make([]VMCreate, burst.Size())
		for i, r := range burst.Reqs {
			reqs[i] = VMCreate{
				ID:     fmt.Sprintf("b%d", i),
				VCPUs:  r.VCPUs / 4,                            // fit the small test racks
				Memory: brick.Bytes(r.RAMGiB) * brick.GiB / 16, // local share
				Remote: brick.Bytes(r.RAMGiB) * brick.GiB / 8,  // remote share
			}
		}
		return reqs
	}

	var results [][]scaleupResultKey
	var clocks []string
	for _, workers := range []int{1, 4} {
		pod, err := NewPod(batchPodConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pod.CreateVMs(mkReqs(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var keys []scaleupResultKey
		for i, r := range res {
			rack, ok := pod.VMRack(fmt.Sprintf("b%d", i))
			if !ok {
				t.Fatalf("workers=%d: vm b%d not registered", workers, i)
			}
			atts := pod.Scheduler().Attachments(fmt.Sprintf("b%d", i))
			if len(atts) != 1 {
				t.Fatalf("workers=%d: vm b%d has %d attachments, want 1", workers, i, len(atts))
			}
			vm, ok := pod.VM(fmt.Sprintf("b%d", i))
			if !ok {
				t.Fatalf("workers=%d: vm b%d missing from hypervisor", workers, i)
			}
			want := mkReqs()[i].Memory + mkReqs()[i].Remote
			if vm.TotalMemory() != want {
				t.Fatalf("workers=%d: vm b%d memory %v, want %v", workers, i, vm.TotalMemory(), want)
			}
			keys = append(keys, scaleupResultKey{Rack: rack, Done: r.Done.String(), Size: int64(r.Size)})
		}
		results = append(results, keys)
		clocks = append(clocks, pod.Now().String())
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("burst results diverge across worker counts:\n%v\n%v", results[0], results[1])
	}
	if clocks[0] != clocks[1] {
		t.Fatalf("clocks diverge across worker counts: %s vs %s", clocks[0], clocks[1])
	}
}

type scaleupResultKey struct {
	Rack int
	Done string
	Size int64
}

// TestCreateVMsAtomic: one unplaceable VM voids the whole burst and
// leaves the pod untouched.
func TestCreateVMsAtomic(t *testing.T) {
	pod, err := NewPod(batchPodConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	freeCores := func() int {
		n := 0
		for i := 0; i < pod.Racks(); i++ {
			n += pod.Scheduler().Rack(i).FreeCores()
		}
		return n
	}
	coresBefore := freeCores()
	_, err = pod.CreateVMs([]VMCreate{
		{ID: "ok-0", VCPUs: 1, Memory: brick.GiB},
		{ID: "bad", VCPUs: 1, Memory: brick.GiB, Remote: 256 * brick.GiB},
		{ID: "ok-1", VCPUs: 1, Memory: brick.GiB, Remote: brick.GiB},
	}, 2)
	if err == nil {
		t.Fatal("unplaceable burst committed")
	}
	if got := freeCores(); got != coresBefore {
		t.Fatalf("free cores %d after rolled-back burst, want %d", got, coresBefore)
	}
	for _, id := range []string{"ok-0", "bad", "ok-1"} {
		if _, ok := pod.VMRack(id); ok {
			t.Fatalf("VM %q registered despite rolled-back burst", id)
		}
	}
	if pod.Now() != 0 {
		t.Fatalf("clock advanced to %v by a rolled-back burst", pod.Now())
	}
}

// TestBurstResultsValidUntilNextBurst pins the facade's result
// contract. CreateVMs and DestroyVMs return the facade's own buffers,
// which the next burst of the same kind overwrites; CreateVM and
// DestroyVM return copies, which later bursts leave alone; and a
// depth-2 BatchPipeline, which re-times the facade's buffer in place,
// shifts exactly the burst it ran, once.
func TestBurstResultsValidUntilNextBurst(t *testing.T) {
	burst := func(prefix string, n int) ([]VMCreate, []string) {
		reqs, ids := make([]VMCreate, n), make([]string, n)
		for i := range reqs {
			ids[i] = fmt.Sprintf("%s%d", prefix, i)
			reqs[i] = VMCreate{ID: ids[i], VCPUs: 1 + i%2, Memory: brick.GiB, Remote: brick.Bytes(i%2) * brick.GiB}
		}
		return reqs, ids
	}
	pod, err := NewPod(batchPodConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// overwritten runs two bursts of one kind and checks that the second
	// wrote over the results the first returned.
	overwritten := func(what string, run func(prefix string) ([]scaleup.Result, error)) {
		t.Helper()
		first, err := run("a")
		if err != nil {
			t.Fatal(err)
		}
		kept := slices.Clone(first)
		second, err := run("b")
		if err != nil {
			t.Fatal(err)
		}
		if &first[0] != &second[0] {
			t.Fatalf("%s: the next burst returned a new slice", what)
		}
		if reflect.DeepEqual(first, kept) {
			t.Fatalf("%s: the next burst left the earlier results in place", what)
		}
	}
	overwritten("CreateVMs", func(prefix string) ([]scaleup.Result, error) {
		reqs, _ := burst(prefix, 3)
		return pod.CreateVMs(reqs, 0)
	})
	overwritten("DestroyVMs", func(prefix string) ([]scaleup.Result, error) {
		_, ids := burst(prefix, 3)
		return pod.DestroyVMs(ids, 0)
	})

	created, err := pod.CreateVM("solo", 2, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	keptCreated := created
	reqs, ids := burst("c", 2)
	if _, err := pod.CreateVMs(reqs, 0); err != nil {
		t.Fatal(err)
	}
	destroyed, err := pod.DestroyVM("solo")
	if err != nil {
		t.Fatal(err)
	}
	keptDestroyed := destroyed
	if _, err := pod.DestroyVMs(ids, 0); err != nil {
		t.Fatal(err)
	}
	if created != keptCreated || destroyed != keptDestroyed {
		t.Fatal("a later burst changed a CreateVM or DestroyVM result")
	}

	// The pipeline's facade places exactly as its twin does, so each
	// burst's results are the twin's shifted by one delta. At depth 2 a
	// create joins the burst in flight, and a destroy of older VMs runs
	// beside it, ahead of the facade's clock.
	twin, err := NewPod(batchPodConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	piped, err := NewPod(batchPodConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchPipeline(piped, 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(k int, want, got []scaleup.Result, n int) bool {
		t.Helper()
		if len(got) != n {
			t.Fatalf("burst %d: %d results for %d VMs", k, len(got), n)
		}
		shift := got[0].Requested.Sub(want[0].Requested)
		for i := range got {
			r := got[i]
			r.Requested, r.Started, r.Done = r.Requested.Add(-shift), r.Started.Add(-shift), r.Done.Add(-shift)
			if r != want[i] {
				t.Fatalf("burst %d VM %d: pipeline result %+v is not the facade's %+v shifted by %v", k, i, got[i], want[i], shift)
			}
		}
		return shift != 0
	}
	var shifted bool
	var older []string
	for k, n := range []int{3, 2, 3, 1} {
		reqs, ids := burst(fmt.Sprintf("p%d-", k), n)
		want, err := twin.CreateVMs(reqs, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bp.CreateVMs(reqs)
		if err != nil {
			t.Fatal(err)
		}
		shifted = check(k, want, got, n) || shifted
		if older != nil {
			if want, err = twin.DestroyVMs(older, 0); err != nil {
				t.Fatal(err)
			}
			if got, err = bp.DestroyVMs(older); err != nil {
				t.Fatal(err)
			}
			shifted = check(k, want, got, len(older)) || shifted
		}
		older = ids
	}
	if !shifted {
		t.Fatal("the pipeline never re-timed a burst; the shape must overlap boots")
	}
}
