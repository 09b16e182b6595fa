package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/topo"
)

// arenaTarget is one facade under the record-arena tests, with its
// scheduler's view of a VM's attachments.
type arenaTarget struct {
	name        string
	f           *facade
	attachments func(id string) []*sdm.Attachment
}

// arenaTargets builds a pod of podRacks racks and a row of rowPods ×
// rowRacks racks, every rack from the rack config, all bricks on.
func arenaTargets(t *testing.T, rack Config, podRacks, rowPods, rowRacks int) []arenaTarget {
	t.Helper()
	podCfg := DefaultPodConfig(podRacks)
	podCfg.Rack = rack
	pod, err := NewPod(podCfg)
	if err != nil {
		t.Fatal(err)
	}
	pod.Scheduler().PowerOnAll()
	rowCfg := DefaultRowConfig(rowPods, rowRacks)
	rowCfg.Rack = rack
	row, err := NewRow(rowCfg)
	if err != nil {
		t.Fatal(err)
	}
	row.Scheduler().PowerOnAll()
	return []arenaTarget{
		{"pod", &pod.facade, pod.Scheduler().Attachments},
		{"row", &row.facade, row.Scheduler().Attachments},
	}
}

// checkArena fails the test unless every record parked in f's arena is
// retired: parked once, and held by no slot of the facade's table and
// by no rack's Scale-up live list.
func checkArena(t *testing.T, what string, f *facade) {
	t.Helper()
	parked := make(map[*scaleup.VM]bool, len(f.retired))
	for _, vm := range f.retired {
		if vm == nil || parked[vm] {
			t.Fatalf("%s: the arena holds %p twice, or nil", what, vm)
		}
		parked[vm] = true
	}
	for s, slot := range f.vms.slots {
		if parked[slot.vm] {
			t.Fatalf("%s: parked record %p is table slot %d's VM %q", what, slot.vm, s, slot.vm.ID)
		}
	}
	var live []*scaleup.VM
	for p, stacks := range f.stacks {
		for r, stack := range stacks {
			live = stack.scale.AppendVMs(live[:0])
			for _, vm := range live {
				if parked[vm] {
					t.Fatalf("%s: parked record %p is VM %q, live on %s", what, vm, vm.ID, f.where(p, r))
				}
			}
		}
	}
}

// TestRecycledRecordShowsOnlyItsOwnVM: a VM that grew past every
// inline slot of its record (four DIMMs and bindings, against two and
// one inline) and set its working set is destroyed, and the next
// create boots into its record — first under a new name, then under
// the old one. Each time the VM seen through the facade is exactly the
// one created: its spec, running, no usage or balloon, only its own
// bundled DIMM and attachment. The name that left is gone from the
// facade, every rack and the scheduler. (scaleup's
// TestAdoptIntoRetiredRecord covers an inflated balloon, which no
// facade call sets.)
func TestRecycledRecordShowsOnlyItsOwnVM(t *testing.T) {
	for _, x := range arenaTargets(t, burstRackConfig(), 2, 2, 2) {
		t.Run(x.name, func(t *testing.T) {
			f := x.f
			record := func(id string) *scaleup.VM {
				t.Helper()
				s, ok := f.vms.find(id)
				if !ok {
					t.Fatalf("no VM %q in the table", id)
				}
				return f.vms.at(s).vm
			}
			create := func(r VMCreate) {
				t.Helper()
				if _, err := f.CreateVMs([]VMCreate{r}, 0); err != nil {
					t.Fatal(err)
				}
				checkArena(t, "create "+r.ID, f)
			}
			destroy := func(id string) {
				t.Helper()
				if _, err := f.DestroyVMs([]string{id}, 0); err != nil {
					t.Fatal(err)
				}
				checkArena(t, "destroy "+id, f)
			}
			fresh := func(r VMCreate) {
				t.Helper()
				vm, ok := f.VM(r.ID)
				if !ok {
					t.Fatalf("VM %q has no hypervisor view", r.ID)
				}
				if vm.ID != hypervisor.VMID(r.ID) || vm.Spec != (hypervisor.VMSpec{VCPUs: r.VCPUs, Memory: r.Memory}) {
					t.Fatalf("VM %q shows ID %q and spec %+v", r.ID, vm.ID, vm.Spec)
				}
				if vm.State() != hypervisor.StateRunning || vm.Usage() != 0 || vm.Ballooned() != 0 {
					t.Fatalf("VM %q: state %v, usage %v, ballooned %v", r.ID, vm.State(), vm.Usage(), vm.Ballooned())
				}
				want := 0
				if r.Remote > 0 {
					want = 1
				}
				dimms := vm.DIMMs()
				if len(dimms) != want || (want == 1 && dimms[0].Size != r.Remote) {
					t.Fatalf("VM %q shows DIMMs %+v, want %d of %v", r.ID, dimms, want, r.Remote)
				}
				if vm.TotalMemory() != r.Memory+r.Remote {
					t.Fatalf("VM %q shows %v of memory, want %v", r.ID, vm.TotalMemory(), r.Memory+r.Remote)
				}
				s, _ := f.vms.find(r.ID)
				loc := f.vms.at(s)
				if n := f.stacks[loc.pod][loc.rack].scale.Bindings(hypervisor.VMID(r.ID)); n != want {
					t.Fatalf("VM %q holds %d bindings, want %d", r.ID, n, want)
				}
				if n := len(x.attachments(r.ID)); n != want {
					t.Fatalf("VM %q holds %d attachments, want %d", r.ID, n, want)
				}
			}
			absent := func(id string) {
				t.Helper()
				if _, ok := f.VM(id); ok {
					t.Fatalf("VM %q still visible through the facade", id)
				}
				for p, stacks := range f.stacks {
					for r, stack := range stacks {
						if _, ok := stack.scale.Lookup(hypervisor.VMID(id)); ok {
							t.Fatalf("VM %q still live on %s", id, f.where(p, r))
						}
					}
				}
				if n := len(x.attachments(id)); n != 0 {
					t.Fatalf("VM %q still holds %d attachments", id, n)
				}
			}

			create(VMCreate{ID: "old", VCPUs: 4, Memory: 2 * brick.GiB, Remote: 2 * brick.GiB})
			for i := 0; i < 3; i++ {
				if _, err := f.ScaleUpVM("old", brick.GiB); err != nil {
					t.Fatal(err)
				}
			}
			vm, _ := f.VM("old")
			if n := len(vm.DIMMs()); n != 4 {
				t.Fatalf("old VM holds %d DIMMs, want 4", n)
			}
			vm.SetUsage(5 * brick.GiB)
			rec := record("old")
			destroy("old")
			if len(f.retired) != 1 || f.retired[0] != rec {
				t.Fatalf("arena %v after destroying the VM in record %p", f.retired, rec)
			}

			next := VMCreate{ID: "new", VCPUs: 2, Memory: 3 * brick.GiB}
			create(next)
			if got := record("new"); got != rec || len(f.retired) != 0 {
				t.Fatalf("new VM booted into %p with %d parked, want the retired record %p", got, len(f.retired), rec)
			}
			fresh(next)
			absent("old")

			destroy("new")
			again := VMCreate{ID: "old", VCPUs: 1, Memory: brick.GiB, Remote: brick.GiB}
			create(again)
			if got := record("old"); got != rec {
				t.Fatalf("reused name booted into %p, want the retired record %p", got, rec)
			}
			fresh(again)
			absent("new")
			if _, err := f.ScaleUpVM("old", brick.GiB); err != nil {
				t.Fatal(err)
			}
			if n := len(vm.DIMMs()); n != 2 {
				t.Fatalf("recycled VM holds %d DIMMs after one scale-up, want 2", n)
			}
			destroy("old")
			if n := f.vms.len(); n != 0 {
				t.Fatalf("table holds %d VMs after the last destroy", n)
			}
		})
	}
}

// TestFailedBurstsParkNoLiveRecord: every way a create burst fails
// after popping records — an admission refusal, a boot refusal after
// an earlier VM was adopted, a bind failure — and a destroy burst
// whose SDM teardown rolls back leave no parked record that a table
// slot or a rack still holds. A record a boot refused stays parked;
// those the unwind retired are dropped, not parked.
func TestFailedBurstsParkNoLiveRecord(t *testing.T) {
	// 2 GiB baremetal hotplug blocks: a 1 GiB remote window cannot be
	// hot-added, so the bind of a 1 GiB bundled remote fails after the
	// SDM admitted it.
	rack := burstRackConfig()
	rack.ScaleUp.Baremetal.BlockSize = 2 * brick.GiB
	for _, x := range arenaTargets(t, rack, 2, 2, 2) {
		t.Run(x.name, func(t *testing.T) {
			f := x.f
			names := func(prefix string, n int) []VMCreate {
				reqs := make([]VMCreate, n)
				for i := range reqs {
					reqs[i] = VMCreate{ID: fmt.Sprintf("%s%d", prefix, i), VCPUs: 1, Memory: brick.GiB}
				}
				return reqs
			}
			ids := func(reqs []VMCreate) []string {
				out := make([]string, len(reqs))
				for i, r := range reqs {
					out[i] = r.ID
				}
				return out
			}
			refused := func(what string, burst []VMCreate, want string, parked int) {
				t.Helper()
				_, err := f.CreateVMs(burst, 0)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: err = %v, want one containing %q", what, err, want)
				}
				checkArena(t, what, f)
				if n := len(f.retired); n != parked {
					t.Fatalf("%s: %d records parked, want %d", what, n, parked)
				}
				if n := f.vms.len(); n != 0 {
					t.Fatalf("%s: table holds %d VMs", what, n)
				}
			}

			warm := names("w", 4)
			if _, err := f.CreateVMs(warm, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := f.DestroyVMs(ids(warm), 0); err != nil {
				t.Fatal(err)
			}
			checkArena(t, "warm", f)
			if n := len(f.retired); n != 4 {
				t.Fatalf("%d records parked after a 4-VM destroy, want 4", n)
			}

			refused("burst refused at admission", []VMCreate{{ID: "big", VCPUs: 64, Memory: brick.GiB}}, "", 4)

			// Every rack holds a stray s1 the facade does not know, so
			// s0 adopts the newest record and s1's boot refuses the next.
			var racks []*scaleup.Controller
			for _, stacks := range f.stacks {
				for _, stack := range stacks {
					racks = append(racks, stack.scale)
				}
			}
			removeStrays := strayVMs(t, racks, "s1")
			refused("burst failing to boot", names("s", 3), `batch boot of "s1"`, 3)
			removeStrays()

			bind := names("b", 2)
			bind[1].Remote = brick.GiB
			refused("burst failing to bind", bind, `batch scale-up of "b1"`, 1)

			after := names("c", 3)
			if _, err := f.CreateVMs(after, 0); err != nil {
				t.Fatal(err)
			}
			checkArena(t, "create after the failures", f)
			if n := len(f.retired); n != 0 {
				t.Fatalf("%d records parked after a 3-VM create, want 0", n)
			}
			if _, err := f.DestroyVMs(ids(after), 0); err != nil {
				t.Fatal(err)
			}
			checkArena(t, "destroy after the failures", f)
		})
	}

	// One compute and one memory brick with one port each: a second
	// VM's remote memory rides the first VM's circuit in packet mode,
	// so tearing the first down ahead of the second rolls back.
	riders := burstRackConfig()
	riders.Topology = topo.BuildSpec{Trays: 1, ComputePerTray: 1, MemoryPerTray: 1, PortsPerBrick: 1}
	for _, x := range arenaTargets(t, riders, 1, 1, 1) {
		t.Run(x.name+"/rolled-back-destroy", func(t *testing.T) {
			f := x.f
			warm := []VMCreate{{ID: "w0", VCPUs: 1, Memory: brick.GiB}, {ID: "w1", VCPUs: 1, Memory: brick.GiB}, {ID: "w2", VCPUs: 1, Memory: brick.GiB}}
			if _, err := f.CreateVMs(warm, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := f.DestroyVMs([]string{"w2", "w1", "w0"}, 0); err != nil {
				t.Fatal(err)
			}
			for _, r := range []VMCreate{
				{ID: "host", VCPUs: 1, Memory: brick.GiB, Remote: brick.GiB},
				{ID: "rider", VCPUs: 1, Memory: brick.GiB, Remote: brick.GiB},
				{ID: "plain", VCPUs: 1, Memory: brick.GiB},
			} {
				if _, err := f.CreateVMs([]VMCreate{r}, 0); err != nil {
					t.Fatal(err)
				}
			}
			if atts := x.attachments("rider"); len(atts) != 1 || atts[0].Mode != sdm.ModePacket {
				t.Fatalf("rider VM's attachments %v, want one in packet mode", atts)
			}
			parked := len(f.retired)
			for _, burst := range [][]string{{"host"}, {"plain", "host"}} {
				_, err := f.DestroyVMs(burst, 0)
				if err == nil || !strings.Contains(err.Error(), "rolled back") {
					t.Fatalf("destroy %v: err = %v, want a rolled-back teardown", burst, err)
				}
				checkArena(t, fmt.Sprintf("rolled-back destroy %v", burst), f)
				if n := len(f.retired); n != parked {
					t.Fatalf("rolled-back destroy %v: %d records parked, want %d", burst, n, parked)
				}
				if n := f.vms.len(); n != 3 {
					t.Fatalf("rolled-back destroy %v: table holds %d VMs, want 3", burst, n)
				}
			}
			if _, err := f.DestroyVMs([]string{"plain", "rider", "host"}, 0); err != nil {
				t.Fatal(err)
			}
			checkArena(t, "destroy in rider order", f)
			if n := len(f.retired); n != parked+3 {
				t.Fatalf("%d records parked after a 3-VM destroy, want %d", n, parked+3)
			}
		})
	}
}

// TestArenaBoundedByPeakLive: through seeded churn of create bursts,
// newest-first and spread destroy bursts (some rolling back on packet
// riders), the arena never holds more records than
// the facade's peak live VM count minus its live count, never holds a
// live record, and serves creates from parked records.
func TestArenaBoundedByPeakLive(t *testing.T) {
	for _, seed := range []uint64{5, 23, 71} {
		// Two ports per brick, so scale-ups run out of circuits and
		// ride each other's in packet mode.
		rack := batchPodConfig(2).Rack
		rack.Topology.PortsPerBrick = 2
		for _, x := range arenaTargets(t, rack, 3, 2, 2) {
			t.Run(fmt.Sprintf("%s/seed=%d", x.name, seed), func(t *testing.T) {
				f := x.f
				rng := sim.NewRand(seed)
				var live []string
				peak, next, reused, rollbacks := 0, 0, 0, 0
				for step := 0; step < 120; step++ {
					op := "create"
					if len(live) > 0 && rng.Uint64()%5 >= 3 {
						op = "destroy"
					}
					switch op {
					case "create":
						n := 1 + int(rng.Uint64()%4)
						reqs := make([]VMCreate, n)
						for i := range reqs {
							reqs[i] = VMCreate{
								ID:     fmt.Sprintf("vm-%d", next+i),
								VCPUs:  1 + int(rng.Uint64()%2),
								Memory: brick.GiB,
								Remote: brick.Bytes(rng.Uint64()%3) * brick.GiB,
							}
						}
						parked := len(f.retired)
						if _, err := f.CreateVMs(reqs, 0); err == nil {
							for _, r := range reqs {
								live = append(live, r.ID)
							}
							next += n
							reused += min(parked, n)
						}
					case "destroy":
						k := min(1+int(rng.Uint64()%4), len(live))
						var ids []string
						spread := rng.Uint64()%3 == 0
						for i := 0; i < k; i++ {
							if spread {
								ids = append(ids, live[i*len(live)/k])
							} else {
								ids = append(ids, live[len(live)-1-i])
							}
						}
						if _, err := f.DestroyVMs(ids, 0); err == nil {
							live = without(live, ids)
						} else {
							rollbacks++
						}
					}
					peak = max(peak, f.vms.len())
					what := fmt.Sprintf("step %d (%s)", step, op)
					checkArena(t, what, f)
					if n := f.vms.len(); n != len(live) {
						t.Fatalf("%s: table holds %d VMs, want %d", what, n, len(live))
					}
					if n := len(f.retired); n > peak-len(live) {
						t.Fatalf("%s: %d records parked, peak %d and %d live", what, n, peak, len(live))
					}
				}
				if reused == 0 || rollbacks == 0 {
					t.Fatalf("%d records reused and %d destroy bursts rolled back, want some of each", reused, rollbacks)
				}
				t.Logf("peak %d live, %d records reused, %d destroy bursts rolled back", peak, reused, rollbacks)
			})
		}
	}
}
