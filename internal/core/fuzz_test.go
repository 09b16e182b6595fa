package core

import (
	"fmt"
	"testing"

	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/scaleup"
)

// FuzzFacadeVMStack drives the pod facade's per-VM stack — burst
// create, scale-up, scale-down, working-set changes, burst destroy,
// consolidation and rebalancing — through sequences decoded from the
// input, two bytes per call (an opcode and its argument):
//
//	op%6 == 0  CreateVMs: 1+arg%3 fresh VMs of 1+(arg>>2)&1 vCPUs and
//	           GiB, (arg>>3)%3 GiB remote; arg bit 5 also names a live VM
//	1          ScaleUpVM(live[arg%n], 1+(arg>>4)&1 GiB)
//	2          ScaleDownVM(live[arg%n], GiB)
//	3          VM(live[arg%n]).SetUsage((arg>>4) × ½ GiB)
//	4          DestroyVMs of 1+arg%3 VMs, newest first (arg bit 2: an
//	           oldest-first spread instead); arg bit 3 adds a bad name —
//	           a repeat (bit 4) or an unknown VM
//	5          Consolidate (arg bit 0: RebalanceBatch)
//
// The oracle runs after every call: nothing panics, the scheduler's
// CheckInvariants passes, the facade holds exactly the VMs created
// minus those destroyed — in its own table and in the racks' Scale-up
// tables — and every held VM's bindings match its live SDM
// attachments. At the end every VM must still be destroyable. The seed
// corpus lives in testdata/fuzz/FuzzFacadeVMStack: "destroy-in-use" is
// a VM destroyed while its working set needs its remote memory, and
// "mutual-riders" two VMs whose packet riders ride each other's
// circuits.
func FuzzFacadeVMStack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		pod, err := NewPod(batchPodConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		var live []string // creation order
		next := 0
		check := func(step int, op string, callErr error) {
			t.Helper()
			if err := pod.Scheduler().CheckInvariants(); err != nil {
				t.Fatalf("step %d (%s, err %v): %v", step, op, callErr, err)
			}
			if len(pod.vmRack) != len(live) {
				t.Fatalf("step %d (%s, err %v): facade holds %d VMs, want %d", step, op, callErr, len(pod.vmRack), len(live))
			}
			held := 0
			var vms []*scaleup.VM
			for r := 0; r < pod.Racks(); r++ {
				vms = pod.stacks[r].scale.AppendVMs(vms[:0])
				held += len(vms)
			}
			if held != len(live) {
				t.Fatalf("step %d (%s, err %v): Scale-up tables hold %d VMs, want %d", step, op, callErr, held, len(live))
			}
			for _, id := range live {
				loc, ok := pod.vmRack[id]
				if !ok {
					t.Fatalf("step %d (%s, err %v): live VM %q missing from the facade", step, op, callErr, id)
				}
				scale := pod.stacks[loc.rack].scale
				if vm, ok := scale.Lookup(hypervisor.VMID(id)); !ok || vm != loc.vm {
					t.Fatalf("step %d (%s, err %v): VM %q not held by rack %d's Scale-up table", step, op, callErr, id, loc.rack)
				}
				if b, a := scale.Bindings(hypervisor.VMID(id)), len(pod.Scheduler().Attachments(id)); b != a {
					t.Fatalf("step %d (%s, err %v): VM %q binds %d attachments, SDM holds %d", step, op, callErr, id, b, a)
				}
			}
		}
		pick := func(arg byte) string { return live[int(arg)%len(live)] }

		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step]%6, data[step+1]
			if op != 0 && op != 5 && len(live) == 0 {
				continue
			}
			switch op {
			case 0:
				n := 1 + int(arg%3)
				reqs := make([]VMCreate, n)
				for i := range reqs {
					reqs[i] = VMCreate{
						ID:     fmt.Sprintf("vm-%d", next+i),
						VCPUs:  1 + int(arg>>2&1),
						Memory: brick.Bytes(1+arg>>2&1) * brick.GiB,
						Remote: brick.Bytes(arg>>3%3) * brick.GiB,
					}
				}
				if arg>>5&1 == 1 && len(live) > 0 {
					reqs = append(reqs, VMCreate{ID: pick(arg), VCPUs: 1, Memory: brick.GiB})
				}
				_, err := pod.CreateVMs(reqs, 0)
				if err == nil {
					for _, r := range reqs {
						live = append(live, r.ID)
					}
					next += n
				}
				check(step, "create", err)
			case 1:
				_, err := pod.ScaleUpVM(pick(arg), brick.Bytes(1+arg>>4&1)*brick.GiB)
				check(step, "scale-up", err)
			case 2:
				_, err := pod.ScaleDownVM(pick(arg), brick.GiB)
				check(step, "scale-down", err)
			case 3:
				vm, ok := pod.VM(pick(arg))
				if !ok {
					t.Fatalf("step %d: live VM %q has no hypervisor view", step, pick(arg))
				}
				vm.SetUsage(brick.Bytes(arg>>4) * brick.GiB / 2)
				check(step, "set-usage", nil)
			case 4:
				k := min(1+int(arg%3), len(live))
				var ids []string
				for i := 0; i < k; i++ {
					if arg>>2&1 == 1 {
						ids = append(ids, live[i*len(live)/k])
					} else {
						ids = append(ids, live[len(live)-1-i])
					}
				}
				if arg>>3&1 == 1 {
					if arg>>4&1 == 1 {
						ids = append(ids, ids[0])
					} else {
						ids = append(ids, "ghost")
					}
				}
				_, err := pod.DestroyVMs(ids, 0)
				if err == nil {
					live = without(live, ids)
				}
				check(step, "destroy", err)
			case 5:
				if arg&1 == 1 {
					pod.RebalanceBatch()
					check(step, "rebalance", nil)
				} else {
					pod.Consolidate()
					check(step, "consolidate", nil)
				}
			}
		}

		// Every VM must remain destroyable: retire them one at a time,
		// newest first, retrying those whose circuits still carry a
		// younger VM's packet riders. Two VMs riding each other's
		// circuits free one another by scaling down first.
		for len(live) > 0 {
			progress := false
			for i := len(live) - 1; i >= 0; i-- {
				id := live[i]
				if _, err := pod.DestroyVM(id); err == nil {
					live = without(live, []string{id})
					progress = true
				}
				check(-1, "drain", nil)
			}
			if progress {
				continue
			}
			for _, id := range live {
				vm, _ := pod.VM(id)
				vm.SetUsage(0)
				for {
					_, err := pod.ScaleDownVM(id, 1)
					check(-1, "drain scale-down", err)
					if err != nil {
						break
					}
					progress = true
				}
			}
			if !progress {
				_, err := pod.DestroyVM(live[len(live)-1])
				t.Fatalf("drain stuck with %d VMs left: %v", len(live), err)
			}
		}
	})
}

// without returns live minus the named VMs, in order.
func without(live, ids []string) []string {
	kept := live[:0]
	for _, id := range live {
		gone := false
		for _, g := range ids {
			gone = gone || g == id
		}
		if !gone {
			kept = append(kept, id)
		}
	}
	return kept
}
