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
//	           GiB, (arg>>3)%3 GiB remote; arg bit 5 also names a live VM;
//	           arg bit 7 names them after the most recently destroyed
//	           VMs, newest first, while there are any
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
// tables — its table's slot list is consistent, and every held VM's
// bindings match its live SDM attachments. Every VM a create burst
// boots, most of them into records a destroy retired, shows only its
// own spec: running, no usage or balloon, and no DIMM but its bundled
// remote. At the end every VM must still be destroyable. The seed
// corpus lives in testdata/fuzz/FuzzFacadeVMStack: "destroy-in-use" is
// a VM destroyed while its working set needs its remote memory,
// "mutual-riders" two VMs whose packet riders ride each other's
// circuits, and "recycle-reused-names" VMs grown past their inline
// slots, destroyed and recreated under the same names.
func FuzzFacadeVMStack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pod, err := NewPod(batchPodConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		fuzzVMStack(t, data, fuzzTarget{
			facade:     pod,
			table:      &pod.vms,
			invariants: pod.Scheduler().CheckInvariants,
			attachments: func(id string) int {
				return len(pod.Scheduler().Attachments(id))
			},
			scale: func(_, rack int32) *scaleup.Controller { return pod.stacks[rack].scale },
			racks: func(dst []*scaleup.Controller) []*scaleup.Controller {
				for _, stack := range pod.stacks {
					dst = append(dst, stack.scale)
				}
				return dst
			},
			maintain: func(arg byte) string {
				if arg&1 == 1 {
					pod.RebalanceBatch()
					return "rebalance"
				}
				pod.Consolidate()
				return "consolidate"
			},
		})
	})
}

// FuzzRowFacadeVMStack is FuzzFacadeVMStack's decoder and oracle on the
// row facade, a 2-pod × 2-rack row, so bursts partition across pods and
// remote memory spills cross-rack and cross-pod. Opcode 5 is
// Consolidate (arg bit 0: PowerOffIdle, so later bursts power bricks
// back on). The seed corpus lives in
// testdata/fuzz/FuzzRowFacadeVMStack.
func FuzzRowFacadeVMStack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultRowConfig(2, 2)
		cfg.Rack = batchPodConfig(2).Rack
		row, err := NewRow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fuzzVMStack(t, data, fuzzTarget{
			facade:     row,
			table:      &row.vms,
			invariants: row.Scheduler().CheckInvariants,
			attachments: func(id string) int {
				return len(row.Scheduler().Attachments(id))
			},
			scale: func(pod, rack int32) *scaleup.Controller { return row.stacks[pod][rack].scale },
			racks: func(dst []*scaleup.Controller) []*scaleup.Controller {
				for _, pod := range row.stacks {
					for _, stack := range pod {
						dst = append(dst, stack.scale)
					}
				}
				return dst
			},
			maintain: func(arg byte) string {
				if arg&1 == 1 {
					row.PowerOffIdle()
					return "power-off-idle"
				}
				row.Consolidate()
				return "consolidate"
			},
		})
	})
}

// fuzzFacade is the facade surface the fuzz decoder drives.
type fuzzFacade interface {
	PipelineTarget
	DestroyVM(id string) (scaleup.Result, error)
	ScaleUpVM(id string, size brick.Bytes) (scaleup.Result, error)
	ScaleDownVM(id string, size brick.Bytes) (scaleup.Result, error)
	VM(id string) (*hypervisor.VM, bool)
}

// fuzzTarget is one facade under fuzzing, with the views its oracle
// reads.
type fuzzTarget struct {
	facade      fuzzFacade
	table       *vmTable
	invariants  func() error
	attachments func(id string) int
	// scale returns the Scale-up controller of a slot's pod and rack.
	scale func(pod, rack int32) *scaleup.Controller
	// racks appends every rack's Scale-up controller to dst.
	racks func(dst []*scaleup.Controller) []*scaleup.Controller
	// maintain runs opcode 5 and names what it ran.
	maintain func(arg byte) string
}

// fuzzVMStack decodes data into facade calls on x and checks the
// oracle after each; see FuzzFacadeVMStack.
func fuzzVMStack(t *testing.T, data []byte, x fuzzTarget) {
	if len(data) > 128 {
		data = data[:128]
	}
	f := x.facade
	var live []string // creation order
	var gone []string // destruction order
	next := 0
	racks := x.racks(nil)
	check := func(step int, op string, callErr error) {
		t.Helper()
		if err := x.invariants(); err != nil {
			t.Fatalf("step %d (%s, err %v): %v", step, op, callErr, err)
		}
		if err := x.table.consistent(); err != nil {
			t.Fatalf("step %d (%s, err %v): facade table: %v", step, op, callErr, err)
		}
		if n := x.table.len(); n != len(live) {
			t.Fatalf("step %d (%s, err %v): facade holds %d VMs, want %d", step, op, callErr, n, len(live))
		}
		held := 0
		var vms []*scaleup.VM
		for _, scale := range racks {
			vms = scale.AppendVMs(vms[:0])
			held += len(vms)
		}
		if held != len(live) {
			t.Fatalf("step %d (%s, err %v): Scale-up tables hold %d VMs, want %d", step, op, callErr, held, len(live))
		}
		for _, id := range live {
			s, ok := x.table.find(id)
			if !ok {
				t.Fatalf("step %d (%s, err %v): live VM %q missing from the facade", step, op, callErr, id)
			}
			loc := x.table.at(s)
			scale := x.scale(loc.pod, loc.rack)
			if vm, ok := scale.Lookup(hypervisor.VMID(id)); !ok || vm != loc.vm {
				t.Fatalf("step %d (%s, err %v): VM %q not held by pod %d rack %d's Scale-up table", step, op, callErr, id, loc.pod, loc.rack)
			}
			if b, a := scale.Bindings(hypervisor.VMID(id)), x.attachments(id); b != a {
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
			reused := 0
			if arg>>7 == 1 {
				reused = min(n, len(gone))
			}
			for i := range reqs {
				id := fmt.Sprintf("vm-%d", next+i)
				if i < reused {
					id = gone[len(gone)-1-i]
				}
				reqs[i] = VMCreate{
					ID:     id,
					VCPUs:  1 + int(arg>>2&1),
					Memory: brick.Bytes(1+arg>>2&1) * brick.GiB,
					Remote: brick.Bytes(arg>>3%3) * brick.GiB,
				}
			}
			if arg>>5&1 == 1 && len(live) > 0 {
				reqs = append(reqs, VMCreate{ID: pick(arg), VCPUs: 1, Memory: brick.GiB})
			}
			_, err := f.CreateVMs(reqs, 0)
			if err == nil {
				for _, r := range reqs {
					live = append(live, r.ID)
				}
				gone = gone[:len(gone)-reused]
				next += n
			}
			check(step, "create", err)
			for _, r := range reqs[:n] {
				if err != nil {
					break
				}
				vm, _ := f.VM(r.ID)
				dimms := 0
				if r.Remote > 0 {
					dimms = 1
				}
				if vm.Spec != (hypervisor.VMSpec{VCPUs: r.VCPUs, Memory: r.Memory}) || vm.State() != hypervisor.StateRunning ||
					vm.Usage() != 0 || vm.Ballooned() != 0 || len(vm.DIMMs()) != dimms || vm.TotalMemory() != r.Memory+r.Remote {
					t.Fatalf("step %d: created VM %q shows %+v, %v, usage %v, ballooned %v, DIMMs %v",
						step, r.ID, vm.Spec, vm.State(), vm.Usage(), vm.Ballooned(), vm.DIMMs())
				}
			}
		case 1:
			_, err := f.ScaleUpVM(pick(arg), brick.Bytes(1+arg>>4&1)*brick.GiB)
			check(step, "scale-up", err)
		case 2:
			_, err := f.ScaleDownVM(pick(arg), brick.GiB)
			check(step, "scale-down", err)
		case 3:
			vm, ok := f.VM(pick(arg))
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
			_, err := f.DestroyVMs(ids, 0)
			if err == nil {
				live = without(live, ids)
				gone = append(gone, ids...)
			}
			check(step, "destroy", err)
		case 5:
			check(step, x.maintain(arg), nil)
		}
	}

	// Every VM must remain destroyable: retire them one at a time,
	// newest first, retrying those whose circuits still carry a
	// younger VM's packet riders. Two VMs riding each other's circuits
	// free one another by scaling down first.
	for len(live) > 0 {
		progress := false
		for i := len(live) - 1; i >= 0; i-- {
			id := live[i]
			if _, err := f.DestroyVM(id); err == nil {
				live = without(live, []string{id})
				progress = true
			}
			check(-1, "drain", nil)
		}
		if progress {
			continue
		}
		for _, id := range live {
			vm, _ := f.VM(id)
			vm.SetUsage(0)
			for {
				_, err := f.ScaleDownVM(id, 1)
				check(-1, "drain scale-down", err)
				if err != nil {
					break
				}
				progress = true
			}
		}
		if !progress {
			_, err := f.DestroyVM(live[len(live)-1])
			t.Fatalf("drain stuck with %d VMs left: %v", len(live), err)
		}
	}
}

// consistent checks the table's slot list against its name index:
// every name maps to a distinct slot holding a VM of that name, every
// other slot is on the free list exactly once and holds nothing, and
// no burst stamp lies ahead of the table's.
func (t *vmTable) consistent() error {
	if n, want := len(t.index)+len(t.free), len(t.slots); n != want {
		return fmt.Errorf("%d names + %d free slots, want %d slots", len(t.index), len(t.free), want)
	}
	owner := make([]string, len(t.slots))
	for id, s := range t.index {
		if s < 0 || int(s) >= len(t.slots) {
			return fmt.Errorf("VM %q maps to slot %d of %d", id, s, len(t.slots))
		}
		if owner[s] != "" {
			return fmt.Errorf("VMs %q and %q share slot %d", owner[s], id, s)
		}
		owner[s] = id
		slot := t.slots[s]
		if slot.vm == nil || string(slot.vm.ID) != id {
			return fmt.Errorf("slot %d of VM %q holds %v", s, id, slot.vm)
		}
		if slot.stamp > t.stamp {
			return fmt.Errorf("slot %d of VM %q stamped %d, table at %d", s, id, slot.stamp, t.stamp)
		}
	}
	freed := make([]bool, len(t.slots))
	for _, s := range t.free {
		if s < 0 || int(s) >= len(t.slots) {
			return fmt.Errorf("free slot %d of %d", s, len(t.slots))
		}
		if freed[s] || owner[s] != "" {
			return fmt.Errorf("free slot %d is listed twice or owned by %q", s, owner[s])
		}
		freed[s] = true
		if t.slots[s] != (vmSlot{}) {
			return fmt.Errorf("free slot %d is not zeroed: %+v", s, t.slots[s])
		}
	}
	return nil
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
