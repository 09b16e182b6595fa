package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/brick"
	"repro/internal/hypervisor"
)

// stackFacade is the slice of the pod and row facades the per-VM stack
// tests drive, so each test runs on both.
type stackFacade struct {
	name        string
	target      PipelineTarget
	vm          func(id string) (*hypervisor.VM, bool)
	rack        func(id string) (int, bool)
	consolidate func() (moved int)
	scaleDown   func(id string, size brick.Bytes) error
	check       func() error
}

// stackFacades builds a pod of racks batch racks and a one-pod row of
// the same racks.
func stackFacades(t *testing.T, racks int) []stackFacade {
	t.Helper()
	pod, err := NewPod(batchPodConfig(racks))
	if err != nil {
		t.Fatal(err)
	}
	rowCfg := DefaultRowConfig(1, racks)
	rowCfg.Rack = batchPodConfig(racks).Rack
	row, err := NewRow(rowCfg)
	if err != nil {
		t.Fatal(err)
	}
	return []stackFacade{
		{
			name: "pod", target: pod, vm: pod.VM, rack: pod.VMRack,
			consolidate: func() int { return pod.Consolidate().VMsMoved },
			scaleDown: func(id string, size brick.Bytes) error {
				_, err := pod.ScaleDownVM(id, size)
				return err
			},
			check: pod.Scheduler().CheckInvariants,
		},
		{
			name: "row", target: row, vm: row.VM,
			rack: func(id string) (int, bool) {
				_, rack, ok := row.VMLoc(id)
				return rack, ok
			},
			consolidate: func() int { return row.Consolidate().VMsMoved },
			scaleDown: func(id string, size brick.Bytes) error {
				_, err := row.ScaleDownVM(id, size)
				return err
			},
			check: row.Scheduler().CheckInvariants,
		},
	}
}

// TestDestroyIgnoresWorkingSet: a VM whose recorded working set needs
// its remote memory is still destroyed — teardown must not apply the
// scale-down guard after the SDM teardown has committed — and its name
// is free again afterwards.
func TestDestroyIgnoresWorkingSet(t *testing.T) {
	for _, f := range stackFacades(t, 2) {
		t.Run(f.name, func(t *testing.T) {
			req := []VMCreate{{ID: "a", VCPUs: 1, Memory: brick.GiB, Remote: 2 * brick.GiB}}
			if _, err := f.target.CreateVMs(req, 0); err != nil {
				t.Fatal(err)
			}
			vm, ok := f.vm("a")
			if !ok {
				t.Fatal("VM a not created")
			}
			vm.SetUsage(2 * brick.GiB)
			if err := f.scaleDown("a", 2*brick.GiB); err == nil {
				t.Fatal("scale-down below the working set succeeded")
			}
			if _, err := f.target.DestroyVMs([]string{"a"}, 0); err != nil {
				t.Fatalf("destroy of a VM using its remote memory: %v", err)
			}
			if _, ok := f.vm("a"); ok {
				t.Fatal("destroyed VM still in the facade")
			}
			if _, ok := f.rack("a"); ok {
				t.Fatal("destroyed VM still placed")
			}
			if err := f.check(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.target.CreateVMs(req, 0); err != nil {
				t.Fatalf("re-create after destroy: %v", err)
			}
		})
	}
}

// TestConsolidateMovesTheSameVM: a consolidation move hands the VM's one
// record to the destination rack, so the facade's VM(id) returns the
// same *hypervisor.VM before and after, with its DIMMs, usage and guest
// kernel intact — the moved VM can still release a DIMM through its
// guest.
func TestConsolidateMovesTheSameVM(t *testing.T) {
	for _, f := range stackFacades(t, 2) {
		t.Run(f.name, func(t *testing.T) {
			// Rack 0's 16 cores take four 4-vCPU VMs; the fifth lands on
			// rack 1.
			var reqs []VMCreate
			for i := 0; i < 5; i++ {
				reqs = append(reqs, VMCreate{ID: fmt.Sprintf("vm-%d", i), VCPUs: 4, Memory: brick.GiB, Remote: brick.GiB})
			}
			if _, err := f.target.CreateVMs(reqs, 0); err != nil {
				t.Fatal(err)
			}
			stranded := ""
			var onRack0 []string
			for _, r := range reqs {
				if rack, _ := f.rack(r.ID); rack == 1 {
					stranded = r.ID
				} else {
					onRack0 = append(onRack0, r.ID)
				}
			}
			if stranded == "" || len(onRack0) < 2 {
				t.Fatalf("want one VM on rack 1, got stranded %q, rack 0 %v", stranded, onRack0)
			}
			vm, _ := f.vm(stranded)
			dimms, total := vm.DIMMs(), vm.TotalMemory()
			vm.SetUsage(brick.GiB / 2)

			if _, err := f.target.DestroyVMs(onRack0[:2], 0); err != nil {
				t.Fatal(err)
			}
			if moved := f.consolidate(); moved < 1 {
				t.Fatal("no VM re-packed")
			}
			if rack, _ := f.rack(stranded); rack != 0 {
				t.Fatalf("stranded VM still on rack %d", rack)
			}
			after, ok := f.vm(stranded)
			if !ok || after != vm {
				t.Fatalf("VM(%q) after the move = %p, want the same object %p", stranded, after, vm)
			}
			if !slices.Equal(after.DIMMs(), dimms) || after.TotalMemory() != total ||
				after.Usage() != brick.GiB/2 || after.State() != hypervisor.StateRunning {
				t.Fatalf("moved VM changed: DIMMs %v (was %v), total %v (was %v), usage %v, %v",
					after.DIMMs(), dimms, after.TotalMemory(), total, after.Usage(), after.State())
			}
			if err := f.check(); err != nil {
				t.Fatal(err)
			}
			if err := f.scaleDown(stranded, brick.GiB); err != nil {
				t.Fatalf("moved VM cannot release its DIMM: %v", err)
			}
			if len(after.DIMMs()) != len(dimms)-1 {
				t.Fatalf("moved VM holds %d DIMMs after a release, want %d", len(after.DIMMs()), len(dimms)-1)
			}
		})
	}
}
