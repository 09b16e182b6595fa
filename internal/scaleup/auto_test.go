package scaleup

import (
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/trace"
)

func autoSetup(t *testing.T) (*Controller, *AutoScaler) {
	t.Helper()
	c := testController(t)
	c.CreateVM(0, "vm1", hypervisor.VMSpec{VCPUs: 1, Memory: 2 * brick.GiB})
	c.SDM().PowerOnAll()
	a, err := NewAutoScaler(c, hypervisor.OOMGuard{HeadroomFraction: 0.9, StepSize: brick.GiB})
	if err != nil {
		t.Fatal(err)
	}
	return c, a
}

func TestAutoScalerValidation(t *testing.T) {
	c := testController(t)
	if _, err := NewAutoScaler(nil, hypervisor.DefaultOOMGuard); err == nil {
		t.Fatal("nil controller accepted")
	}
	if _, err := NewAutoScaler(c, hypervisor.OOMGuard{HeadroomFraction: 0, StepSize: brick.GiB}); err == nil {
		t.Fatal("zero headroom accepted")
	}
	if _, err := NewAutoScaler(c, hypervisor.OOMGuard{HeadroomFraction: 0.9}); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestAutoScalerGrowsBeforeOOM(t *testing.T) {
	c, a := autoSetup(t)
	vm, _ := c.VM("vm1")
	vm.SetUsage(2 * brick.GiB * 95 / 100) // above the 90% guard line
	res, err := a.Tick(sim.Time(sim.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleUps == 0 {
		t.Fatal("auto-scaler did not grow a near-OOM VM")
	}
	if vm.AvailableMemory() <= 2*brick.GiB {
		t.Fatal("VM memory did not grow")
	}
	// Guard satisfied now: usage below 90% of available.
	if float64(vm.Usage()) > 0.9*float64(vm.AvailableMemory()) {
		t.Fatalf("guard still firing: usage %v of %v", vm.Usage(), vm.AvailableMemory())
	}
	if res.WorstDelay <= 0 {
		t.Fatal("no delay recorded")
	}
}

func TestAutoScalerBoundedPerTick(t *testing.T) {
	c, a := autoSetup(t)
	a.MaxStepsPerVM = 2
	vm, _ := c.VM("vm1")
	// Usage so high that satisfying the guard needs many steps.
	vm.SetUsage(30 * brick.GiB)
	res, err := a.Tick(sim.Time(sim.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleUps != 2 {
		t.Fatalf("scale-ups = %d, want MaxStepsPerVM=2", res.ScaleUps)
	}
}

func TestAutoScalerShrinksIdleVMs(t *testing.T) {
	c, a := autoSetup(t)
	vm, _ := c.VM("vm1")
	// Grow first.
	vm.SetUsage(2 * brick.GiB)
	if _, err := c.ScaleUp(sim.Time(sim.Hour), "vm1", 6*brick.GiB); err != nil {
		t.Fatal(err)
	}
	// Usage collapses: 8 GiB available, 1 GiB used, shrink factor 3.
	vm.SetUsage(brick.GiB)
	res, err := a.Tick(sim.Time(2 * sim.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleDowns == 0 {
		t.Fatal("auto-scaler did not shrink an idle VM")
	}
	if vm.AvailableMemory() >= 8*brick.GiB {
		t.Fatal("VM memory did not shrink")
	}
	// Never below usage or boot memory.
	if vm.AvailableMemory() < vm.Usage() || vm.AvailableMemory() < vm.Spec.Memory {
		t.Fatalf("shrunk too far: %v", vm.AvailableMemory())
	}
}

func TestAutoScalerSkipsStoppedVMs(t *testing.T) {
	c, a := autoSetup(t)
	vm, _ := c.VM("vm1")
	vm.SetUsage(2 * brick.GiB)
	host, _ := c.VMHost("vm1")
	c.nodeAt(host).hv.Stop(vm)
	res, err := a.Tick(sim.Time(sim.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleUps != 0 {
		t.Fatal("auto-scaler touched a stopped VM")
	}
}

func TestJournalRecordsElasticity(t *testing.T) {
	c, a := autoSetup(t)
	j, err := trace.New(64)
	if err != nil {
		t.Fatal(err)
	}
	c.SetJournal(j)
	if c.Journal() != j {
		t.Fatal("journal not attached")
	}
	vm, _ := c.VM("vm1")
	vm.SetUsage(2 * brick.GiB * 95 / 100)
	if _, err := a.Tick(sim.Time(sim.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(j.Filter(trace.KindAttach)) == 0 {
		t.Fatal("no attach events journaled")
	}
	if len(j.Subject("vm1")) == 0 {
		t.Fatal("no vm1 events journaled")
	}
	if !strings.Contains(j.Dump(), "auto +") {
		t.Fatalf("journal missing auto-scale entry:\n%s", j.Dump())
	}
}

func TestAutoScalerStats(t *testing.T) {
	c, a := autoSetup(t)
	vm, _ := c.VM("vm1")
	vm.SetUsage(2 * brick.GiB)
	a.Tick(sim.Time(sim.Hour))
	ups, _, _ := a.Stats()
	if ups == 0 {
		t.Fatal("stats not recorded")
	}
}
