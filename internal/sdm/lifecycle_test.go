package sdm

import (
	"testing"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/topo"
)

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{
		OpAttach: "attach", OpRepoint: "re-point",
		OpRehome: "re-home", OpPromote: "promote", OpKind(99): "op",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestAttachRollsBackOnWindowFailure drives an attach plan into its
// last fallible step — the TGL window install — and checks the engine
// unwinds everything: ports, segment and circuit all return to the
// pre-op state, and the rack keeps working.
func TestAttachRollsBackOnWindowFailure(t *testing.T) {
	rack, err := topo.Build(topo.BuildSpec{
		Trays: 1, ComputePerTray: 1, MemoryPerTray: 1, AccelPerTray: 0, PortsPerBrick: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := optical.NewSwitch(optical.Polatis48)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig
	cfg.RMSTCapacity = 1 // one window per brick; the second attach fails late
	c, err := NewController(rack, optical.NewFabric(sw), BrickConfigs{
		Memory: brick.MemoryConfig{Capacity: 8 * brick.GiB},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _, err := c.ReserveCompute("vm", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	att, _, err := c.AttachRemoteMemory("vm", cpu, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := c.Compute(cpu)
	mem, _ := c.Memory(att.Segment.Brick)
	cpuFree, memFree := node.Brick.Ports.Free(), mem.Ports.Free()
	gap, circuits := mem.LargestGap(), c.fabric.LiveCircuits()
	_, failsBefore := c.Stats()

	if _, _, err := c.AttachRemoteMemory("vm", cpu, brick.GiB); err == nil {
		t.Fatal("attach into a full RMST accepted")
	}
	if _, fails := c.Stats(); fails != failsBefore+1 {
		t.Fatalf("failures = %d, want %d", fails, failsBefore+1)
	}
	if got := node.Brick.Ports.Free(); got != cpuFree {
		t.Fatalf("CPU ports free = %d after rollback, want %d", got, cpuFree)
	}
	if got := mem.Ports.Free(); got != memFree {
		t.Fatalf("memory ports free = %d after rollback, want %d", got, memFree)
	}
	if got := mem.LargestGap(); got != gap {
		t.Fatalf("largest gap = %v after rollback, want %v", got, gap)
	}
	if got := c.fabric.LiveCircuits(); got != circuits {
		t.Fatalf("live circuits = %d after rollback, want %d", got, circuits)
	}
	if len(c.Attachments("vm")) != 1 {
		t.Fatal("phantom attachment registered")
	}
	// The surviving attachment still tears down cleanly.
	if _, err := c.DetachRemoteMemory(att); err != nil {
		t.Fatal(err)
	}
}
