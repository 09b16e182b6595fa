package sdm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// attachDiffRow builds the differential test's row: 3 pods of 3 racks,
// each rack two compute and two 8 GiB memory bricks with 4 ports each.
// Two uplinks per rack and per pod keep uplink exhaustion reachable.
func attachDiffRow(t *testing.T, cfg Config) *RowScheduler {
	t.Helper()
	const pods, racks = 3, 3
	row, err := topo.BuildRow(pods, racks, topo.BuildSpec{
		Trays: 1, ComputePerTray: 2, MemoryPerTray: 2, PortsPerBrick: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	podProf := optical.DefaultPodProfile
	podProf.UplinksPerRack = 2
	rowProf := optical.DefaultRowProfile
	rowProf.UplinksPerPod = 2
	podFabrics := make([]*optical.PodFabric, pods)
	for p := range podFabrics {
		fabrics := make([]*optical.Fabric, racks)
		for i := range fabrics {
			sw, err := optical.NewSwitch(optical.SwitchConfig{
				Ports: 32, InsertionLossDB: 1, PortPowerW: 0.1, ReconfigTime: 25 * sim.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			fabrics[i] = optical.NewFabric(sw)
		}
		if podFabrics[p], err = optical.NewPodFabric(podProf, fabrics); err != nil {
			t.Fatal(err)
		}
	}
	rf, err := optical.NewRowFabric(rowProf, podFabrics)
	if err != nil {
		t.Fatal(err)
	}
	bc := BrickConfigs{
		Compute: brick.ComputeConfig{Cores: 8, LocalMemory: 8 * brick.GiB},
		Memory:  brick.MemoryConfig{Capacity: 8 * brick.GiB},
	}
	s, err := NewRowScheduler(row, rf, bc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compute bricks run (the VMs live there); memory bricks keep the
	// policy's power state, so attaches still boot them.
	for _, p := range s.pods {
		for _, c := range p.racks {
			for pos, node := range c.computes {
				node.Brick.PowerOn()
				c.touchCompute(c.computeOrder[pos])
			}
		}
	}
	return s
}

// Attach tiers the differential test drives.
const (
	tierRack = iota
	tierPod
	tierRow
	nTiers
)

var tierNames = [nTiers]string{"rack", "pod", "row"}

// Faults injected before an attach, each restored right after it.
const (
	faultNone       = iota
	faultCPUPorts   // every free port of the compute brick held
	faultPick       // a request larger than any memory brick
	faultCarve      // every running memory brick's gaps filled behind the index's back
	faultMemPorts   // every memory brick's free ports held behind the index's back
	faultUplinks    // every free uplink of the home rack (pod tier) or pod (row tier) busy
	faultRackSwitch // rack switch ports behind the compute brick's free ports failed
	faultTierSwitch // the home's free uplink ports on the pod or row switch failed
	faultTGL        // a window squatting on the compute brick's next TGL base
	nFaults
)

var faultNames = [nFaults]string{"none", "cpu-ports", "pick", "carve", "mem-ports", "uplinks", "rack-switch", "tier-switch", "tgl"}

// faultReaches reports whether a fault can reach the given tier's
// commit: rack switch faults only affect rack-local circuits, uplinks
// and tier switches only cross-tier ones.
func faultReaches(fault, tier int) bool {
	switch fault {
	case faultUplinks, faultTierSwitch:
		return tier != tierRack
	case faultRackSwitch:
		return tier == tierRack
	}
	return true
}

// brickSwitchPort returns the rack switch port a brick port is patched
// into: the fabric patches ports in rack brick order.
func brickSwitchPort(c *Controller, p topo.PortID) int {
	idx := 0
	for _, b := range c.rack.Bricks() {
		for port := 0; port < b.Spec.Ports; port++ {
			if (topo.PortID{Brick: b.ID, Port: port}) == p {
				return idx
			}
			idx++
		}
	}
	return -1
}

// inject applies one fault to s ahead of an attach from home and
// returns its undo. It is deterministic in the scheduler's state, so
// twin schedulers receive the same fault. all selects the heavier
// variant where there is one (every port behind the compute brick
// failed rather than the first).
func inject(t *testing.T, s *RowScheduler, fault, tier int, home topo.RowBrickID, size brick.Bytes, all bool) func() {
	t.Helper()
	rackA := s.pods[home.Pod].racks[home.Rack]
	node := rackA.compute(home.Brick)
	switch fault {
	case faultCPUPorts:
		var held []topo.PortID
		for {
			p, err := node.Brick.Ports.Acquire()
			if err != nil {
				break
			}
			held = append(held, p)
		}
		return func() {
			for _, p := range held {
				node.Brick.Ports.Release(p)
			}
		}
	case faultCarve:
		type filler struct {
			c   *Controller
			m   *brick.Memory
			seg *brick.Segment
		}
		var fill []filler
		s.eachMemory(func(c *Controller, m *brick.Memory) {
			for m.State() != brick.PowerOff && m.LargestGap() >= size {
				seg, err := m.Carve(m.LargestGap(), "stale")
				if err != nil {
					t.Fatal(err)
				}
				fill = append(fill, filler{c, m, seg})
			}
		})
		return func() {
			for _, f := range fill {
				if err := f.m.Release(f.seg); err != nil {
					t.Fatal(err)
				}
				f.c.touchMemory(f.m.ID)
			}
		}
	case faultMemPorts:
		type hold struct {
			c *Controller
			m *brick.Memory
			p topo.PortID
		}
		var held []hold
		s.eachMemory(func(c *Controller, m *brick.Memory) {
			for {
				p, err := m.Ports.Acquire()
				if err != nil {
					break
				}
				held = append(held, hold{c, m, p})
			}
		})
		return func() {
			for _, h := range held {
				if err := h.m.Ports.Release(h.p); err != nil {
					t.Fatal(err)
				}
				h.c.touchMemory(h.m.ID)
			}
		}
	case faultRackSwitch:
		sw := rackA.fabric.Switch()
		var failed []int
		for i := 0; i < node.Brick.Ports.Total(); i++ {
			if node.Brick.Ports.InUse(i) {
				continue
			}
			// The reference plan's recovery releases the zero PortID when
			// every replacement fails; on brick {0,0} that is port 0, so
			// keep a live port 0 out of reach (see
			// TestAttachRecoveryKeepsLivePort).
			if all && home.Brick == (topo.BrickID{}) && node.Brick.Ports.InUse(0) {
				all = false
			}
			sp := brickSwitchPort(rackA, topo.PortID{Brick: home.Brick, Port: i})
			if sw.PortFailed(sp) {
				continue
			}
			if err := sw.FailPort(sp); err != nil {
				t.Fatal(err)
			}
			failed = append(failed, sp)
			if !all {
				break
			}
		}
		return func() {
			for _, sp := range failed {
				sw.RestorePort(sp)
			}
		}
	case faultTierSwitch:
		sw, first, n := s.pods[home.Pod].fabric.PodSwitch(), home.Rack*2, 2
		if tier == tierRow {
			sw, first = s.fabric.RowSwitch(), home.Pod*2
		}
		var failed []int
		for p := first; p < first+n; p++ {
			if _, busy := sw.PeerOf(p); busy || sw.PortFailed(p) {
				continue
			}
			if err := sw.FailPort(p); err != nil {
				t.Fatal(err)
			}
			failed = append(failed, p)
		}
		return func() {
			for _, p := range failed {
				sw.RestorePort(p)
			}
		}
	case faultUplinks:
		if tier != tierRack {
			return occupyUplinks(t, s, tier, home)
		}
	case faultTGL:
		base := node.nextWindow
		if node.Agent.Glue.Attach(tgl.Entry{Base: base, Size: uint64(brick.GiB), Dest: home.Brick}) != nil {
			return func() {}
		}
		return func() {
			if err := node.Agent.Glue.Detach(base); err != nil {
				t.Fatal(err)
			}
		}
	}
	return func() {}
}

// spareMemPort holds a free port of one of c's memory bricks behind the
// index's back, reporting false when none has one.
func spareMemPort(c *Controller) (*brick.Memory, topo.PortID, bool) {
	for _, m := range c.memories {
		if p, err := m.Ports.Acquire(); err == nil {
			return m, p, true
		}
	}
	return nil, topo.PortID{}, false
}

// occupyUplinks fills every free uplink of the home rack's pod switch
// (pod tier) or the home pod's row switch (row tier) with circuits
// between spare memory-brick ports, and returns their teardown.
func occupyUplinks(t *testing.T, s *RowScheduler, tier int, home topo.RowBrickID) func() {
	t.Helper()
	type end struct {
		c *Controller
		m *brick.Memory
		p topo.PortID
	}
	type held struct {
		circuit *optical.Circuit
		a, b    end
	}
	var circuits []held
	pf := s.pods[home.Pod].fabric
	free := func() int {
		if tier == tierPod {
			return pf.FreeUplinks(home.Rack)
		}
		return s.fabric.FreeUplinks(home.Pod)
	}
	for free() > 0 {
		// The far end: the first other rack (pod tier) or pod (row tier)
		// with a free uplink and a spare memory port.
		a := end{c: s.pods[home.Pod].racks[home.Rack]}
		var b end
		farPod, farRack := -1, -1
		for p := range s.pods {
			for r, c := range s.pods[p].racks {
				if farPod >= 0 || (tier == tierPod && (p != home.Pod || r == home.Rack)) ||
					(tier == tierRow && p == home.Pod) {
					continue
				}
				if tier == tierPod && pf.FreeUplinks(r) == 0 || tier == tierRow && s.fabric.FreeUplinks(p) == 0 {
					continue
				}
				var ok bool
				if b.m, b.p, ok = spareMemPort(c); ok {
					b.c, farPod, farRack = c, p, r
				}
			}
		}
		var ok bool
		if a.m, a.p, ok = spareMemPort(a.c); !ok || farPod < 0 {
			if ok {
				a.m.Ports.Release(a.p)
			}
			if farPod >= 0 {
				b.m.Ports.Release(b.p)
			}
			break
		}
		var c *optical.Circuit
		var err error
		if tier == tierPod {
			c, _, err = pf.ConnectCross(home.Rack, a.p, farRack, b.p)
		} else {
			c, _, err = s.fabric.ConnectCross(home.Pod, home.Rack, a.p, farPod, farRack, b.p)
		}
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, held{c, a, b})
	}
	return func() {
		for _, h := range circuits {
			var err error
			if tier == tierPod {
				_, err = pf.DisconnectCross(h.circuit)
			} else {
				_, err = s.fabric.DisconnectCross(h.circuit)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []end{h.a, h.b} {
				if err := e.m.Ports.Release(e.p); err != nil {
					t.Fatal(err)
				}
				e.c.touchMemory(e.m.ID)
			}
		}
	}
}

// eachMemory visits every memory brick of the row with its rack.
func (s *RowScheduler) eachMemory(fn func(c *Controller, m *brick.Memory)) {
	for _, p := range s.pods {
		for _, c := range p.racks {
			for _, m := range c.memories {
				fn(c, m)
			}
		}
	}
}

// attachDiffState renders every observable field of an attachment.
func attachDiffState(a *Attachment) string {
	if a == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s cpu=%v seg=%v+%v@%v ports=%v/%v win=%+v mode=%v rack=%d/%d pod=%d/%d hops=%d fiber=%v ends=%v/%v riders=%d cross=%t/%t seq=%d",
		a.Owner, a.CPU, a.Segment.Offset, a.Segment.Size, a.Segment.Brick, a.CPUPort, a.MemPort, a.Window,
		a.Mode, a.CPURack, a.MemRack, a.CPUPod, a.MemPod, a.Circuit.Hops, a.Circuit.FiberMeters,
		a.Circuit.A, a.Circuit.B, a.Circuit.Riders, a.spill != nil && a.spill.level == podLevel, a.spill != nil && a.spill.level == rowLevel, a.seq)
}

// attachDiffFingerprint is the row's full observable state: every
// rack's snapshot with its counters, every tier's counters, uplink and
// circuit censuses, and every switch's failed-port count.
func attachDiffFingerprint(t *testing.T, s *RowScheduler) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(rowFingerprint(t, s, true))
	req, fail, spill := s.Stats()
	fmt.Fprintf(&b, "row=%d/%d/%d failed=%d\n", req, fail, spill, s.fabric.RowSwitch().FailedPorts())
	for p, ps := range s.pods {
		req, fail, spill := ps.Stats()
		fmt.Fprintf(&b, "pod%d=%d/%d/%d cross=%d failed=%d uplinks=", p, req, fail, spill,
			ps.fabric.CrossCircuits(), ps.fabric.PodSwitch().FailedPorts())
		for r, c := range ps.racks {
			fmt.Fprintf(&b, "%d,", ps.fabric.FreeUplinks(r))
			fmt.Fprintf(&b, "[sw%d failed=%d live=%d]", r, c.fabric.Switch().FailedPorts(), c.fabric.LiveCircuits())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// attachCall runs one attach at the given tier, through the inline
// commit or the reference plan, and tags the result the way the tier's
// public entry point does.
func attachCall(s *RowScheduler, ref bool, tier int, owner string, home topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	podA := s.pods[home.Pod]
	var (
		att *Attachment
		lat sim.Duration
		err error
	)
	switch tier {
	case tierRack:
		if ref {
			att, lat, err = refAttachRack(podA.racks[home.Rack], owner, home.Brick, size)
		} else {
			att, lat, err = podA.racks[home.Rack].AttachRemoteMemory(owner, home.Brick, size)
		}
		if att != nil {
			att.CPURack, att.MemRack = home.Rack, home.Rack
		}
	case tierPod:
		cpu := topo.PodBrickID{Rack: home.Rack, Brick: home.Brick}
		if ref {
			att, lat, err = refAttachCrossPod(podA, owner, cpu, size)
		} else {
			att, lat, err = podA.attachCross(owner, topo.RowBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, size)
		}
	default:
		if ref {
			return refAttachCrossRow(s, owner, home, size)
		}
		return s.attachCross(owner, home, size)
	}
	if att != nil {
		att.CPUPod, att.MemPod = home.Pod, home.Pod
	}
	return att, lat, err
}

// TestAttachMatchesReference drives seeded random attach and detach
// traces through twin rows, one attaching through the inline commit and
// one through the closure plan it replaced, at the rack, pod and row
// tiers, with a fault injected before most attaches. Every call must
// return the same attachment, latency and error text (so the same
// packet-fallback outcome), leave the same state and counters behind,
// and pass CheckInvariants. Every fault must make at least one attach
// fail or fall back at each tier it can reach.
func TestAttachMatchesReference(t *testing.T) {
	type variant struct {
		name   string
		policy Policy
		packet bool
	}
	var variants []variant
	for _, pol := range []struct {
		name string
		p    Policy
	}{{"poweraware", PolicyPowerAware}, {"firstfit", PolicyFirstFit}, {"spread", PolicySpread}} {
		for _, packet := range []bool{false, true} {
			variants = append(variants, variant{fmt.Sprintf("%s/packet=%t", pol.name, packet), pol.p, packet})
		}
	}
	var hit [nTiers][nFaults]int
	const seeds = 3
	ran := 0
	for _, v := range variants {
		for seed := uint64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", v.name, seed), func(t *testing.T) {
				ran++
				cfg := DefaultConfig
				cfg.Policy, cfg.PacketFallback = v.policy, v.packet
				worlds := [2]*RowScheduler{attachDiffRow(t, cfg), attachDiffRow(t, cfg)}
				var live [][2]*Attachment
				rng := sim.NewRand(seed)
				for step := 0; step < 160; step++ {
					if len(live) > 0 && rng.Intn(4) == 0 {
						i := rng.Intn(len(live))
						var lat [2]sim.Duration
						var errs [2]string
						for w, s := range worlds {
							var err error
							lat[w], err = s.DetachRemoteMemory(live[i][w])
							errs[w] = fmt.Sprint(err)
						}
						if lat[0] != lat[1] || errs[0] != errs[1] {
							t.Fatalf("step %d detach: inline (%v, %s), reference (%v, %s)", step, lat[0], errs[0], lat[1], errs[1])
						}
						if errs[0] == "<nil>" {
							live = append(live[:i], live[i+1:]...)
						}
						continue
					}
					tier := rng.Intn(nTiers)
					home := topo.RowBrickID{Pod: rng.Intn(3), Rack: rng.Intn(3)}
					home.Brick = worlds[0].pods[home.Pod].racks[home.Rack].computeOrder[rng.Intn(2)]
					size := brick.Bytes(1+rng.Intn(3)) * brick.GiB
					fault := faultNone
					if rng.Intn(3) != 0 {
						fault = 1 + rng.Intn(nFaults-1)
					}
					all := rng.Intn(2) == 0
					if fault == faultPick {
						size = 16 * brick.GiB
					}
					owner := fmt.Sprintf("vm-%d", step)
					var (
						atts  [2]*Attachment
						lats  [2]sim.Duration
						errs  [2]string
						state [2]string
					)
					for w, s := range worlds {
						undo := inject(t, s, fault, tier, home, size, all)
						var err error
						atts[w], lats[w], err = attachCall(s, w == 1, tier, owner, home, size)
						errs[w] = fmt.Sprint(err)
						undo()
						state[w] = attachDiffFingerprint(t, s)
						if err := s.CheckInvariants(); err != nil {
							t.Fatalf("step %d (%s tier, fault %s, inline=%t): %v", step, tierNames[tier], faultNames[fault], w == 0, err)
						}
					}
					where := fmt.Sprintf("step %d (%s tier, fault %s, size %v, home %+v)", step, tierNames[tier], faultNames[fault], size, home)
					if a, b := attachDiffState(atts[0]), attachDiffState(atts[1]); a != b {
						t.Fatalf("%s attachment:\ninline    %s\nreference %s", where, a, b)
					}
					if lats[0] != lats[1] || errs[0] != errs[1] {
						t.Fatalf("%s: inline (%v, %s), reference (%v, %s)", where, lats[0], errs[0], lats[1], errs[1])
					}
					if state[0] != state[1] {
						t.Fatalf("%s state diverged:\ninline    %s\nreference %s", where, state[0], state[1])
					}
					if atts[0] == nil || atts[0].Mode == ModePacket {
						hit[tier][fault]++
					}
					if atts[0] != nil {
						live = append(live, [2]*Attachment{atts[0], atts[1]})
					}
				}
			})
		}
	}
	if ran < len(variants)*seeds {
		return // a -run filter skipped traces; coverage is judged on the full set
	}
	for tier := 0; tier < nTiers; tier++ {
		for fault := faultCPUPorts; fault < nFaults; fault++ {
			if faultReaches(fault, tier) && hit[tier][fault] == 0 {
				t.Errorf("%s tier: fault %s never made an attach fail or fall back", tierNames[tier], faultNames[fault])
			}
		}
	}
}

// TestAttachRecoveryKeepsLivePort pins the rack tier's fault recovery
// when every replacement port fails: the quarantined port stays
// withdrawn and the unwind releases nothing else. The closure plan
// overwrote the held port with the zero PortID when re-acquisition
// failed, so its unwind released port 0 of brick {0,0} even while a
// live circuit held it.
func TestAttachRecoveryKeepsLivePort(t *testing.T) {
	c := testRack(t, PolicyPowerAware)
	cpu := topo.BrickID{}
	if c.compute(cpu) == nil {
		t.Fatalf("rack has no compute brick %v", cpu)
	}
	first, _, err := c.AttachRemoteMemory("vm1", cpu, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if first.CPUPort.Port != 0 {
		t.Fatalf("first circuit took port %d, want 0", first.CPUPort.Port)
	}
	node := c.compute(cpu)
	for p := 1; p < node.Brick.Ports.Total(); p++ {
		failSwitchPortBehind(t, c, topo.PortID{Brick: cpu, Port: p})
	}
	if _, _, err := c.AttachRemoteMemory("vm2", cpu, brick.GiB); err == nil {
		t.Fatal("attach succeeded with every spare CPU port dead")
	}
	if !node.Brick.Ports.InUse(0) {
		t.Fatal("failed attach released port 0, which the live circuit holds")
	}
	if _, err := c.DetachRemoteMemory(first); err != nil {
		t.Fatalf("detach of the live circuit: %v", err)
	}
}

// TestAbortedBatchPowersDownAttachBoots: the batch planner's attaches
// run through the shared inline commit, which logs every memory brick
// it boots, so an aborted burst powers those boots back down and
// leaves the power census exactly as it found it.
func TestAbortedBatchPowersDownAttachBoots(t *testing.T) {
	s := buildBatchPod(t, 2, 2, 2, 8*brick.GiB, DefaultConfig)
	before := s.Census(topo.KindMemory)
	if before.Off == 0 {
		t.Fatal("power-aware pod starts with no memory brick off")
	}
	_, err := s.AdmitBatch([]AdmitRequest{
		{Owner: "boots", VCPUs: 1, Remote: brick.GiB},
		{Owner: "too-big", VCPUs: 64},
	})
	if err == nil {
		t.Fatal("a burst with an unplaceable request was admitted")
	}
	if after := s.Census(topo.KindMemory); after != before {
		t.Fatalf("aborted burst left memory census %+v, want %+v", after, before)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
