package optical

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// portK is attached brick port k of a test rack: tray 0, four ports per
// brick.
func portK(k int) topo.PortID {
	return topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: k / 4}, Port: k % 4}
}

// testRack builds a rack fabric on a ports-port switch with brick ports
// 0..attached-1 patched in, so switch port k carries portK(k).
func testRack(t testing.TB, ports, attached int) *Fabric {
	t.Helper()
	sw, err := NewSwitch(SwitchConfig{Ports: ports, InsertionLossDB: 1, PortPowerW: 0.1, ReconfigTime: 25 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(sw)
	for k := 0; k < attached; k++ {
		if err := f.AttachPort(portK(k)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func testPodProfile(uplinks int) PodProfile {
	return PodProfile{
		Switch:               SwitchConfig{Ports: 64, InsertionLossDB: 1.5, PortPowerW: 0.1, ReconfigTime: 50 * sim.Millisecond},
		UplinksPerRack:       uplinks,
		ExtraHops:            2,
		InterRackFiberMeters: 40,
	}
}

func testRowProfile(uplinks int) RowProfile {
	return RowProfile{
		Switch:              SwitchConfig{Ports: 64, InsertionLossDB: 2, PortPowerW: 0.1, ReconfigTime: 80 * sim.Millisecond},
		UplinksPerPod:       uplinks,
		ExtraHops:           3,
		InterPodFiberMeters: 120,
	}
}

// testRow builds a row of pods x racks rack fabrics (rackPorts-port
// switches, attached brick ports each) with uplinks per child at both
// the pod and the row tier.
func testRow(t testing.TB, pods, racks, rackPorts, attached, uplinks int) *RowFabric {
	t.Helper()
	pfs := make([]*PodFabric, pods)
	for p := range pfs {
		fabrics := make([]*Fabric, racks)
		for r := range fabrics {
			fabrics[r] = testRack(t, rackPorts, attached)
		}
		pf, err := NewPodFabric(testPodProfile(uplinks), fabrics)
		if err != nil {
			t.Fatal(err)
		}
		pfs[p] = pf
	}
	rf, err := NewRowFabric(testRowProfile(uplinks), pfs)
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

// crossFabric is what both tiers' fabrics export of their trunk.
type crossFabric interface {
	FreeUplinks(i int) int
	CrossCircuits() int
	DisconnectCross(c *Circuit) (sim.Duration, error)
}

// crossTier drives one trunk tier of a row of two-rack pods: the pod
// case crosses between pod 0's racks, the row case between rack 1 of
// pod 0 and of pod 1. The wanted numbers and error texts are the
// tier's own.
type crossTier struct {
	name    string
	fabric  func(rf *RowFabric) crossFabric
	connect func(rf *RowFabric, ca int, a topo.PortID, cb int, b topo.PortID) (*Circuit, sim.Duration, error)
	// rack is the endpoint rack fabric connect uses on child i.
	rack func(rf *RowFabric, i int) *Fabric
	// newFabric builds the tier over n children with the given uplinks
	// on a ports-port tier switch.
	newFabric func(n, uplinks, ports int) error

	reconfig sim.Duration
	hops     int
	fiber    float64
	// The tier's error texts.
	errRange, errSame, errExhausted, errNotLive       string
	errEmpty, errNoUplinks, errOverPorts, errNegative string
}

var crossTiers = []crossTier{
	{
		name:   "pod",
		fabric: func(rf *RowFabric) crossFabric { return rf.Pod(0) },
		connect: func(rf *RowFabric, ca int, a topo.PortID, cb int, b topo.PortID) (*Circuit, sim.Duration, error) {
			return rf.Pod(0).ConnectCross(ca, a, cb, b)
		},
		rack: func(rf *RowFabric, i int) *Fabric { return rf.Pod(0).Rack(i) },
		newFabric: func(n, uplinks, ports int) error {
			racks := make([]*Fabric, n)
			for i := range racks {
				sw, _ := NewSwitch(Polatis48)
				racks[i] = NewFabric(sw)
			}
			prof := DefaultPodProfile
			prof.UplinksPerRack, prof.Switch.Ports = uplinks, ports
			_, err := NewPodFabric(prof, racks)
			return err
		},
		// 1 hop per rack fabric + 2 extra, 5 m per rack + 40 m
		// inter-rack; the pod switch is the slowest stage.
		reconfig:     50 * sim.Millisecond,
		hops:         1 + 2 + 1,
		fiber:        5 + 40 + 5,
		errRange:     "optical: rack index out of range (0, 2)",
		errSame:      "optical: cross-rack circuit within rack 0; use the rack fabric",
		errExhausted: "optical: rack 0 has no free pod uplinks (1 total)",
		errNotLive:   "optical: circuit t0.s0.p0<->t0.s0.p1 is not a live cross-rack circuit",
		errEmpty:     "optical: pod needs at least one rack, got 0",
		errNoUplinks: "optical: pod needs at least one uplink per rack, got 0",
		errOverPorts: "optical: 5 racks x 16 uplinks exceed the 4-port pod switch",
		errNegative:  "optical: negative hop or fiber profile in pod config",
	},
	{
		name:   "row",
		fabric: func(rf *RowFabric) crossFabric { return rf },
		connect: func(rf *RowFabric, ca int, a topo.PortID, cb int, b topo.PortID) (*Circuit, sim.Duration, error) {
			return rf.ConnectCross(ca, 1, a, cb, 1, b)
		},
		rack: func(rf *RowFabric, i int) *Fabric { return rf.Pod(i).Rack(1) },
		newFabric: func(n, uplinks, ports int) error {
			pods := make([]*PodFabric, n)
			for i := range pods {
				sw, _ := NewSwitch(Polatis48)
				pf, err := NewPodFabric(DefaultPodProfile, []*Fabric{NewFabric(sw)})
				if err != nil {
					return err
				}
				pods[i] = pf
			}
			prof := DefaultRowProfile
			prof.UplinksPerPod, prof.Switch.Ports = uplinks, ports
			_, err := NewRowFabric(prof, pods)
			return err
		},
		// 1 hop per rack fabric + 3 extra, 5 m per rack + 120 m
		// inter-pod; the row switch is the slowest stage.
		reconfig:     80 * sim.Millisecond,
		hops:         1 + 3 + 1,
		fiber:        5 + 120 + 5,
		errRange:     "optical: pod index out of range (0, 2)",
		errSame:      "optical: cross-pod circuit within pod 0; use the pod fabric",
		errExhausted: "optical: pod 0 has no free row uplinks (1 total)",
		errNotLive:   "optical: circuit t0.s0.p0<->t0.s0.p1 is not a live cross-pod circuit",
		errEmpty:     "optical: row needs at least one pod, got 0",
		errNoUplinks: "optical: row needs at least one uplink per pod, got 0",
		errOverPorts: "optical: 5 pods x 16 uplinks exceed the 4-port row switch",
		errNegative:  "optical: negative hop or fiber profile in row config",
	},
}

// wantErr fails unless err carries exactly the text want.
func wantErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: no error, want %q", what, want)
	}
	if err.Error() != want {
		t.Fatalf("%s: error %q, want %q", what, err, want)
	}
}

func TestPodFabricCrossCircuit(t *testing.T) {
	for _, tc := range crossTiers {
		t.Run(tc.name, func(t *testing.T) {
			rf := testRow(t, 2, 2, 16, 8, 4)
			xf := tc.fabric(rf)
			a, b := portK(0), portK(1)
			c, reconfig, err := tc.connect(rf, 0, a, 1, b)
			if err != nil {
				t.Fatal(err)
			}
			if reconfig != tc.reconfig {
				t.Fatalf("reconfig = %v, want %v", reconfig, tc.reconfig)
			}
			if c.Hops != tc.hops || c.FiberMeters != tc.fiber {
				t.Fatalf("hops, fiber = %d, %v m, want %d, %v m", c.Hops, c.FiberMeters, tc.hops, tc.fiber)
			}
			if xf.CrossCircuits() != 1 || xf.FreeUplinks(0) != 3 || xf.FreeUplinks(1) != 3 {
				t.Fatalf("bookkeeping: cross=%d uplinks=(%d,%d)", xf.CrossCircuits(), xf.FreeUplinks(0), xf.FreeUplinks(1))
			}
			// Each endpoint rack registers one end of the circuit.
			if ea, eb := tc.rack(rf, 0).live, tc.rack(rf, 1).live; ea != 1 || eb != 1 {
				t.Fatalf("endpoint racks register %d and %d circuit ends, want 1 each", ea, eb)
			}

			// The busy brick ports refuse further circuits on the rack
			// and on the tier.
			if _, _, err := tc.rack(rf, 0).Connect(a, portK(2)); err == nil {
				t.Fatal("rack fabric connected through a port busy with a cross circuit")
			}
			_, _, err = tc.connect(rf, 0, a, 1, portK(2))
			wantErr(t, "second cross circuit through a busy port", err, "optical: port t0.s0.p0 already carries a circuit")
			// Rack-local teardown must not be able to reach the cross
			// circuit.
			if _, err := tc.rack(rf, 0).Disconnect(c); err == nil {
				t.Fatal("rack fabric tore down a cross circuit")
			}

			if d, err := xf.DisconnectCross(c); err != nil || d != tc.reconfig {
				t.Fatalf("DisconnectCross = %v, %v; want %v", d, err, tc.reconfig)
			}
			if xf.CrossCircuits() != 0 || xf.FreeUplinks(0) != 4 || xf.FreeUplinks(1) != 4 {
				t.Fatal("teardown did not restore uplinks")
			}
			// A second teardown of the same handle is refused.
			_, err = xf.DisconnectCross(c)
			wantErr(t, "stale teardown", err, tc.errNotLive)
			// The ports are free again for intra-rack use.
			if _, _, err := tc.rack(rf, 0).Connect(a, portK(2)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPodFabricUplinkExhaustion(t *testing.T) {
	for _, tc := range crossTiers {
		t.Run(tc.name, func(t *testing.T) {
			rf := testRow(t, 2, 2, 16, 8, 1)
			xf := tc.fabric(rf)
			if _, _, err := tc.connect(rf, 0, portK(0), 1, portK(0)); err != nil {
				t.Fatal(err)
			}
			_, _, err := tc.connect(rf, 0, portK(1), 1, portK(1))
			wantErr(t, "cross circuit with no free uplinks", err, tc.errExhausted)
			// The refusal left nothing claimed.
			if xf.CrossCircuits() != 1 || xf.FreeUplinks(0) != 0 || xf.FreeUplinks(1) != 0 ||
				tc.rack(rf, 0).live != 1 {
				t.Fatal("refused connect changed the bookkeeping")
			}
		})
	}
}

func TestPodFabricValidation(t *testing.T) {
	for _, tc := range crossTiers {
		t.Run(tc.name, func(t *testing.T) {
			wantErr(t, "no children", tc.newFabric(0, 4, 64), tc.errEmpty)
			wantErr(t, "zero uplinks", tc.newFabric(1, 0, 64), tc.errNoUplinks)
			wantErr(t, "uplinks beyond the tier switch", tc.newFabric(5, 16, 4), tc.errOverPorts)
			if err := tc.newFabric(2, 4, 8); err != nil {
				t.Fatalf("a full tier switch refused: %v", err)
			}
		})
	}
	// Negative hop or fiber profiles name their tier.
	pod := DefaultPodProfile
	pod.ExtraHops = -1
	wantErr(t, "negative pod hops", pod.Validate(1), crossTiers[0].errNegative)
	row := DefaultRowProfile
	row.InterPodFiberMeters = -1
	wantErr(t, "negative row fiber", row.Validate(1), crossTiers[1].errNegative)
}

func TestPodFabricSameRackRefused(t *testing.T) {
	for _, tc := range crossTiers {
		t.Run(tc.name, func(t *testing.T) {
			rf := testRow(t, 2, 2, 16, 8, 2)
			_, _, err := tc.connect(rf, 0, portK(0), 0, portK(1))
			wantErr(t, "same-child cross circuit", err, tc.errSame)
			_, _, err = tc.connect(rf, 0, portK(0), 2, portK(1))
			wantErr(t, "child out of range", err, tc.errRange)
			if tc.fabric(rf).CrossCircuits() != 0 || tc.fabric(rf).FreeUplinks(0) != 2 {
				t.Fatal("refused connect changed the bookkeeping")
			}
		})
	}
}

// TestCrossFabricForeignCircuitRefused hands each tier's DisconnectCross
// circuits it does not own: another fabric's at the same tier, whose
// endpoints name a rack or a switch port beyond this fabric's, and the
// other tier's. Each must be refused with the tier's error, and the
// owner must still tear its circuit down afterwards.
func TestCrossFabricForeignCircuitRefused(t *testing.T) {
	rf := testRow(t, 2, 2, 16, 8, 2)
	// The foreign row has a third rack per pod and 32-port rack
	// switches with 24 brick ports attached.
	other := testRow(t, 2, 3, 32, 24, 2)
	podC, _, err := rf.Pod(0).ConnectCross(0, portK(0), 1, portK(1))
	if err != nil {
		t.Fatal(err)
	}
	rowC, _, err := rf.ConnectCross(0, 1, portK(0), 1, 1, portK(1))
	if err != nil {
		t.Fatal(err)
	}
	// A pod circuit from a switch port beyond this pod's 16-port racks.
	wideC, _, err := other.Pod(0).ConnectCross(0, portK(17), 1, portK(18))
	if err != nil {
		t.Fatal(err)
	}
	// A row circuit whose endpoints sit on a rack this row's pods lack.
	deepC, _, err := other.ConnectCross(0, 2, portK(0), 1, 2, portK(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		xf     crossFabric
		own    *Circuit
		others []*Circuit
		want   string
	}{
		{"pod", rf.Pod(0), podC, []*Circuit{wideC, deepC, rowC}, "is not a live cross-rack circuit"},
		{"row", rf, rowC, []*Circuit{wideC, deepC, podC}, "is not a live cross-pod circuit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range tc.others {
				_, err := tc.xf.DisconnectCross(c)
				wantErr(t, "foreign circuit", err, "optical: circuit "+c.A.String()+"<->"+c.B.String()+" "+tc.want)
			}
			if tc.xf.CrossCircuits() != 1 {
				t.Fatalf("cross circuits = %d after refusals, want 1", tc.xf.CrossCircuits())
			}
			if _, err := tc.xf.DisconnectCross(tc.own); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := other.Pod(0).DisconnectCross(wideC); err != nil {
		t.Fatal(err)
	}
	if _, err := other.DisconnectCross(deepC); err != nil {
		t.Fatal(err)
	}
}
