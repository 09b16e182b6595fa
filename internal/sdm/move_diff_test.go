package sdm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// Faults injected before a move, each restored right after it.
const (
	moveFaultNone     = iota
	moveFaultCPUPorts // every free port of a re-point's new compute brick held
	moveFaultMemPorts // every free port of a re-home's target memory bricks held behind the index's back
	moveFaultCarve    // every gap of the target's running memory bricks filled behind the index's back
	moveFaultSwitch   // the free switch ports the new circuit could use failed
	moveFaultTGL      // the RMST of a re-point's new compute brick filled
	nMoveFaults
)

var moveFaultNames = [nMoveFaults]string{"none", "cpu-ports", "mem-ports", "carve", "switch", "tgl"}

// moveFaultReaches reports whether a fault can fail a re-point or a
// re-home: a re-point claims a CPU port and a window on its new brick, a
// re-home a segment and a memory port on its target; both build a new
// circuit.
func moveFaultReaches(fault int, rehome bool) bool {
	switch fault {
	case moveFaultCPUPorts, moveFaultTGL:
		return !rehome
	case moveFaultMemPorts, moveFaultCarve:
		return rehome
	}
	return true
}

// A move is one of the inline moves, set up identically in each twin.
type move struct {
	name   string
	rehome bool
	// cross selects a cross-rack attachment to move, else a rack-local
	// one; both start on compute brick 0 of pod 0, rack 0.
	cross bool
	// dest picks the destination in world s for att: a re-point's new
	// compute brick, or a re-home's target rack (in dst.Rack).
	dest func(s *RowScheduler, att *Attachment) topo.RowBrickID
	// rack routes a re-point through the rack controller's
	// ReattachRemoteMemory, a re-home through Promote.
	rack bool
}

// otherRack is the pod-0 rack that is neither a nor b.
func otherRack(a, b int) int {
	for r := 0; ; r++ {
		if r != a && r != b {
			return r
		}
	}
}

var moves = []move{
	{name: "rack-repoint", rack: true, dest: func(s *RowScheduler, att *Attachment) topo.RowBrickID {
		return topo.RowBrickID{Rack: 0, Brick: s.pods[0].racks[0].computeOrder[1]}
	}},
	{name: "pod-repoint-local-to-cross", dest: func(s *RowScheduler, att *Attachment) topo.RowBrickID {
		return topo.RowBrickID{Rack: 1, Brick: s.pods[0].racks[1].computeOrder[0]}
	}},
	{name: "pod-repoint-cross-to-local", cross: true, dest: func(s *RowScheduler, att *Attachment) topo.RowBrickID {
		return topo.RowBrickID{Rack: att.MemRack, Brick: s.pods[0].racks[att.MemRack].computeOrder[0]}
	}},
	{name: "rehome-sideways", rehome: true, cross: true, dest: func(s *RowScheduler, att *Attachment) topo.RowBrickID {
		return topo.RowBrickID{Rack: otherRack(att.CPURack, att.MemRack)}
	}},
	{name: "rehome-local-to-cross", rehome: true, dest: func(s *RowScheduler, att *Attachment) topo.RowBrickID {
		return topo.RowBrickID{Rack: 1}
	}},
	{name: "promote", rehome: true, cross: true, rack: true, dest: func(s *RowScheduler, att *Attachment) topo.RowBrickID {
		return topo.RowBrickID{Rack: att.CPURack}
	}},
}

// moveSetup gives pod 0 of s a little background state on every rack
// (a rack-local attachment from compute brick 1 and a spill from rack
// 1) and returns the attachment the move will act on.
func moveSetup(t *testing.T, s *RowScheduler, m move) *Attachment {
	t.Helper()
	pod := s.pods[0]
	for r, c := range pod.racks {
		if _, _, err := pod.AttachRemoteMemory(fmt.Sprintf("bg%d", r), topo.PodBrickID{Rack: r, Brick: c.computeOrder[1]}, brick.GiB); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := pod.attachCross("bgx", topo.RowBrickID{Rack: 1, Brick: pod.racks[1].computeOrder[1]}, brick.GiB); err != nil {
		t.Fatal(err)
	}
	home := topo.RowBrickID{Brick: pod.racks[0].computeOrder[0]}
	var (
		att *Attachment
		err error
	)
	if m.cross {
		att, _, err = pod.attachCross("vm", home, 2*brick.GiB)
	} else {
		att, _, err = pod.AttachRemoteMemory("vm", topo.PodBrickID{Brick: home.Brick}, 2*brick.GiB)
	}
	if err != nil {
		t.Fatal(err)
	}
	if att.CrossRack() != m.cross || att.Mode != ModeCircuit {
		t.Fatalf("%s: set-up attachment cross=%t mode=%v", m.name, att.CrossRack(), att.Mode)
	}
	return att
}

// moveCall runs the move in world s, through the inline commit or the
// reference plan, and renders its outcome.
func moveCall(s *RowScheduler, ref bool, m move, att *Attachment, dst topo.RowBrickID) (sim.Duration, string) {
	pod := s.pods[0]
	var (
		win tgl.Entry
		lat sim.Duration
		err error
	)
	switch {
	case m.rehome && m.rack && ref:
		lat, err = refRehome(pod, att, att.CPURack)
	case m.rehome && m.rack:
		lat, err = pod.Promote(att)
	case m.rehome && ref:
		lat, err = refRehome(pod, att, dst.Rack)
	case m.rehome:
		lat, err = pod.Rehome(att, dst.Rack)
	case m.rack && ref:
		win, lat, err = refReattachRack(pod.racks[att.CPURack], att, dst.Brick)
	case m.rack:
		win, lat, err = pod.racks[att.CPURack].ReattachRemoteMemory(att, dst.Brick)
	case ref:
		win, lat, err = refTierRepoint(&pod.tier, att, dst)
	default:
		win, lat, err = pod.repoint(att, dst)
	}
	return lat, fmt.Sprintf("win=%+v lat=%v err=%v", win, lat, err)
}

// moveInject applies fault to pod 0 of s ahead of a move of att to dst
// and returns its undo. It is deterministic in the scheduler's state, so
// twins receive the same fault.
func moveInject(t *testing.T, s *RowScheduler, fault int, m move, att *Attachment, dst topo.RowBrickID) func() {
	t.Helper()
	pod := s.pods[0]
	end := pod.racks[dst.Rack] // the rack the new circuit's moved end lands on
	var bricks []topo.BrickID  // the bricks whose free ports the new end may claim
	if m.rehome {
		bricks = end.memoryOrder
	} else {
		bricks = []topo.BrickID{dst.Brick}
	}
	var undo []func()
	switch fault {
	case moveFaultCPUPorts:
		ports := end.compute(dst.Brick).Brick.Ports
		for {
			p, err := ports.Acquire()
			if err != nil {
				break
			}
			undo = append(undo, func() { ports.Release(p) })
		}
	case moveFaultMemPorts:
		for _, mb := range end.memories {
			for {
				p, err := mb.Ports.Acquire()
				if err != nil {
					break
				}
				undo = append(undo, func() { mb.Ports.Release(p); end.touchMemory(mb.ID) })
			}
		}
	case moveFaultCarve:
		for _, mb := range end.memories {
			for mb.State() != brick.PowerOff && mb.LargestGap() >= att.Size() {
				seg, err := mb.Carve(mb.LargestGap(), "stale")
				if err != nil {
					t.Fatal(err)
				}
				undo = append(undo, func() { mb.Release(seg); end.touchMemory(mb.ID) })
			}
		}
	case moveFaultSwitch:
		sw := end.fabric.Switch()
		for _, b := range bricks {
			ports := end.portsOf(b)
			for i := 0; i < ports.Total(); i++ {
				sp := brickSwitchPort(end, topo.PortID{Brick: b, Port: i})
				if ports.InUse(i) || sw.PortFailed(sp) {
					continue
				}
				if err := sw.FailPort(sp); err != nil {
					t.Fatal(err)
				}
				undo = append(undo, func() { sw.RestorePort(sp) })
			}
		}
		// A circuit crossing racks also needs a pod-switch uplink of the
		// moved end's rack (two per rack).
		psw := pod.fabric.PodSwitch()
		for p := dst.Rack * 2; p < dst.Rack*2+2; p++ {
			if _, busy := psw.PeerOf(p); busy || psw.PortFailed(p) {
				continue
			}
			if err := psw.FailPort(p); err != nil {
				t.Fatal(err)
			}
			undo = append(undo, func() { psw.RestorePort(p) })
		}
	case moveFaultTGL:
		glue := end.compute(dst.Brick).Agent.Glue
		for base := uint64(1 << 50); ; base += uint64(brick.GiB) {
			if glue.Attach(tgl.Entry{Base: base, Size: uint64(brick.GiB), Dest: dst.Brick}) != nil {
				break
			}
			undo = append(undo, func() {
				if err := glue.Detach(base); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	return func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
}

// portsOf is the port pool of brick id of either kind on rack c.
func (c *Controller) portsOf(id topo.BrickID) *brick.PortSet {
	if node := c.compute(id); node != nil {
		return node.Brick.Ports
	}
	return c.memory(id).Ports
}

// moveDiffOrders renders what a move re-threads beyond the rack
// snapshots: each rack's live list and stamps, every compute brick's
// next window base and host lists, and each pod's spill walk order and
// promotion count.
func moveDiffOrders(s *RowScheduler) string {
	var b strings.Builder
	for p, ps := range s.pods {
		fmt.Fprintf(&b, "pod%d promoted=%d seq=%d cross=", p, ps.promoted, ps.attachSeq)
		for a := ps.cross.head; a != nil; a = a.crossNext {
			fmt.Fprintf(&b, "%s/%d,", a.Owner, a.seq)
		}
		for r, c := range ps.racks {
			fmt.Fprintf(&b, "\n rack%d stamp=%d live=", r, c.nextStamp)
			for _, a := range c.live {
				fmt.Fprintf(&b, "%s/%d,", a.Owner, a.stamp)
			}
			for ord, node := range c.computes {
				fmt.Fprintf(&b, " [cpu%d win=%#x hosts=", ord, node.nextWindow)
				for _, a := range c.circuitHosts[ord] {
					fmt.Fprintf(&b, "%s,", a.Owner)
				}
				for lvl := range c.crossHosts {
					if c.crossHosts[lvl] != nil {
						fmt.Fprintf(&b, "|%d:", lvl)
						for _, a := range c.crossHosts[lvl][ord] {
							fmt.Fprintf(&b, "%s,", a.Owner)
						}
					}
				}
				b.WriteByte(']')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// moveVariants are the twin rows' policies and memory power: lit rows
// power every brick up front, so a stale carve is reachable; dark rows
// leave memory off, so moves boot their target brick.
var moveVariants = []struct {
	name   string
	policy Policy
	lit    bool
}{
	{"poweraware/dark", PolicyPowerAware, false},
	{"poweraware/lit", PolicyPowerAware, true},
	{"spread/lit", PolicySpread, true},
	{"firstfit/dark", PolicyFirstFit, false},
}

// testMovesMatchReference runs every re-point or re-home move under every
// fault and variant in twin rows, one through the inline commit and one
// through the reference plan, and requires the same outcome — window,
// latency and error text — the same attachment, state, orders and
// counters, and CheckInvariants passing in both, after the move and
// after the attachment's detach. Every fault that can reach a move must
// make it fail at least once.
func testMovesMatchReference(t *testing.T, rehome bool) {
	ran, want := 0, 0
	hit := map[string]int{}
	for _, m := range moves {
		if m.rehome != rehome {
			continue
		}
		for _, v := range moveVariants {
			for fault := 0; fault < nMoveFaults; fault++ {
				if !moveFaultReaches(fault, rehome) {
					continue
				}
				want++
				t.Run(fmt.Sprintf("%s/%s/%s", m.name, v.name, moveFaultNames[fault]), func(t *testing.T) {
					ran++
					cfg := DefaultConfig
					cfg.Policy = v.policy
					var (
						worlds [2]*RowScheduler
						atts   [2]*Attachment
						out    [2]string
						lats   [2]sim.Duration
						state  [2]string
					)
					for w := range worlds {
						s := attachDiffRow(t, cfg)
						if v.lit {
							s.PowerOnAll()
						}
						att := moveSetup(t, s, m)
						dst := m.dest(s, att)
						undo := moveInject(t, s, fault, m, att, dst)
						lats[w], out[w] = moveCall(s, w == 1, m, att, dst)
						undo()
						if err := s.CheckInvariants(); err != nil {
							t.Fatalf("after the move (inline=%t): %v", w == 0, err)
						}
						state[w] = attachDiffState(att) + "\n" + attachDiffFingerprint(t, s) + moveDiffOrders(s)
						worlds[w], atts[w] = s, att
					}
					if out[0] != out[1] {
						t.Fatalf("move outcome:\ninline    %s\nreference %s", out[0], out[1])
					}
					if state[0] != state[1] {
						t.Fatalf("state diverged after the move:\ninline    %s\nreference %s", state[0], state[1])
					}
					if fault != moveFaultNone && strings.Contains(out[0], "err=<nil>") {
						t.Logf("fault %s did not fail the move: %s", moveFaultNames[fault], out[0])
					} else if fault != moveFaultNone {
						hit[m.name+"/"+moveFaultNames[fault]]++
					} else if !strings.Contains(out[0], "err=<nil>") {
						t.Fatalf("unfaulted move failed: %s", out[0])
					}
					// The moved (or restored) attachment still tears down,
					// identically.
					for w, s := range worlds {
						lat, err := s.DetachRemoteMemory(atts[w])
						out[w] = fmt.Sprintf("lat=%v err=%v", lat, err)
						if err := s.CheckInvariants(); err != nil {
							t.Fatalf("after the detach (inline=%t): %v", w == 0, err)
						}
						state[w] = attachDiffFingerprint(t, s) + moveDiffOrders(s)
					}
					if out[0] != out[1] || state[0] != state[1] {
						t.Fatalf("detach after the move diverged:\ninline    %s\n%s\nreference %s\n%s", out[0], state[0], out[1], state[1])
					}
					if !strings.HasSuffix(out[0], "err=<nil>") {
						t.Fatalf("detach after the move: %s", out[0])
					}
				})
			}
		}
	}
	if ran < want {
		return // a -run filter skipped cases; coverage is judged on the full set
	}
	for _, m := range moves {
		for fault := moveFaultCPUPorts; fault < nMoveFaults; fault++ {
			if m.rehome == rehome && moveFaultReaches(fault, rehome) && hit[m.name+"/"+moveFaultNames[fault]] == 0 {
				t.Errorf("%s: fault %s never made the move fail", m.name, moveFaultNames[fault])
			}
		}
	}
}

// TestRepointMatchesReference: the inline re-point (repointCircuit)
// against the closure plan it replaced, rack-local and through the pod
// in both directions between a rack-local and a cross-rack circuit.
func TestRepointMatchesReference(t *testing.T) { testMovesMatchReference(t, false) }

// TestRehomeMatchesReference: the inline re-home (rehomeCircuit)
// against the closure plan it replaced, sideways, from rack-local to
// cross-rack, and as a promotion.
func TestRehomeMatchesReference(t *testing.T) { testMovesMatchReference(t, true) }
