package sdm

import (
	"fmt"
	"testing"

	"repro/internal/brick"
	"repro/internal/topo"
)

// entryTier is one tier's sequential entry points, addressed by row
// path (a pod ignores the pod coordinate), plus the counters a refusal
// may move: the tier's, its home pod's (the row's child) and the home
// rack's.
type entryTier struct {
	reserve func(owner string, vcpus int, local brick.Bytes) error
	release func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error
	attach  func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error)
	detach  func(att *Attachment) error
	// home is a compute brick of rack 0 (pod 0), the address every case
	// perturbs one coordinate of.
	home topo.RowBrickID
	// cross is how many 3 GiB attaches from home it takes until one
	// crosses the tier's switch.
	cross int
	stats func() string
	// pods are the tier's racks, pod by pod.
	pods [][]*Controller
}

// entryTiers builds a three-rack pod and a two-pod row of three-rack
// pods, every rack one compute brick and one 4 GiB memory brick.
func entryTiers(t *testing.T) map[string]*entryTier {
	t.Helper()
	pod := buildBatchPod(t, 3, 1, 1, 4*brick.GiB, DefaultConfig)
	row := buildRowSched(t, 2, 3, 4*brick.GiB, DefaultConfig)
	podPath := func(cpu topo.RowBrickID) topo.PodBrickID { return topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick} }
	return map[string]*entryTier{
		"pod": {
			reserve: func(owner string, vcpus int, local brick.Bytes) error {
				_, _, err := pod.ReserveCompute(owner, vcpus, local)
				return err
			},
			release: func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error {
				return pod.ReleaseCompute(podPath(cpu), vcpus, local)
			},
			attach: func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error) {
				att, _, err := pod.AttachRemoteMemory(owner, podPath(cpu), size)
				return att, err
			},
			detach: func(att *Attachment) error { _, err := pod.DetachRemoteMemory(att); return err },
			home:   topo.RowBrickID{Brick: pod.Rack(0).computeOrder[0]},
			cross:  2,
			stats: func() string {
				r, f, s := pod.Stats()
				rr, rf := pod.Rack(0).Stats()
				return fmt.Sprintf("pod %d/%d/%d rack %d/%d", r, f, s, rr, rf)
			},
			pods: [][]*Controller{pod.racks},
		},
		"row": {
			reserve: func(owner string, vcpus int, local brick.Bytes) error {
				_, _, err := row.ReserveCompute(owner, vcpus, local)
				return err
			},
			release: row.ReleaseCompute,
			attach: func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error) {
				att, _, err := row.AttachRemoteMemory(owner, cpu, size)
				return att, err
			},
			detach: func(att *Attachment) error { _, err := row.DetachRemoteMemory(att); return err },
			home:   topo.RowBrickID{Brick: row.Pod(0).Rack(0).computeOrder[0]},
			cross:  4,
			stats: func() string {
				r, f, s := row.Stats()
				pr, pf, ps := row.Pod(0).Stats()
				rr, rf := row.Pod(0).Rack(0).Stats()
				return fmt.Sprintf("row %d/%d/%d pod %d/%d/%d rack %d/%d", r, f, s, pr, pf, ps, rr, rf)
			},
			pods: [][]*Controller{row.pods[0].racks, row.pods[1].racks},
		},
	}
}

// TestTierEntryRefusals pins every refusal of the pod and row tiers'
// sequential entry points: the exact error text and the Stats() of the
// tier, its home pod and its home rack afterwards. Each case runs on a
// fresh tier.
func TestTierEntryRefusals(t *testing.T) {
	ghost := topo.BrickID{Tray: 9, Slot: 9}
	at := func(e *entryTier, pod, rack int) topo.RowBrickID {
		p := e.home
		p.Pod, p.Rack = pod, rack
		return p
	}
	// staleAttach attaches size from home n times over, detaches the
	// last, and returns it.
	staleAttach := func(t *testing.T, e *entryTier, size brick.Bytes, n int) *Attachment {
		var att *Attachment
		for i := 0; i < n; i++ {
			var err error
			if att, err = e.attach(fmt.Sprintf("vm%d", i), e.home, size); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.detach(att); err != nil {
			t.Fatal(err)
		}
		return att
	}
	cases := []struct {
		name string
		run  func(t *testing.T, e *entryTier) error
		want map[string][2]string // tier → error text, counters
	}{
		{"reserve/zero-vcpus", func(t *testing.T, e *entryTier) error { return e.reserve("vm", 0, 0) }, map[string][2]string{
			"pod": {"sdm: reserve of 0 vcpus", "pod 1/1/0 rack 0/0"},
			"row": {"sdm: reserve of 0 vcpus", "row 1/1/0 pod 0/0/0 rack 0/0"},
		}},
		{"reserve/negative-vcpus", func(t *testing.T, e *entryTier) error { return e.reserve("vm", -2, brick.GiB) }, map[string][2]string{
			"pod": {"sdm: reserve of -2 vcpus", "pod 1/1/0 rack 0/0"},
			"row": {"sdm: reserve of -2 vcpus", "row 1/1/0 pod 0/0/0 rack 0/0"},
		}},
		{"reserve/too-large", func(t *testing.T, e *entryTier) error { return e.reserve("vm", 64, 0) }, map[string][2]string{
			"pod": {"sdm: no rack in the 3-rack pod with 64 free cores and 0B local memory", "pod 1/1/0 rack 0/0"},
			"row": {"sdm: no pod in the 2-pod row with 64 free cores and 0B local memory", "row 1/1/0 pod 0/0/0 rack 0/0"},
		}},
		// Every rack the tiers pick refuses, so a rack's refusal surfaces
		// from the top-level retry: the third rack of each pod is full,
		// the partition's pick and the retry's each spend a stale one.
		{"reserve/rack-refuses", func(t *testing.T, e *entryTier) error {
			for _, racks := range e.pods {
				staleCompute(t, racks[:2])
				fillCompute(t, racks[2:])
			}
			return e.reserve("vm", 2, brick.GiB)
		}, map[string][2]string{
			"pod": {"sdm: no compute brick with 2 free cores and 1.0GiB local memory", "pod 1/1/0 rack 1/1"},
			"row": {"sdm: no compute brick with 2 free cores and 1.0GiB local memory", "row 1/1/0 pod 1/1/0 rack 1/1"},
		}},
		{"release/pod-below", func(t *testing.T, e *entryTier) error { return e.release(at(e, -1, 0), 1, 0) }, map[string][2]string{
			"pod": {"compute t0.s0: release of 1 cores with 0 allocated", "pod 0/0/0 rack 0/0"},
			"row": {"sdm: no pod -1 in the row", "row 0/0/0 pod 0/0/0 rack 0/0"},
		}},
		{"release/pod-above", func(t *testing.T, e *entryTier) error { return e.release(at(e, 2, 0), 1, 0) }, map[string][2]string{
			"pod": {"compute t0.s0: release of 1 cores with 0 allocated", "pod 0/0/0 rack 0/0"},
			"row": {"sdm: no pod 2 in the row", "row 0/0/0 pod 0/0/0 rack 0/0"},
		}},
		{"release/rack-below", func(t *testing.T, e *entryTier) error { return e.release(at(e, 0, -1), 1, 0) }, map[string][2]string{
			"pod": {"sdm: no rack -1 in the pod", "pod 0/0/0 rack 0/0"},
			"row": {"sdm: no rack -1 in the pod", "row 0/0/0 pod 0/0/0 rack 0/0"},
		}},
		{"release/rack-above", func(t *testing.T, e *entryTier) error { return e.release(at(e, 0, 3), 1, 0) }, map[string][2]string{
			"pod": {"sdm: no rack 3 in the pod", "pod 0/0/0 rack 0/0"},
			"row": {"sdm: no rack 3 in the pod", "row 0/0/0 pod 0/0/0 rack 0/0"},
		}},
		{"release/brick", func(t *testing.T, e *entryTier) error {
			p := e.home
			p.Brick = ghost
			return e.release(p, 1, 0)
		}, map[string][2]string{
			"pod": {"sdm: no compute brick t9.s9", "pod 0/0/0 rack 0/0"},
			"row": {"sdm: no compute brick t9.s9", "row 0/0/0 pod 0/0/0 rack 0/0"},
		}},
		{"attach/pod-below", func(t *testing.T, e *entryTier) error { _, err := e.attach("vm", at(e, -1, 0), brick.GiB); return err }, map[string][2]string{
			"pod": {"<nil>", "pod 1/0/0 rack 1/0"},
			"row": {"sdm: no pod -1 in the row", "row 1/1/0 pod 0/0/0 rack 0/0"},
		}},
		{"attach/pod-above", func(t *testing.T, e *entryTier) error { _, err := e.attach("vm", at(e, 2, 0), brick.GiB); return err }, map[string][2]string{
			"pod": {"<nil>", "pod 1/0/0 rack 1/0"},
			"row": {"sdm: no pod 2 in the row", "row 1/1/0 pod 0/0/0 rack 0/0"},
		}},
		{"attach/rack-below", func(t *testing.T, e *entryTier) error { _, err := e.attach("vm", at(e, 0, -1), brick.GiB); return err }, map[string][2]string{
			"pod": {"sdm: no rack -1 in the pod", "pod 1/1/0 rack 0/0"},
			"row": {"sdm: no rack -1 in pod 0", "row 1/1/0 pod 0/0/0 rack 0/0"},
		}},
		{"attach/rack-above", func(t *testing.T, e *entryTier) error { _, err := e.attach("vm", at(e, 0, 3), brick.GiB); return err }, map[string][2]string{
			"pod": {"sdm: no rack 3 in the pod", "pod 1/1/0 rack 0/0"},
			"row": {"sdm: no rack 3 in pod 0", "row 1/1/0 pod 0/0/0 rack 0/0"},
		}},
		{"attach/brick", func(t *testing.T, e *entryTier) error {
			p := e.home
			p.Brick = ghost
			_, err := e.attach("vm", p, brick.GiB)
			return err
		}, map[string][2]string{
			"pod": {"sdm: pod attach for \"vm\" failed rack-locally (sdm: no compute brick t9.s9) and cross-rack: sdm: no compute brick t9.s9", "pod 1/1/0 rack 1/1"},
			"row": {"sdm: row attach for \"vm\" failed pod-locally (sdm: pod attach for \"vm\" failed rack-locally (sdm: no compute brick t9.s9) and cross-rack: sdm: no compute brick t9.s9) and cross-pod: sdm: no compute brick t9.s9", "row 1/1/0 pod 1/1/0 rack 1/1"},
		}},
		{"attach/doomed", func(t *testing.T, e *entryTier) error { _, err := e.attach("vm", e.home, 64*brick.GiB); return err }, map[string][2]string{
			"pod": {"sdm: pod attach for \"vm\" failed rack-locally (sdm: no memory brick with 64.0GiB contiguous free and a spare port) and cross-rack: sdm: no rack in the pod with 64.0GiB contiguous free and a spare port", "pod 1/1/0 rack 1/1"},
			"row": {"sdm: row attach for \"vm\" failed pod-locally (sdm: no memory brick in pod 0 with 64.0GiB contiguous free and a spare port) and cross-pod: sdm: no pod in the row with 64.0GiB contiguous free and a spare port", "row 1/1/0 pod 1/1/0 rack 1/1"},
		}},
		{"attach/zero-size", func(t *testing.T, e *entryTier) error { _, err := e.attach("vm", e.home, 0); return err }, map[string][2]string{
			"pod": {"sdm: pod attach for \"vm\" failed rack-locally (sdm: zero-size attachment) and cross-rack: sdm: zero-size attachment", "pod 1/1/0 rack 0/0"},
			"row": {"sdm: row attach for \"vm\" failed pod-locally (sdm: pod attach for \"vm\" failed rack-locally (sdm: zero-size attachment) and cross-rack: sdm: zero-size attachment) and cross-pod: sdm: zero-size attachment", "row 1/1/0 pod 0/0/0 rack 0/0"},
		}},
		{"detach/stale-local", func(t *testing.T, e *entryTier) error { return e.detach(staleAttach(t, e, brick.GiB, 1)) }, map[string][2]string{
			"pod": {"sdm: attachment for \"vm0\" on t0.s0 not live", "pod 1/0/0 rack 3/1"},
			"row": {"sdm: attachment for \"vm0\" on t0.s0 not live", "row 1/0/0 pod 1/0/0 rack 3/1"},
		}},
		{"detach/stale-spill", func(t *testing.T, e *entryTier) error { return e.detach(staleAttach(t, e, 3*brick.GiB, 2)) }, map[string][2]string{
			"pod": {"sdm: cross-rack attachment for \"vm1\" on t0.s0 not live", "pod 4/1/1 rack 2/1"},
			"row": {"sdm: cross-rack attachment for \"vm1\" on t0.s0 not live", "row 2/0/0 pod 4/1/1 rack 2/1"},
		}},
		{"detach/stale-cross", func(t *testing.T, e *entryTier) error { return e.detach(staleAttach(t, e, 3*brick.GiB, e.cross)) }, map[string][2]string{
			"pod": {"sdm: cross-rack attachment for \"vm1\" on t0.s0 not live", "pod 4/1/1 rack 2/1"},
			"row": {"sdm: cross-pod attachment for \"vm3\" on t0.s0 not live", "row 6/1/1 pod 4/1/2 rack 4/3"},
		}},
		{"detach/pod-above", func(t *testing.T, e *entryTier) error {
			return e.detach(&Attachment{Owner: "ghost", CPU: e.home.Brick, CPUPod: 2, MemPod: 2})
		}, map[string][2]string{
			"pod": {"sdm: attachment for \"ghost\" on t0.s0 not live", "pod 0/0/0 rack 1/1"},
			"row": {"sdm: attachment names pod 2 outside the row", "row 0/0/0 pod 0/0/0 rack 0/0"},
		}},
		{"detach/rack-above", func(t *testing.T, e *entryTier) error {
			return e.detach(&Attachment{Owner: "ghost", CPU: e.home.Brick, CPURack: 3, MemRack: 3})
		}, map[string][2]string{
			"pod": {"sdm: attachment names rack 3 outside the pod", "pod 0/0/0 rack 0/0"},
			"row": {"sdm: attachment names rack 3 outside the pod", "row 0/0/0 pod 0/0/0 rack 0/0"},
		}},
		{"detach/rack-below", func(t *testing.T, e *entryTier) error {
			return e.detach(&Attachment{Owner: "ghost", CPU: e.home.Brick, CPURack: -1, MemRack: -1})
		}, map[string][2]string{
			"pod": {"sdm: attachment names rack -1 outside the pod", "pod 0/0/0 rack 0/0"},
			"row": {"sdm: attachment names rack -1 outside the pod", "row 0/0/0 pod 0/0/0 rack 0/0"},
		}},
	}
	for _, tc := range cases {
		for _, name := range []string{"pod", "row"} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				e := entryTiers(t)[name]
				err := tc.run(t, e)
				got := [2]string{"<nil>", e.stats()}
				if err != nil {
					got[0] = err.Error()
				}
				if want := tc.want[name]; got != want {
					t.Errorf("got\n\t%q\nwant\n\t%q", got, want)
				}
			})
		}
	}
}

// staleCompute takes every free core of the racks' compute bricks
// behind the index's back and queues each brick's leaf dirty, as a
// batch's touch would. The tiers' screens and confirming picks still
// see the cores, but a rack flushes its dirty leaves before its batch
// picks, so it refuses every request its tier places on it: the
// partition's plan and the retry's exact pick alike.
func staleCompute(t *testing.T, racks []*Controller) {
	t.Helper()
	for _, c := range racks {
		c.beginBatch()
		c.endBatch()
		for pos, node := range c.computes {
			if node.Brick.State() == brick.PowerOff {
				node.Brick.PowerOn()
			}
			if free := node.Brick.FreeCores(); free > 0 {
				if err := node.Brick.AllocCores(free); err != nil {
					t.Fatal(err)
				}
			}
			c.batch.dirtyCPU = append(c.batch.dirtyCPU, pos)
			c.batch.inDirtyCPU[pos] = true
		}
	}
}

// fillCompute takes every free core of the racks' compute bricks, so
// the racks' indexes and their tiers' screens see them full.
func fillCompute(t *testing.T, racks []*Controller) {
	t.Helper()
	for _, c := range racks {
		for pos, node := range c.computes {
			if node.Brick.State() == brick.PowerOff {
				node.Brick.PowerOn()
			}
			if free := node.Brick.FreeCores(); free > 0 {
				if err := node.Brick.AllocCores(free); err != nil {
					t.Fatal(err)
				}
			}
			c.touchCompute(c.computeOrder[pos])
		}
		c.notifyAgg()
	}
}
