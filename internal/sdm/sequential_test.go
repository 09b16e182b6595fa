package sdm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/topo"
)

// seqTier is one tier's sequential entry points, addressed by row path
// (a rack ignores the pod and rack coordinates, a pod the pod one).
type seqTier struct {
	reserve func(owner string, vcpus int, local brick.Bytes) (topo.RowBrickID, error)
	release func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error
	attach  func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error)
	detach  func(att *Attachment) error
	check   func() error
}

// seqTiers builds a rack (of a one-rack pod, whose invariant walk
// checks it), a two-rack pod and a two-pod row of two-rack pods under
// policy, every rack one compute brick and one 8 GiB memory brick.
func seqTiers(t *testing.T, policy Policy) map[string]*seqTier {
	t.Helper()
	cfg := DefaultConfig
	cfg.Policy = policy
	lone := buildBatchPod(t, 1, 1, 1, 8*brick.GiB, cfg)
	rack := lone.Rack(0)
	pod := buildBatchPod(t, 2, 1, 1, 8*brick.GiB, cfg)
	row := buildRowSched(t, 2, 2, 8*brick.GiB, cfg)
	podPath := func(cpu topo.RowBrickID) topo.PodBrickID { return topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick} }
	return map[string]*seqTier{
		"rack": {
			reserve: func(owner string, vcpus int, local brick.Bytes) (topo.RowBrickID, error) {
				id, _, err := rack.ReserveCompute(owner, vcpus, local)
				return topo.RowBrickID{Brick: id}, err
			},
			release: func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error {
				return rack.ReleaseCompute(cpu.Brick, vcpus, local)
			},
			attach: func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error) {
				att, _, err := rack.AttachRemoteMemory(owner, cpu.Brick, size)
				return att, err
			},
			detach: func(att *Attachment) error { _, err := rack.DetachRemoteMemory(att); return err },
			check:  lone.CheckInvariants, // the rack's, and an idle pod tier's
		},
		"pod": {
			reserve: func(owner string, vcpus int, local brick.Bytes) (topo.RowBrickID, error) {
				id, _, err := pod.ReserveCompute(owner, vcpus, local)
				return topo.RowBrickID{Rack: id.Rack, Brick: id.Brick}, err
			},
			release: func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error {
				return pod.ReleaseCompute(podPath(cpu), vcpus, local)
			},
			attach: func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error) {
				att, _, err := pod.AttachRemoteMemory(owner, podPath(cpu), size)
				return att, err
			},
			detach: func(att *Attachment) error { _, err := pod.DetachRemoteMemory(att); return err },
			check:  pod.CheckInvariants,
		},
		"row": {
			reserve: func(owner string, vcpus int, local brick.Bytes) (topo.RowBrickID, error) {
				id, _, err := row.ReserveCompute(owner, vcpus, local)
				return id, err
			},
			release: row.ReleaseCompute,
			attach: func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error) {
				att, _, err := row.AttachRemoteMemory(owner, cpu, size)
				return att, err
			},
			detach: func(att *Attachment) error { _, err := row.DetachRemoteMemory(att); return err },
			check:  row.CheckInvariants,
		},
	}
}

// TestStaleHandleNeverAliasesLiveAttachment detaches an attachment,
// attaches again on the same compute brick and presents the stale
// handle: the detach must be refused as not live, the new attachment
// must stay live and the invariants must hold. A sequential detach
// hands its caller back a handle it may keep, so it must not return the
// attachment to the arena the next attach draws from — if it did, the
// stale handle would be the live attachment and this detach would tear
// it down.
func TestStaleHandleNeverAliasesLiveAttachment(t *testing.T) {
	for _, name := range []string{"rack", "pod", "row"} {
		t.Run(name, func(t *testing.T) {
			e := seqTiers(t, PolicyFirstFit)[name]
			cpu, err := e.reserve("vm", 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			stale, err := e.attach("vm", cpu, brick.GiB)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.detach(stale); err != nil {
				t.Fatal(err)
			}
			fresh, err := e.attach("vm", cpu, brick.GiB)
			if err != nil {
				t.Fatal(err)
			}
			if fresh == stale {
				t.Fatal("the re-attach reused the detached handle")
			}
			err = e.detach(stale)
			if err == nil || !strings.Contains(err.Error(), "not live") {
				t.Fatalf("stale detach: err %v, want the not-live refusal", err)
			}
			if err := e.check(); err != nil {
				t.Fatalf("after the stale detach: %v", err)
			}
			if err := e.detach(fresh); err != nil {
				t.Fatalf("the new attachment is no longer live: %v", err)
			}
			if err := e.release(cpu, 1, 0); err != nil {
				t.Fatal(err)
			}
			if err := e.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSequentialCycleAllocs pins the cost of the sequential entry
// points, which run the group commit's bodies: a warmed reserve +
// attach + detach + release cycle at the pod and the row allocates at
// most once — the attachment, which a sequential detach leaves to its
// caller's handle (TestStaleHandleNeverAliasesLiveAttachment) instead of
// the arena.
func TestSequentialCycleAllocs(t *testing.T) {
	for _, policy := range []Policy{PolicyFirstFit, PolicySpread} {
		for _, name := range []string{"pod", "row"} {
			t.Run(fmt.Sprintf("%s/%v", name, policy), func(t *testing.T) {
				e := seqTiers(t, policy)[name]
				cycle := func() {
					cpu, err := e.reserve("vm", 1, brick.GiB)
					if err != nil {
						t.Fatal(err)
					}
					att, err := e.attach("vm", cpu, 2*brick.GiB)
					if err != nil {
						t.Fatal(err)
					}
					if err := e.detach(att); err != nil {
						t.Fatal(err)
					}
					if err := e.release(cpu, 1, brick.GiB); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ {
					cycle() // warm the batch scratch and arenas
				}
				if n := testing.AllocsPerRun(20, cycle); n > 1 {
					t.Fatalf("sequential cycle allocates %.1f/op, want at most 1", n)
				}
				if err := e.check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
