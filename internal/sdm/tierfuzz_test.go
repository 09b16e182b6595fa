package sdm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/topo"
)

// fuzzTier is one tier under FuzzTierSequential: its sequential entry
// points by row path (a pod ignores the pod coordinate) and the views
// the oracle reads.
type fuzzTier struct {
	reserve func(owner string, vcpus int, local brick.Bytes) (topo.RowBrickID, error)
	release func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error
	attach  func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error)
	detach  func(att *Attachment) error
	check   func() error
	// pod is the pod whose movers act on a path's pod coordinate, or
	// nil when the coordinate names no pod.
	pod func(p int) *PodScheduler
	// racks lists every rack; pods and perPod are the tier's shape.
	racks        []*Controller
	pods, perPod int
}

func newFuzzTier(t *testing.T, row bool, policy Policy) *fuzzTier {
	cfg := DefaultConfig
	cfg.Policy = policy
	if !row {
		s := buildBatchPod(t, 3, 1, 1, 4*brick.GiB, cfg)
		return &fuzzTier{
			reserve: func(owner string, vcpus int, local brick.Bytes) (topo.RowBrickID, error) {
				id, _, err := s.ReserveCompute(owner, vcpus, local)
				return topo.RowBrickID{Rack: id.Rack, Brick: id.Brick}, err
			},
			release: func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error {
				return s.ReleaseCompute(topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, vcpus, local)
			},
			attach: func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error) {
				att, _, err := s.AttachRemoteMemory(owner, topo.PodBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, size)
				return att, err
			},
			detach: func(att *Attachment) error { _, err := s.DetachRemoteMemory(att); return err },
			check:  s.CheckInvariants,
			pod:    func(int) *PodScheduler { return s },
			racks:  s.racks,
			pods:   1, perPod: s.Racks(),
		}
	}
	s := buildRowSched(t, 2, 2, 4*brick.GiB, cfg)
	x := &fuzzTier{
		reserve: func(owner string, vcpus int, local brick.Bytes) (topo.RowBrickID, error) {
			id, _, err := s.ReserveCompute(owner, vcpus, local)
			return id, err
		},
		release: s.ReleaseCompute,
		attach: func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, error) {
			att, _, err := s.AttachRemoteMemory(owner, cpu, size)
			return att, err
		},
		detach: func(att *Attachment) error { _, err := s.DetachRemoteMemory(att); return err },
		check:  s.CheckInvariants,
		pod:    s.Pod,
		pods:   s.Pods(), perPod: s.Pod(0).Racks(),
	}
	for _, p := range s.pods {
		x.racks = append(x.racks, p.racks...)
	}
	return x
}

// fuzzVM is one live compute reservation of the trace.
type fuzzVM struct {
	owner string
	cpu   topo.RowBrickID
	vcpus int
	local brick.Bytes
}

// FuzzTierSequential drives a pod's or a row's sequential entry points
// (shells over the group commit) and the pod movers with hostile shapes
// and forged or stale attachments. data[0] bit 0 selects the row mode (a 2-pod × 2-rack row
// instead of a 3-rack pod) and bits 1–2 the policy; then two bytes per
// call, an opcode and its argument a:
//
//	op%7 == 0  ReserveCompute of a%6-1 vCPUs (so 0 and -1 too) and
//	           (a>>3)%3 GiB local
//	1          ReleaseCompute of a live VM; a bit 7: an address naming
//	           no brick, which must be refused
//	2          AttachRemoteMemory of (a%5)/2 GiB (zero too; a bit 6:
//	           64 GiB, doomed) from a live VM; a bit 7: an address
//	           naming no brick
//	3          DetachRemoteMemory of an attachment
//	4          Repoint an attachment to rack (a>>2)%(racks+1) of its pod
//	5          Rehome an attachment to rack (a>>2)%(racks+1) of its pod
//	6          Promote an attachment
//
// Opcodes 3–6 take a live attachment, or with a bit 7 a stale one
// (a bit 6) or a forged one naming coordinates in and out of range.
// The oracle: nothing panics, CheckInvariants holds after every call, a
// pod mover refuses a cross-pod attachment as cross-pod, and a final
// drain — every live attachment detached newest first, every VM
// released — brings every rack back to its initial free cores and
// memory. The seed corpus lives in testdata/fuzz/FuzzTierSequential:
// "forged-rack-movers" hands every pod mover an attachment naming a
// rack outside the pod, which each must refuse before indexing the
// pod's racks; "cross-pod-movers" rehomes, promotes and repoints a
// cross-pod attachment, which each must refuse as cross-pod;
// "pod-refusals-stale-reattach" and "row-refusals-stale-reattach"
// reserve 0 and -1 vCPUs and attach 0 bytes, which the entry points
// refuse before the group commit, then detach an attachment, attach
// again on the same compute brick and detach the stale handle, which
// must be refused as not live.
func FuzzTierSequential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 129 {
			data = data[:129]
		}
		x := newFuzzTier(t, data[0]&1 == 1, Policy((data[0]>>1)%3))
		type free struct {
			cores int
			mem   brick.Bytes
		}
		initial := make([]free, len(x.racks))
		for i, r := range x.racks {
			initial[i] = free{r.FreeCores(), r.FreeMemory()}
		}
		var (
			vms        []fuzzVM
			live, dead []*Attachment
		)
		// forgedPath builds an address naming no compute brick of the
		// tier: a pod or rack one past either end, or a brick that does
		// not exist.
		forgedPath := func(a byte) topo.RowBrickID {
			p := topo.RowBrickID{Pod: int(a) % x.pods, Rack: int(a>>1) % x.perPod, Brick: topo.BrickID{Tray: 9, Slot: 9}}
			end := int(a >> 5 & 1)
			switch (a >> 3) % 4 {
			case 1:
				p.Pod = end*(x.pods+1) - 1
			case 2:
				p.Rack, p.Brick = end*(x.perPod+1)-1, x.racks[0].computeOrder[0]
			}
			return p
		}
		// A forged attachment names coordinates in range or one past
		// either end.
		coord := func(a byte, n int) int { return int(a)%(n+2) - 1 }
		target := func(a byte) *Attachment {
			switch {
			case a&0x80 == 0 && len(live) > 0:
				return live[int(a)%len(live)]
			case a&0x40 != 0 && len(dead) > 0:
				return dead[int(a)%len(dead)]
			}
			pod := coord(a, x.pods)
			return &Attachment{Owner: "ghost", CPU: x.racks[0].computeOrder[0],
				CPUPod: pod, CPURack: coord(a>>2, x.perPod), MemPod: pod, MemRack: coord(a>>4, x.perPod)}
		}
		podOf := func(att *Attachment) *PodScheduler {
			if p := x.pod(att.CPUPod); p != nil {
				return p
			}
			return x.pod(0)
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, a := data[i]%7, data[i+1]
			var (
				err  error
				desc string
				att  *Attachment
			)
			switch op {
			case 0:
				v := fuzzVM{owner: fmt.Sprintf("vm%d", i), vcpus: int(a%6) - 1, local: brick.Bytes((a>>3)%3) * brick.GiB}
				desc = fmt.Sprintf("reserve %d vCPUs %v", v.vcpus, v.local)
				if v.cpu, err = x.reserve(v.owner, v.vcpus, v.local); err == nil {
					vms = append(vms, v)
				}
			case 1:
				if a&0x80 != 0 || len(vms) == 0 {
					p := forgedPath(a)
					desc = fmt.Sprintf("release forged %v", p)
					if err = x.release(p, 1, 0); err == nil {
						t.Fatalf("call %d: %s succeeded", i, desc)
					}
					break
				}
				k := int(a) % len(vms)
				desc = fmt.Sprintf("release %s", vms[k].owner)
				if err = x.release(vms[k].cpu, vms[k].vcpus, vms[k].local); err != nil {
					t.Fatalf("call %d: %s: %v", i, desc, err)
				}
				vms = append(vms[:k], vms[k+1:]...)
			case 2:
				size := brick.Bytes(a%5) * brick.GiB / 2
				if a&0x40 != 0 {
					size = 64 * brick.GiB
				}
				var cpu topo.RowBrickID
				if a&0x80 != 0 || len(vms) == 0 {
					cpu = forgedPath(a)
				} else {
					cpu = vms[int(a)%len(vms)].cpu
				}
				desc = fmt.Sprintf("attach %v from %v", size, cpu)
				if att, err = x.attach(fmt.Sprintf("att%d", i), cpu, size); err == nil {
					live = append(live, att)
				}
			default:
				att = target(a)
				rack := int(a>>2) % (x.perPod + 1)
				crossPod := att.spill != nil && att.spill.level == rowLevel
				switch op {
				case 3:
					desc = fmt.Sprintf("detach %q", att.Owner)
					if err = x.detach(att); err == nil {
						for k, l := range live {
							if l == att {
								live = append(live[:k:k], live[k+1:]...)
							}
						}
						dead = append(dead, att)
					}
				case 4:
					desc = fmt.Sprintf("repoint %q to rack %d", att.Owner, rack)
					cpu := x.racks[0].computeOrder[0]
					if r := podOf(att).Rack(rack); r != nil {
						cpu = r.computeOrder[0]
					}
					_, _, err = podOf(att).Repoint(att, topo.PodBrickID{Rack: rack, Brick: cpu})
				case 5:
					desc = fmt.Sprintf("rehome %q to rack %d", att.Owner, rack)
					_, err = podOf(att).Rehome(att, rack)
				case 6:
					desc = fmt.Sprintf("promote %q", att.Owner)
					_, err = podOf(att).Promote(att)
				}
				if crossPod && op >= 4 && (err == nil || !strings.Contains(err.Error(), "cross-pod attachment")) {
					t.Fatalf("call %d: %s of a cross-pod attachment: err %v, want the cross-pod refusal", i, desc, err)
				}
			}
			if cerr := x.check(); cerr != nil {
				t.Fatalf("call %d: %s (err %v): invariants: %v", i, desc, err, cerr)
			}
		}
		// Drain: newest attachment first, so packet riders go before their
		// hosts, then every compute reservation.
		for k := len(live) - 1; k >= 0; k-- {
			if err := x.detach(live[k]); err != nil {
				t.Fatalf("drain: detach %q: %v", live[k].Owner, err)
			}
		}
		for _, v := range vms {
			if err := x.release(v.cpu, v.vcpus, v.local); err != nil {
				t.Fatalf("drain: release %s: %v", v.owner, err)
			}
		}
		if err := x.check(); err != nil {
			t.Fatalf("drain: invariants: %v", err)
		}
		for i, r := range x.racks {
			if got := (free{r.FreeCores(), r.FreeMemory()}); got != initial[i] {
				t.Fatalf("drain: rack %d holds %+v free, started with %+v", i, got, initial[i])
			}
		}
	})
}
