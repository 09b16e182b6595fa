package sdm

// Registry-order property tests. The rack registry is one unordered
// live list whose attachments carry a slot and a registration stamp;
// every order-dependent reader (the Attachments queries at each tier
// and Snapshot) sorts by stamp. The model here keeps per-owner lists
// the way an order-preserving registry would — append on attach,
// order-preserving remove on detach, re-insert at the recorded index
// when a journal replays — and a seeded random trace checks every
// reader against it after each step.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/brick"
	"repro/internal/topo"
)

// regKey names a rack by pod and rack index.
type regKey struct{ pod, rack int }

// regModel is the per-owner list registry the live list must match.
type regModel struct {
	lists map[regKey]map[string][]*Attachment
	where map[*Attachment]regKey
}

func newRegModel() *regModel {
	return &regModel{lists: make(map[regKey]map[string][]*Attachment), where: make(map[*Attachment]regKey)}
}

// add appends att to its owner's list on its compute rack.
func (m *regModel) add(att *Attachment) {
	k := regKey{att.CPUPod, att.CPURack}
	if m.lists[k] == nil {
		m.lists[k] = make(map[string][]*Attachment)
	}
	m.lists[k][att.Owner] = append(m.lists[k][att.Owner], att)
	m.where[att] = k
}

// remove drops att from its owner's list, preserving order, and returns
// the index it held.
func (m *regModel) remove(att *Attachment) int {
	k := m.where[att]
	list := m.lists[k][att.Owner]
	for i, a := range list {
		if a == att {
			m.lists[k][att.Owner] = append(list[:i:i], list[i+1:]...)
			delete(m.where, att)
			return i
		}
	}
	panic("model: attachment not live")
}

// insert puts att back at index i of its owner's list on rack k.
func (m *regModel) insert(k regKey, att *Attachment, i int) {
	list := m.lists[k][att.Owner]
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = att
	m.lists[k][att.Owner] = list
	m.where[att] = k
}

// rollback replays an aborted teardown of atts: remove each in order,
// journaling its index, then re-insert in reverse at the recorded
// indexes.
func (m *regModel) rollback(atts []*Attachment) {
	type rec struct {
		k   regKey
		att *Attachment
		i   int
	}
	var journal []rec
	for _, att := range atts {
		if k, ok := m.where[att]; ok {
			journal = append(journal, rec{k, att, m.remove(att)})
		}
	}
	for j := len(journal) - 1; j >= 0; j-- {
		m.insert(journal[j].k, journal[j].att, journal[j].i)
	}
}

// live reports whether the model holds att.
func (m *regModel) live(att *Attachment) bool {
	_, ok := m.where[att]
	return ok
}

// regFleet drives one standalone pod (row nil) or one row.
type regFleet struct {
	row  *RowScheduler
	pods []*PodScheduler
}

func (f *regFleet) attach(owner string, p, r, b int, size brick.Bytes) (*Attachment, error) {
	cpu := f.pods[p].racks[r].computeOrder[b]
	if f.row != nil {
		att, _, err := f.row.AttachRemoteMemory(owner, topo.RowBrickID{Pod: p, Rack: r, Brick: cpu}, size)
		return att, err
	}
	att, _, err := f.pods[0].AttachRemoteMemory(owner, topo.PodBrickID{Rack: r, Brick: cpu}, size)
	return att, err
}

func (f *regFleet) detach(att *Attachment) error {
	if f.row != nil {
		_, err := f.row.DetachRemoteMemory(att)
		return err
	}
	_, err := f.pods[0].DetachRemoteMemory(att)
	return err
}

func (f *regFleet) evict(reqs []EvictRequest) error {
	out := make([]EvictResult, len(reqs))
	if f.row != nil {
		return f.row.EvictBatchInto(reqs, out, 0)
	}
	return f.pods[0].EvictBatchInto(reqs, out, 0)
}

func (f *regFleet) checkInvariants() error {
	if f.row != nil {
		return f.row.CheckInvariants()
	}
	return f.pods[0].CheckInvariants()
}

// check compares every order-dependent registry reader against the
// model.
func (f *regFleet) check(m *regModel, owners []string) error {
	sentinel := &Attachment{}
	want := func(k regKey, owner string) []*Attachment { return m.lists[k][owner] }
	same := func(a, b []*Attachment) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, owner := range owners {
		var rowWant []*Attachment
		for p, ps := range f.pods {
			var podWant []*Attachment
			for r, c := range ps.racks {
				w := want(regKey{p, r}, owner)
				if got := c.Attachments(owner); !same(got, w) {
					return fmt.Errorf("rack p%d.r%d Attachments(%q): %d attachments, model %d", p, r, owner, len(got), len(w))
				}
				if got := c.AppendAttachments([]*Attachment{sentinel}, owner); got[0] != sentinel || !same(got[1:], w) {
					return fmt.Errorf("rack p%d.r%d AppendAttachments(%q) differs from the model", p, r, owner)
				}
				if podWant == nil && len(w) > 0 {
					podWant = w
				}
			}
			if got := ps.Attachments(owner); !same(got, podWant) {
				return fmt.Errorf("pod %d Attachments(%q) differs from the model", p, owner)
			}
			if got := ps.AppendAttachments([]*Attachment{sentinel}, owner); got[0] != sentinel || !same(got[1:], podWant) {
				return fmt.Errorf("pod %d AppendAttachments(%q) differs from the model", p, owner)
			}
			if rowWant == nil && len(podWant) > 0 {
				rowWant = podWant
			}
		}
		if f.row != nil {
			if got := f.row.Attachments(owner); !same(got, rowWant) {
				return fmt.Errorf("row Attachments(%q) differs from the model", owner)
			}
			if got := f.row.AppendAttachments([]*Attachment{sentinel}, owner); got[0] != sentinel || !same(got[1:], rowWant) {
				return fmt.Errorf("row AppendAttachments(%q) differs from the model", owner)
			}
		}
	}
	// Snapshot: rack circuit hosts in host-index order, then every other
	// attachment by owner name, each owner's in model order.
	sorted := append([]string(nil), owners...)
	sort.Strings(sorted)
	for p, ps := range f.pods {
		for r, c := range ps.racks {
			var exp []AttachmentState
			hosts := make(map[*Attachment]bool)
			for _, list := range c.circuitHosts {
				for _, h := range list {
					exp = append(exp, c.attachmentState(h))
					hosts[h] = true
				}
			}
			for _, owner := range sorted {
				for _, att := range want(regKey{p, r}, owner) {
					if !hosts[att] {
						exp = append(exp, c.attachmentState(att))
					}
				}
			}
			if got := c.Snapshot().Attachments; !reflect.DeepEqual(got, exp) {
				return fmt.Errorf("rack p%d.r%d Snapshot attachments:\n got %+v\nwant %+v", p, r, got, exp)
			}
		}
	}
	return f.checkInvariants()
}

// regCoverage counts what a trace exercised.
type regCoverage struct {
	local, packet, crossRack, crossPod, detached, rolledBack, evicted, repointed int
}

// regTrace runs one seeded random trace over fleet, checking the
// registry against the model after every step.
func regTrace(t *testing.T, f *regFleet, seed int64, steps int, cov *regCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	owners := []string{"vm-a", "vm-b", "vm-c", "vm-d", "vm-e"}
	m := newRegModel()
	var live []*Attachment // attachments the trace attached and has not retired
	var dead []*Attachment // per-request detaches: never recycled, so safe to poison with
	drop := func(att *Attachment) {
		for i, a := range live {
			if a == att {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	sizes := []brick.Bytes{brick.GiB / 2, brick.GiB, 2 * brick.GiB, 3 * brick.GiB, 5 * brick.GiB}
	for step := 0; step < steps; step++ {
		var op string
		switch k := rng.Intn(20); {
		case k < 9 || len(live) == 0:
			p := rng.Intn(len(f.pods))
			r := rng.Intn(len(f.pods[p].racks))
			b := rng.Intn(len(f.pods[p].racks[r].computeOrder))
			owner := owners[rng.Intn(len(owners))]
			att, err := f.attach(owner, p, r, b, sizes[rng.Intn(len(sizes))])
			op = fmt.Sprintf("attach %s at p%d.r%d.b%d: err=%v", owner, p, r, b, err)
			if err == nil {
				m.add(att)
				live = append(live, att)
				switch {
				case att.Mode == ModePacket:
					cov.packet++
				case att.CrossPod():
					cov.crossPod++
				case att.CrossRack():
					cov.crossRack++
				default:
					cov.local++
				}
			}
		case k < 13:
			// Per-request detach of a live attachment, or of a dead one,
			// which must fail "not live".
			var att *Attachment
			if len(dead) > 0 && rng.Intn(4) == 0 {
				att = dead[rng.Intn(len(dead))]
			} else {
				att = live[rng.Intn(len(live))]
			}
			err := f.detach(att)
			op = fmt.Sprintf("detach %s: err=%v", att.Owner, err)
			switch {
			case !m.live(att) && err == nil:
				t.Fatalf("seed %d step %d: %s — a dead attachment detached", seed, step, op)
			case !m.live(att) && !strings.Contains(err.Error(), "not live"):
				t.Fatalf("seed %d step %d: %s — want a not-live error", seed, step, op)
			case err == nil:
				m.remove(att)
				drop(att)
				dead = append(dead, att)
				cov.detached++
			}
		case k < 17:
			// Evict one owner's attachments on one compute rack, newest
			// first; poisoned with a dead attachment, the batch must roll
			// back whole.
			first := live[rng.Intn(len(live))]
			kf := m.where[first]
			atts := append([]*Attachment(nil), m.lists[kf][first.Owner]...)
			for i, j := 0, len(atts)-1; i < j; i, j = i+1, j-1 {
				atts[i], atts[j] = atts[j], atts[i]
			}
			poisoned := len(dead) > 0 && rng.Intn(2) == 0
			reqAtts := atts
			if poisoned {
				reqAtts = append(append([]*Attachment(nil), atts...), dead[rng.Intn(len(dead))])
			}
			err := f.evict([]EvictRequest{{Owner: first.Owner, CPU: first.CPU, Pod: kf.pod, Rack: kf.rack, Atts: reqAtts}})
			op = fmt.Sprintf("evict %s (%d atts, poisoned=%t): err=%v", first.Owner, len(atts), poisoned, err)
			switch {
			case poisoned && err == nil:
				t.Fatalf("seed %d step %d: %s — poisoned eviction committed", seed, step, op)
			case err != nil:
				m.rollback(reqAtts)
				cov.rolledBack++
			default:
				// Committed: the attachments go back to the arena and may
				// be recycled, so the trace forgets them.
				for _, att := range atts {
					m.remove(att)
					drop(att)
				}
				cov.evicted++
			}
		default:
			// Cross-rack re-point inside the attachment's compute pod.
			att := live[rng.Intn(len(live))]
			ps := f.pods[att.CPUPod]
			if att.CrossPod() || len(ps.racks) < 2 {
				continue
			}
			r := rng.Intn(len(ps.racks) - 1)
			if r >= att.CPURack {
				r++
			}
			b := rng.Intn(len(ps.racks[r].computeOrder))
			_, _, err := ps.Repoint(att, topo.PodBrickID{Rack: r, Brick: ps.racks[r].computeOrder[b]})
			op = fmt.Sprintf("repoint %s to p%d.r%d.b%d: err=%v", att.Owner, att.CPUPod, r, b, err)
			if err == nil {
				m.remove(att)
				m.add(att)
				cov.repointed++
			}
		}
		if err := f.check(m, owners); err != nil {
			t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
		}
	}
}

// TestRegistryOrderMatchesOwnerLists runs seeded random traces over a
// pod and a 2-pod row, packet fallback on and off, and requires every
// registry reader to match the per-owner list model after each step.
func TestRegistryOrderMatchesOwnerLists(t *testing.T) {
	for _, fallback := range []bool{true, false} {
		cfg := DefaultConfig
		cfg.PacketFallback = fallback
		t.Run(fmt.Sprintf("pod/fallback=%t", fallback), func(t *testing.T) {
			var cov regCoverage
			for seed := int64(1); seed <= 4; seed++ {
				s := buildPodSchedSpec(t, 4, 8*brick.GiB, 1, cfg, 2)
				regTrace(t, &regFleet{pods: []*PodScheduler{s}}, seed, 300, &cov)
			}
			t.Logf("%+v", cov)
			if cov.local == 0 || cov.crossRack == 0 || cov.detached == 0 || cov.rolledBack == 0 || cov.evicted == 0 || cov.repointed == 0 {
				t.Fatalf("trace missed a step kind: %+v", cov)
			}
			if fallback && cov.packet == 0 {
				t.Fatalf("no packet attach with the fallback on: %+v", cov)
			}
		})
		t.Run(fmt.Sprintf("row/fallback=%t", fallback), func(t *testing.T) {
			var cov regCoverage
			for seed := int64(1); seed <= 4; seed++ {
				s := spillTraceRow(t, 2, 2, 1, 1, cfg)
				regTrace(t, &regFleet{row: s, pods: s.pods}, seed, 300, &cov)
			}
			t.Logf("%+v", cov)
			if cov.local == 0 || cov.crossRack == 0 || cov.crossPod == 0 || cov.detached == 0 || cov.rolledBack == 0 || cov.evicted == 0 || cov.repointed == 0 {
				t.Fatalf("trace missed a step kind: %+v", cov)
			}
			if fallback && cov.packet == 0 {
				t.Fatalf("no packet attach with the fallback on: %+v", cov)
			}
		})
	}
}

// TestRegistryStaleSlot detaches an attachment whose old slot has since
// been refilled by another: the second detach must fail "not live" and
// count a failure, on the rack path, the batched rack path and the
// spill tier.
func TestRegistryStaleSlot(t *testing.T) {
	cfg := DefaultConfig
	s := buildPodSchedSpec(t, 2, 8*brick.GiB, 2, cfg, 1)
	rack := s.racks[0]
	cpu := topo.PodBrickID{Rack: 0, Brick: rack.computeOrder[0]}
	attach := func(owner string, size brick.Bytes) *Attachment {
		t.Helper()
		att, _, err := s.AttachRemoteMemory(owner, cpu, size)
		if err != nil {
			t.Fatal(err)
		}
		return att
	}
	stale := func(label string, a, b *Attachment, detach func(*Attachment) error, failures func() uint64) {
		t.Helper()
		if err := detach(a); err != nil {
			t.Fatalf("%s: first detach: %v", label, err)
		}
		if int(a.slot) >= len(rack.live) || rack.live[a.slot] != b {
			t.Fatalf("%s: slot %d not refilled by the moved attachment", label, a.slot)
		}
		before := failures()
		err := detach(a)
		if err == nil || !strings.Contains(err.Error(), "not live") {
			t.Fatalf("%s: stale detach err=%v, want not live", label, err)
		}
		if got := failures(); got != before+1 {
			t.Fatalf("%s: failures %d → %d, want one more", label, before, got)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	rackFailures := func() uint64 { _, f := rack.Stats(); return f }

	a, b := attach("vm-a", brick.GiB), attach("vm-b", brick.GiB)
	stale("rack", a, b, func(att *Attachment) error { _, err := rack.DetachRemoteMemory(att); return err }, rackFailures)

	a = attach("vm-a", brick.GiB)
	stale("rack batch", b, a, func(att *Attachment) error {
		out := make([]ReleaseResult, 1)
		rack.ReleaseBatch([]ReleaseRequest{{Owner: att.Owner, Atts: []*Attachment{att}}}, out)
		return out[0].Err
	}, rackFailures)

	// Fill rack 0's memory so the next two spill cross-rack.
	attach("ballast", 7*brick.GiB)
	x, y := attach("vm-x", brick.GiB), attach("vm-y", brick.GiB)
	if !x.CrossRack() || !y.CrossRack() {
		t.Fatal("expected cross-rack spills")
	}
	podFailures := func() uint64 { _, f, _ := s.Stats(); return f }
	stale("spill", x, y, func(att *Attachment) error { _, err := s.DetachRemoteMemory(att); return err }, podFailures)
}

// TestRegistryRestampOnWrap drives the stamp counter to its limit: the
// wrap renumbers the live list densely and keeps attach order.
func TestRegistryRestampOnWrap(t *testing.T) {
	s := buildPodSchedSpec(t, 1, 8*brick.GiB, 1, DefaultConfig, 1)
	rack := s.racks[0]
	cpu := topo.PodBrickID{Rack: 0, Brick: rack.computeOrder[0]}
	var atts []*Attachment
	for i := 0; i < 4; i++ {
		if i == 2 {
			rack.nextStamp = math.MaxUint32 - 1
		}
		att, _, err := s.AttachRemoteMemory("vm", cpu, brick.GiB)
		if err != nil {
			t.Fatal(err)
		}
		atts = append(atts, att)
	}
	if _, err := s.DetachRemoteMemory(atts[0]); err != nil {
		t.Fatal(err)
	}
	if got := s.Attachments("vm"); !reflect.DeepEqual(got, atts[1:]) {
		t.Fatalf("attach order lost across the wrap: %v", got)
	}
	if rack.nextStamp != 4 {
		t.Fatalf("counter %d after the wrap, want 4", rack.nextStamp)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAttachmentSize pins Attachment to its 240-byte size class.
func TestAttachmentSize(t *testing.T) {
	if n := unsafe.Sizeof(Attachment{}); n > 240 {
		t.Fatalf("Attachment is %d bytes, want at most 240", n)
	}
}
