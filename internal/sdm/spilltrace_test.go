package sdm

// The golden spill trace: a fixed script drives a pod and a 2-pod row
// through every spill path — cross-rack and cross-pod circuits, the
// packet fallback at the rack, pod and row tiers, per-request and
// batched attach and detach, a pod re-point of a spilled attachment,
// rolled-back evictions and the failure surfaces — and records one
// line per operation. The FNV-64a of the trace is pinned, so a change
// to any placement, latency, counter or error text fails the test.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/topo"
)

// spillTraceDigest is the FNV-64a of the golden spill trace.
const spillTraceDigest = "e51b33147d6178d9"

// spillTrace accumulates the trace lines.
type spillTrace struct{ lines []string }

func (tr *spillTrace) add(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

// att records one attach-shaped outcome.
func (tr *spillTrace) att(op string, a *Attachment, lat sim.Duration, err error) {
	tr.add("%s: %s lat=%v err=%v", op, spillAttLine(a), lat, err)
}

// lat records one detach- or re-point-shaped outcome.
func (tr *spillTrace) lat(op string, lat sim.Duration, err error) {
	tr.add("%s: lat=%v err=%v", op, lat, err)
}

// spillAttLine renders an attachment's coordinates, ports, mode and
// circuit.
func spillAttLine(a *Attachment) string {
	if a == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s cpu=p%d.r%d.%v mem=p%d.r%d.%v+%v/%v ports=%v/%v win=%#x mode=%v riders=%d hops=%d fiber=%v cross=%t/%t",
		a.Owner, a.CPUPod, a.CPURack, a.CPU, a.MemPod, a.MemRack, a.Segment.Brick, a.Segment.Offset, a.Segment.Size,
		a.CPUPort, a.MemPort, a.Window.Base, a.Mode, a.Circuit.Riders, a.Circuit.Hops, a.Circuit.FiberMeters,
		a.CrossRack(), a.CrossPod())
}

// podState records every live attachment of the pod in rack and
// registration order, the tier counters and, for a standalone pod, the
// invariant check (a row checks its pods itself).
func (tr *spillTrace) podState(tag string, s *PodScheduler, check bool) {
	for r, c := range s.racks {
		for _, list := range c.attachments {
			for _, a := range list {
				tr.add("%s: rack%d %s", tag, r, spillAttLine(a))
			}
		}
		req, fail := c.Stats()
		tr.add("%s: rack%d stats=%d/%d uplinks=%d", tag, r, req, fail, s.fabric.FreeUplinks(r))
	}
	req, fail, spill := s.Stats()
	tr.add("%s: pod stats=%d/%d/%d cross=%d", tag, req, fail, spill, s.fabric.CrossCircuits())
	if check {
		tr.add("%s: invariants=%v", tag, s.CheckInvariants())
	}
}

// rowState is podState for every pod of the row plus the row tier.
func (tr *spillTrace) rowState(tag string, s *RowScheduler) {
	for p, ps := range s.pods {
		tr.podState(fmt.Sprintf("%s: pod%d", tag, p), ps, false)
		tr.add("%s: pod%d rowUplinks=%d", tag, p, s.fabric.FreeUplinks(p))
	}
	req, fail, spill := s.Stats()
	tr.add("%s: row stats=%d/%d/%d cross=%d invariants=%v", tag, req, fail, spill, s.fabric.CrossCircuits(), s.CheckInvariants())
}

// spillTraceRow builds a row of pods×racks racks, each one compute and
// one memory brick with four ports, with the given uplinks per rack
// (pod switch) and per pod (row switch).
func spillTraceRow(t *testing.T, pods, racks, podUplinks, rowUplinks int, cfg Config) *RowScheduler {
	t.Helper()
	row, err := topo.BuildRow(pods, racks, topo.BuildSpec{
		Trays: 1, ComputePerTray: 1, MemoryPerTray: 1, PortsPerBrick: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	podProf := optical.DefaultPodProfile
	podProf.UplinksPerRack = podUplinks
	rowProf := optical.DefaultRowProfile
	rowProf.UplinksPerPod = rowUplinks
	podFabrics := make([]*optical.PodFabric, pods)
	for p := range podFabrics {
		fabrics := make([]*optical.Fabric, racks)
		for i := range fabrics {
			sw, err := optical.NewSwitch(optical.SwitchConfig{
				Ports: 16, InsertionLossDB: 1, PortPowerW: 0.1, ReconfigTime: 25 * sim.Millisecond,
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
	return s
}

// reversed returns atts newest-first, so packet riders precede their
// hosts in an eviction.
func reversed(atts []*Attachment) []*Attachment {
	out := make([]*Attachment, len(atts))
	for i, a := range atts {
		out[len(atts)-1-i] = a
	}
	return out
}

// podSpillScript drives the pod half of the trace: four racks of two
// compute bricks and one 8 GiB memory brick, one pod uplink per rack.
func podSpillScript(t *testing.T, tr *spillTrace, fallback bool) {
	cfg := DefaultConfig
	cfg.PacketFallback = fallback
	s := buildPodSchedSpec(t, 4, 8*brick.GiB, 1, cfg, 2)
	cpu := func(r, i int) topo.PodBrickID { return topo.PodBrickID{Rack: r, Brick: s.racks[r].computeOrder[i]} }
	attach := func(op, owner string, at topo.PodBrickID, size brick.Bytes) *Attachment {
		a, lat, err := s.AttachRemoteMemory(owner, at, size)
		tr.att(op, a, lat, err)
		return a
	}
	tag := fmt.Sprintf("pod fallback=%t", fallback)

	a1 := attach(tag+" rack-local", "vm-a", cpu(0, 0), 6*brick.GiB)
	a2 := attach(tag+" cross-rack circuit", "vm-a", cpu(0, 0), 4*brick.GiB)
	a3 := attach(tag+" uplink-starved packet", "vm-a", cpu(0, 0), 3*brick.GiB)
	attach(tag+" packet host full", "vm-a", cpu(0, 0), 3*brick.GiB)
	attach(tag+" doomed spill", "vm-a", cpu(0, 0), 9*brick.GiB)
	tr.podState(tag+" attached", s, true)
	if !fallback {
		return
	}

	lat, err := s.DetachRemoteMemory(a2)
	tr.lat(tag+" detach host with riders", lat, err)
	lat, err = s.DetachRemoteMemory(a3)
	tr.lat(tag+" detach packet rider", lat, err)
	w, lat, err := s.Repoint(a2, cpu(0, 1))
	tr.lat(fmt.Sprintf("%s repoint cross within rack win=%#x", tag, w.Base), lat, err)
	w, lat, err = s.Repoint(a2, cpu(1, 0))
	tr.lat(fmt.Sprintf("%s repoint cross onto memory rack win=%#x", tag, w.Base), lat, err)
	w, lat, err = s.Repoint(a1, cpu(2, 0))
	tr.lat(fmt.Sprintf("%s repoint rack-local cross win=%#x", tag, w.Base), lat, err)
	tr.podState(tag+" repointed", s, true)
	lat, err = s.DetachRemoteMemory(a1)
	tr.lat(tag+" detach repointed cross", lat, err)
	lat, err = s.DetachRemoteMemory(a1)
	tr.lat(tag+" detach not live", lat, err)

	// Retire vm-a whole: first poisoned with the already-detached a1, so
	// every teardown before it rolls back, then for real.
	vm := reversed(s.Attachments("vm-a"))
	ev := []EvictRequest{{Owner: "vm-a", CPU: cpu(1, 0).Brick, Rack: 1, Atts: append(append([]*Attachment(nil), vm...), a1)}}
	eout := make([]EvictResult, 1)
	err = s.EvictBatchInto(ev, eout, 0)
	tr.add("%s evict vm-a rolled back: err=%v", tag, err)
	ev[0].Atts = vm
	err = s.EvictBatchInto(ev, eout, 0)
	tr.add("%s evict vm-a: err=%v lat=%v detached=%d", tag, err, eout[0].DetachLat, eout[0].Detached)
	tr.podState(tag+" vm-a evicted", s, true)

	// Batched admission: two VMs fit rack 0, the third spills
	// cross-rack through the merge and the fourth rides its circuit.
	reqs := make([]AdmitRequest, 4)
	for i := range reqs {
		reqs[i] = AdmitRequest{Owner: fmt.Sprintf("vm-b%d", i), VCPUs: 1, LocalMem: brick.GiB, Remote: 3 * brick.GiB}
	}
	out := make([]AdmitResult, len(reqs))
	err = s.AdmitBatchInto(reqs, out, 0)
	tr.add("%s admit batch: err=%v", tag, err)
	for i, res := range out {
		tr.att(fmt.Sprintf("%s admit %d rack=%d cpu=%v clat=%v", tag, i, res.Rack, res.CPU, res.ComputeLat), res.Att, res.AttachLat, res.Err)
	}
	// An oversized burst cannot be served and rolls back whole.
	big := []AdmitRequest{
		{Owner: "vm-c0", VCPUs: 1, LocalMem: brick.GiB, Remote: 2 * brick.GiB},
		{Owner: "vm-c1", VCPUs: 1, LocalMem: brick.GiB, Remote: 7 * brick.GiB},
	}
	_, err = s.AdmitBatch(big)
	tr.add("%s admit batch rolled back: err=%v", tag, err)
	tr.podState(tag+" admitted", s, true)

	// Newest VM first, so packet riders retire before their hosts.
	evs := make([]EvictRequest, len(reqs))
	for i, res := range out {
		evs[len(reqs)-1-i] = EvictRequest{Owner: reqs[i].Owner, CPU: res.CPU, Rack: res.Rack, VCPUs: 1, LocalMem: brick.GiB,
			Atts: reversed(s.Attachments(reqs[i].Owner))}
	}
	poisoned := append([]EvictRequest(nil), evs...)
	last := &poisoned[len(poisoned)-1]
	last.Atts = append(append([]*Attachment(nil), last.Atts...), a1)
	eout = make([]EvictResult, len(poisoned))
	err = s.EvictBatchInto(poisoned, eout, 0)
	tr.add("%s evict batch rolled back: err=%v", tag, err)
	tr.podState(tag+" after rollback", s, true)
	err = s.EvictBatchInto(evs, eout, 0)
	tr.add("%s evict batch: err=%v", tag, err)
	for i, res := range eout {
		tr.add("%s evict %d: lat=%v detached=%d", tag, i, res.DetachLat, res.Detached)
	}
	tr.podState(tag+" evicted", s, true)
}

// rowSpillScript drives the row half of the trace: two pods of two
// racks, one compute and one 8 GiB memory brick each with four ports,
// one uplink per rack on the pod switch and per pod on the row switch.
func rowSpillScript(t *testing.T, tr *spillTrace, fallback bool) {
	cfg := DefaultConfig
	cfg.PacketFallback = fallback
	s := spillTraceRow(t, 2, 2, 1, 1, cfg)
	home := topo.RowBrickID{Pod: 0, Rack: 0, Brick: s.pods[0].racks[0].computeOrder[0]}
	attach := func(op string, size brick.Bytes) *Attachment {
		a, lat, err := s.AttachRemoteMemory("vm-r", home, size)
		tr.att(op, a, lat, err)
		return a
	}
	tag := fmt.Sprintf("row fallback=%t", fallback)

	attach(tag+" rack-local", 6*brick.GiB)
	attach(tag+" cross-rack circuit", 6*brick.GiB)
	r3 := attach(tag+" cross-pod circuit", 3*brick.GiB)
	r4 := attach(tag+" uplink-starved cross-pod packet", 3*brick.GiB)
	attach(tag+" rack-local last port", brick.GiB)
	attach(tag+" port-starved rack packet", brick.GiB)
	attach(tag+" port-starved cross-rack packet", 2*brick.GiB)
	r8 := attach(tag+" port-starved cross-pod packet", brick.GiB)
	attach(tag+" cross-pod packet host full", 2*brick.GiB)
	attach(tag+" doomed spill", 9*brick.GiB)
	tr.rowState(tag+" attached", s)
	if !fallback {
		return
	}

	lat, err := s.DetachRemoteMemory(r3)
	tr.lat(tag+" detach host with riders", lat, err)
	lat, err = s.DetachRemoteMemory(r8)
	tr.lat(tag+" detach cross-pod packet", lat, err)
	lat, err = s.DetachRemoteMemory(r8)
	tr.lat(tag+" detach not live", lat, err)
	_, lat, err = s.pods[0].Repoint(r4, topo.PodBrickID{Rack: 1, Brick: s.pods[0].racks[1].computeOrder[0]})
	tr.lat(tag+" pod repoint of cross-pod", lat, err)
	lat, err = s.DetachRemoteMemory(r4)
	tr.lat(tag+" detach last cross-pod rider", lat, err)
	lat, err = s.DetachRemoteMemory(r3)
	tr.lat(tag+" detach cross-pod circuit", lat, err)

	atts := reversed(s.Attachments("vm-r"))
	ev := []EvictRequest{{Owner: "vm-r", CPU: home.Brick, Pod: 0, Rack: 0, Atts: append(append([]*Attachment(nil), atts...), r8)}}
	eout := make([]EvictResult, 1)
	err = s.EvictBatchInto(ev, eout, 0)
	tr.add("%s evict batch rolled back: err=%v", tag, err)
	tr.rowState(tag+" after rollback", s)
	ev[0].Atts = atts
	err = s.EvictBatchInto(ev, eout, 0)
	tr.add("%s evict batch: err=%v lat=%v detached=%d", tag, err, eout[0].DetachLat, eout[0].Detached)
	tr.rowState(tag+" evicted", s)

	// Batched admission: two VMs fit the home rack, the next two spill
	// cross-rack in the pod shard merge (circuit, then packet), the last
	// two cross-pod in the row merge (circuit, then packet).
	reqs := make([]AdmitRequest, 6)
	for i := range reqs {
		reqs[i] = AdmitRequest{Owner: fmt.Sprintf("vm-s%d", i), VCPUs: 1, LocalMem: brick.GiB, Remote: 3 * brick.GiB}
	}
	out := make([]AdmitResult, len(reqs))
	err = s.AdmitBatchInto(reqs, out, 0)
	tr.add("%s admit batch: err=%v", tag, err)
	for i, res := range out {
		tr.att(fmt.Sprintf("%s admit %d pod=%d rack=%d cpu=%v clat=%v", tag, i, res.Pod, res.Rack, res.CPU, res.ComputeLat), res.Att, res.AttachLat, res.Err)
	}
	big := []AdmitRequest{
		{Owner: "vm-t0", VCPUs: 1, LocalMem: brick.GiB, Remote: brick.GiB},
		{Owner: "vm-t1", VCPUs: 1, LocalMem: brick.GiB, Remote: 7 * brick.GiB},
	}
	_, err = s.AdmitBatch(big)
	tr.add("%s admit batch rolled back: err=%v", tag, err)
	tr.rowState(tag+" admitted", s)
	evs := make([]EvictRequest, len(reqs))
	for i, res := range out {
		evs[len(reqs)-1-i] = EvictRequest{Owner: reqs[i].Owner, CPU: res.CPU, Pod: res.Pod, Rack: res.Rack, VCPUs: 1, LocalMem: brick.GiB,
			Atts: reversed(s.Attachments(reqs[i].Owner))}
	}
	poisoned := append([]EvictRequest(nil), evs...)
	last := &poisoned[len(poisoned)-1]
	last.Atts = append(append([]*Attachment(nil), last.Atts...), r8)
	eout = make([]EvictResult, len(evs))
	err = s.EvictBatchInto(poisoned, eout, 0)
	tr.add("%s evict admitted rolled back: err=%v", tag, err)
	tr.rowState(tag+" after admitted rollback", s)
	err = s.EvictBatchInto(evs, eout, 0)
	tr.add("%s evict admitted: err=%v", tag, err)
	for i, res := range eout {
		tr.add("%s evict %d: lat=%v detached=%d", tag, i, res.DetachLat, res.Detached)
	}
	tr.rowState(tag+" drained", s)
}

// TestGoldenSpillTrace runs the scripts with the packet fallback on and
// off and compares the trace digest against the pinned one.
func TestGoldenSpillTrace(t *testing.T) {
	var tr spillTrace
	for _, fallback := range []bool{true, false} {
		podSpillScript(t, &tr, fallback)
		rowSpillScript(t, &tr, fallback)
	}
	h := fnv.New64a()
	for _, l := range tr.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != spillTraceDigest {
		t.Errorf("spill trace digest %s, want %s; trace:\n%s", got, spillTraceDigest, strings.Join(tr.lines, "\n"))
	}
}
