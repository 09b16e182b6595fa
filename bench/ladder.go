package main

// The traced run's lockstep ladder. Every facade operation is replayed
// down a chain of twins, one layer at a time, each timed from outside
// its public entry points and each checked to place every request
// exactly where the facade did (same pod, rack, compute brick, memory
// brick, segment offset and circuit mode):
//
//	core    the facade itself (instance A)
//	tier    a PodScheduler or RowScheduler twin (B) fed the same
//	        admission and eviction requests
//	rack    standalone per-rack Controllers (C) fed the rack-local
//	        sub-batches the facade's placements imply — row workloads
//	        only: spills, migrations and re-homes move memory across
//	        racks, which a standalone rack cannot replay
//	fabric  standalone rack, pod and row fabrics (D) replaying every
//	        circuit from its recorded port pair
//	brick   standalone memory bricks (E) replaying every segment carve
//	        and release
//
// Any disagreement aborts the run: a twin that places differently is
// timing different work.

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/optical"
	"repro/internal/sdm"
	"repro/internal/topo"
)

// circKey names a circuit by its endpoints.
type circKey struct {
	cpuPod, cpuRack int32
	cpuPort         topo.PortID
	memPod, memRack int32
	memPort         topo.PortID
}

func (k circKey) crossPod() bool  { return k.cpuPod != k.memPod }
func (k circKey) crossRack() bool { return k.crossPod() || k.cpuRack != k.memRack }

// segKey names a segment by its place.
type segKey struct {
	pod, rack int32
	mem       topo.BrickID
	offset    brick.Bytes
}

// attRec is the facade's placement of one remote attachment.
type attRec struct {
	circ  circKey
	seg   segKey
	size  brick.Bytes
	mode  sdm.AttachMode
	owner string
}

func recordAtt(a *sdm.Attachment) attRec {
	return attRec{
		circ: circKey{
			cpuPod: int32(a.CPUPod), cpuRack: int32(a.CPURack), cpuPort: a.CPUPort,
			memPod: int32(a.MemPod), memRack: int32(a.MemRack), memPort: a.MemPort,
		},
		seg:   segKey{pod: int32(a.MemPod), rack: int32(a.MemRack), mem: a.Segment.Brick, offset: a.Segment.Offset},
		size:  a.Segment.Size,
		mode:  a.Mode,
		owner: a.Owner,
	}
}

// vmRec is the facade's placement of one live VM.
type vmRec struct {
	pod, rack int
	cpu       topo.BrickID
	vcpus     int
	local     brick.Bytes
	atts      []attRec
}

// twinVM is a twin's own record of a VM it admitted.
type twinVM struct {
	pod, rack int
	cpu       topo.BrickID
	vcpus     int
	local     brick.Bytes
	atts      []*sdm.Attachment
}

type fabOp struct {
	key circKey
	c   *optical.Circuit
}

type brickOp struct {
	key   segKey
	m     *brick.Memory
	size  brick.Bytes
	owner string
	seg   *brick.Segment
}

// rungSamples are the ladder's measurements: per operation for times,
// whole-run totals for counts.
type rungSamples struct {
	coreCreate, coreDestroy, coreRebalance, coreConsolidate []time.Duration
	tierAdmit, tierEvict                                    []time.Duration
	rackPlace, rackRelease, rackMaxShard                    []time.Duration
	rackShards                                              []float64
	connect, disconnect, carve, release                     []time.Duration

	vms, remote                 int // VMs admitted; those asking for remote memory
	attachments, packets        int
	connects, cross, reconfigs  int
	moved, movesFailed, consols int
}

type ladder struct {
	workers int
	a       *fixture
	tr      *tracer
	racks   int // racks per pod

	rowB *sdm.RowScheduler
	podB *sdm.PodScheduler
	// racksC holds the rack rung's controllers by pod*racks+rack; nil
	// where the rung is absent.
	racksC []*sdm.Controller
	rowD   *optical.RowFabric
	podD   *optical.PodFabric
	// bricksE holds the brick rung's memory bricks by pod*racks+rack.
	bricksE []map[topo.BrickID]*brick.Memory

	liveA    map[string]*vmRec
	ballast  []attRec
	vmB, vmC map[string]*twinVM
	circD    map[circKey]*optical.Circuit
	segE     map[segKey]*brick.Segment

	// spent is the wall time the ladder has taken so far, which the open
	// loop's clock leaves out.
	spent    time.Duration
	stepSpan int

	m                     rungSamples
	reqs0, fails0, spill0 uint64

	recs    []*vmRec
	areqs   []sdm.AdmitRequest
	aout    []sdm.AdmitResult
	ereqs   []sdm.EvictRequest
	eout    []sdm.EvictResult
	attBuf  []*sdm.Attachment
	groups  [][]int
	active  []int
	subReq  []sdm.AdmitRequest
	subOut  []sdm.AdmitResult
	relReq  []sdm.ReleaseRequest
	relOut  []sdm.ReleaseResult
	shardLo []int
	fops    []fabOp
	bops    []brickOp
	scratch []*sdm.Attachment
	one     [1]*sdm.Attachment
}

// rackAbsent is why pod workloads have no rack rung.
const rackAbsent = "pod workloads move remote memory across racks (spills, migration, re-homing), which a standalone rack cannot replay"

func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// newLadder builds every twin in the state the facade a starts in.
func newLadder(w *workload, in *inputs, a *fixture, workers int, tr *tracer) (*ladder, error) {
	rc := w.rackConfig()
	spread := w.policy == sdm.PolicySpread
	l := &ladder{
		workers: workers, a: a, tr: tr, racks: w.racks,
		liveA: make(map[string]*vmRec),
		vmB:   make(map[string]*twinVM),
		vmC:   make(map[string]*twinVM),
		circD: make(map[circKey]*optical.Circuit),
		segE:  make(map[segKey]*brick.Segment),
	}
	var pods []*topo.Pod
	if w.isRow() {
		row, rf, err := newRowFabric(w.rowConfig())
		if err != nil {
			return nil, err
		}
		if l.rowB, err = sdm.NewRowScheduler(row, rf, rc.Bricks, rc.SDM); err != nil {
			return nil, err
		}
		if spread {
			l.rowB.PowerOnAll()
		}
		rowD, rfD, err := newRowFabric(w.rowConfig())
		if err != nil {
			return nil, err
		}
		l.rowD = rfD
		for p := 0; p < rowD.Pods(); p++ {
			pods = append(pods, rowD.Pod(p))
		}
		for i := 0; i < w.pods*w.racks; i++ {
			rack, err := topo.Build(rc.Topology)
			if err != nil {
				return nil, err
			}
			fab, err := newRackFabric(rc)
			if err != nil {
				return nil, err
			}
			c, err := sdm.NewController(rack, fab, rc.Bricks, rc.SDM)
			if err != nil {
				return nil, err
			}
			if spread {
				c.PowerOnAll()
			}
			l.racksC = append(l.racksC, c)
		}
		l.groups = make([][]int, len(l.racksC))
	} else {
		pod, pf, err := newPodFabric(w.podConfig())
		if err != nil {
			return nil, err
		}
		if l.podB, err = sdm.NewPodScheduler(pod, pf, rc.Bricks, rc.SDM); err != nil {
			return nil, err
		}
		if spread {
			l.podB.PowerOnAll()
		}
		if _, err := fillHot(l.podB, pod, in.hot); err != nil {
			return nil, err
		}
		podD, pfD, err := newPodFabric(w.podConfig())
		if err != nil {
			return nil, err
		}
		l.podD = pfD
		pods = []*topo.Pod{podD}
	}
	// The fabric twin patches every brick port, as the controllers do at
	// assembly; the brick twin holds every memory brick, powered on.
	for p, pod := range pods {
		for r := 0; r < pod.Racks(); r++ {
			fab := l.podFab(p).Rack(r)
			bricks := make(map[topo.BrickID]*brick.Memory)
			for _, b := range pod.Rack(r).Bricks() {
				for port := 0; port < b.Spec.Ports; port++ {
					if err := fab.AttachPort(topo.PortID{Brick: b.ID, Port: port}); err != nil {
						return nil, err
					}
				}
				if b.Spec.Kind == topo.KindMemory {
					mc := rc.Bricks.Memory
					mc.Ports = b.Spec.Ports
					m := brick.NewMemory(b.ID, mc)
					m.PowerOn()
					bricks[b.ID] = m
				}
			}
			l.bricksE = append(l.bricksE, bricks)
		}
	}
	// The pre-fill lives on the fabric and brick twins too.
	for _, att := range a.ballast {
		l.ballast = append(l.ballast, recordAtt(att))
	}
	if err := l.connect(-1, -1, spanOpticalConnect, nil, l.ballast); err != nil {
		return nil, err
	}
	if err := l.carve(-1, -1, spanBrickCarve, nil, l.ballast, false); err != nil {
		return nil, err
	}
	l.reqs0, l.fails0, l.spill0 = l.statsB()
	return l, nil
}

func (l *ladder) podFab(p int) *optical.PodFabric {
	if l.rowD != nil {
		return l.rowD.Pod(p)
	}
	return l.podD
}

func (l *ladder) bricks(k segKey) *brick.Memory {
	return l.bricksE[int(k.pod)*l.racks+int(k.rack)][k.mem]
}

func (l *ladder) admitB(reqs []sdm.AdmitRequest, out []sdm.AdmitResult) error {
	if l.rowB != nil {
		return l.rowB.AdmitBatchInto(reqs, out, l.workers)
	}
	return l.podB.AdmitBatchInto(reqs, out, l.workers)
}

func (l *ladder) evictB(reqs []sdm.EvictRequest, out []sdm.EvictResult) error {
	if l.rowB != nil {
		return l.rowB.EvictBatchInto(reqs, out, l.workers)
	}
	return l.podB.EvictBatchInto(reqs, out, l.workers)
}

func (l *ladder) statsB() (requests, failures, spills uint64) {
	if l.rowB != nil {
		return l.rowB.Stats()
	}
	return l.podB.Stats()
}

// charge adds the time since t to the ladder's running total.
func (l *ladder) charge(t time.Time) { l.spent += time.Since(t) }

func (l *ladder) beginStep(step int) {
	t := time.Now()
	l.stepSpan = l.tr.open(spanStep, -1, step, t)
	l.charge(t)
}

func (l *ladder) endStep() { l.tr.close(l.stepSpan, time.Now()) }

// recordA reads the facade's placement of a live VM.
func (l *ladder) recordA(id string, vcpus int, local brick.Bytes) (*vmRec, error) {
	pod, rack, cpu, atts, ok := l.a.locate(id, l.scratch[:0])
	l.scratch = atts
	if !ok {
		return nil, fmt.Errorf("facade has no VM %q", id)
	}
	rec := &vmRec{pod: pod, rack: rack, cpu: cpu, vcpus: vcpus, local: local, atts: make([]attRec, len(atts))}
	for i, att := range atts {
		rec.atts[i] = recordAtt(att)
	}
	return rec, nil
}

// samePlace reports how a twin's placement of one VM differs from the
// facade's, or nil. Standalone rack controllers know no pod or rack
// coordinates, so tier is false for them.
func samePlace(rec *vmRec, pod, rack int, cpu topo.BrickID, atts []*sdm.Attachment, tier bool) error {
	if tier && (pod != rec.pod || rack != rec.rack) {
		return fmt.Errorf("compute on pod %d rack %d, facade pod %d rack %d", pod, rack, rec.pod, rec.rack)
	}
	if cpu != rec.cpu {
		return fmt.Errorf("compute brick %v, facade %v", cpu, rec.cpu)
	}
	if len(atts) != len(rec.atts) {
		return fmt.Errorf("%d attachments, facade %d", len(atts), len(rec.atts))
	}
	for i, att := range atts {
		r := &rec.atts[i]
		if tier && (att.MemPod != int(r.seg.pod) || att.MemRack != int(r.seg.rack)) {
			return fmt.Errorf("memory on pod %d rack %d, facade pod %d rack %d", att.MemPod, att.MemRack, r.seg.pod, r.seg.rack)
		}
		if att.Segment.Brick != r.seg.mem || att.Segment.Offset != r.seg.offset || att.Mode != r.mode {
			return fmt.Errorf("segment %v@%v (%v), facade %v@%v (%v)", att.Segment.Brick, att.Segment.Offset, att.Mode, r.seg.mem, r.seg.offset, r.mode)
		}
	}
	return nil
}

// oneAtt views an admission's optional attachment as a slice.
func (l *ladder) oneAtt(att *sdm.Attachment) []*sdm.Attachment {
	if att == nil {
		return nil
	}
	l.one[0] = att
	return l.one[:]
}

// create replays one admission burst the facade just served.
func (l *ladder) create(step int, reqs []core.VMCreate, start time.Time, el time.Duration) error {
	defer l.charge(time.Now())
	facade := l.tr.add(spanCoreCreate, l.stepSpan, step, start, el)
	l.m.coreCreate = append(l.m.coreCreate, el)
	recs := l.recs[:0]
	for _, r := range reqs {
		rec, err := l.recordA(r.ID, r.VCPUs, r.Memory)
		if err != nil {
			return err
		}
		l.liveA[r.ID] = rec
		recs = append(recs, rec)
		l.m.vms++
		if r.Remote > 0 {
			l.m.remote++
		}
	}
	l.recs = recs

	areqs := l.areqs[:0]
	for _, r := range reqs {
		areqs = append(areqs, sdm.AdmitRequest{Owner: r.ID, VCPUs: r.VCPUs, LocalMem: r.Memory, Remote: r.Remote})
	}
	l.areqs = areqs
	out := resize(&l.aout, len(reqs))
	t := time.Now()
	err := l.admitB(areqs, out)
	d := time.Since(t)
	tier := l.tr.add(spanTierAdmit, facade, step, t, d)
	if err != nil {
		return fmt.Errorf("tier rung: %w", err)
	}
	l.m.tierAdmit = append(l.m.tierAdmit, d)
	for i, r := range reqs {
		res := &out[i]
		atts := l.oneAtt(res.Att)
		if err := samePlace(recs[i], res.Pod, res.Rack, res.CPU, atts, true); err != nil {
			return fmt.Errorf("tier rung placed %s differently: %w", r.ID, err)
		}
		l.vmB[r.ID] = &twinVM{pod: res.Pod, rack: res.Rack, cpu: res.CPU, vcpus: r.VCPUs, local: r.Memory, atts: slices.Clone(atts)}
	}

	parent := tier
	if l.racksC != nil {
		if parent, err = l.rackPlace(step, tier, reqs, recs); err != nil {
			return err
		}
	}
	var all []attRec
	for _, rec := range recs {
		for _, a := range rec.atts {
			all = append(all, a)
			l.m.attachments++
			if a.mode == sdm.ModePacket {
				l.m.packets++
			}
		}
	}
	if err := l.connect(step, parent, spanOpticalConnect, &l.m.connect, all); err != nil {
		return err
	}
	return l.carve(step, parent, spanBrickCarve, &l.m.carve, all, false)
}

// rackPlace feeds each rack twin the requests the facade placed on that
// rack, in request order.
func (l *ladder) rackPlace(step, parent int, reqs []core.VMCreate, recs []*vmRec) (int, error) {
	active := l.active[:0]
	for i, rec := range recs {
		k := rec.pod*l.racks + rec.rack
		if len(l.groups[k]) == 0 {
			active = append(active, k)
		}
		l.groups[k] = append(l.groups[k], i)
	}
	l.active = active
	sub, out := resize(&l.subReq, len(reqs)), resize(&l.subOut, len(reqs))
	lo := l.shardLo[:0]
	pos := 0
	for _, k := range active {
		lo = append(lo, pos)
		for _, i := range l.groups[k] {
			r := &reqs[i]
			sub[pos] = sdm.AdmitRequest{Owner: r.ID, VCPUs: r.VCPUs, LocalMem: r.Memory, Remote: r.Remote}
			pos++
		}
	}
	lo = append(lo, pos)
	l.shardLo = lo

	var slowest time.Duration
	t := time.Now()
	for j, k := range active {
		t0 := time.Now()
		l.racksC[k].PlaceBatch(sub[lo[j]:lo[j+1]], out[lo[j]:lo[j+1]])
		slowest = max(slowest, time.Since(t0))
	}
	d := time.Since(t)
	span := l.tr.add(spanRackPlace, parent, step, t, d)
	l.m.rackPlace = append(l.m.rackPlace, d)
	l.m.rackMaxShard = append(l.m.rackMaxShard, slowest)
	l.m.rackShards = append(l.m.rackShards, float64(len(active)))

	for j, k := range active {
		for n, i := range l.groups[k] {
			res := &out[lo[j]+n]
			r := &reqs[i]
			if res.Err != nil {
				return 0, fmt.Errorf("rack rung refused %s: %w", r.ID, res.Err)
			}
			atts := l.oneAtt(res.Att)
			if err := samePlace(recs[i], 0, 0, res.CPU, atts, false); err != nil {
				return 0, fmt.Errorf("rack rung placed %s differently: %w", r.ID, err)
			}
			l.vmC[r.ID] = &twinVM{pod: k / l.racks, rack: k % l.racks, cpu: res.CPU, vcpus: r.VCPUs, local: r.Memory, atts: slices.Clone(atts)}
		}
		l.groups[k] = l.groups[k][:0]
	}
	return span, nil
}

// connect replays the circuits of atts on the fabric twin under a span
// called name. A negative step marks set-up: no span, no samples.
func (l *ladder) connect(step, parent, name int, into *[]time.Duration, atts []attRec) error {
	ops := l.fops[:0]
	for i := range atts {
		if atts[i].mode == sdm.ModeCircuit {
			ops = append(ops, fabOp{key: atts[i].circ})
		}
	}
	l.fops = ops
	var err error
	t := time.Now()
	for i := range ops {
		if ops[i].c, err = l.connectOne(ops[i].key); err != nil {
			break
		}
	}
	d := time.Since(t)
	if err != nil {
		return fmt.Errorf("fabric rung: %w", err)
	}
	for _, op := range ops {
		l.circD[op.key] = op.c
	}
	if step < 0 {
		return nil
	}
	l.tr.add(name, parent, step, t, d)
	if into != nil {
		*into = append(*into, d)
	}
	l.m.connects += len(ops)
	l.m.reconfigs += len(ops)
	for _, op := range ops {
		if op.key.crossRack() {
			l.m.cross++
		}
	}
	return nil
}

func (l *ladder) connectOne(k circKey) (*optical.Circuit, error) {
	var c *optical.Circuit
	var err error
	switch {
	case k.crossPod():
		c, _, err = l.rowD.ConnectCross(int(k.cpuPod), int(k.cpuRack), k.cpuPort, int(k.memPod), int(k.memRack), k.memPort)
	case k.crossRack():
		c, _, err = l.podFab(int(k.cpuPod)).ConnectCross(int(k.cpuRack), k.cpuPort, int(k.memRack), k.memPort)
	default:
		c, _, err = l.podFab(int(k.cpuPod)).Rack(int(k.cpuRack)).Connect(k.cpuPort, k.memPort)
	}
	return c, err
}

func (l *ladder) disconnectOne(k circKey, c *optical.Circuit) error {
	var err error
	switch {
	case k.crossPod():
		_, err = l.rowD.DisconnectCross(c)
	case k.crossRack():
		_, err = l.podFab(int(k.cpuPod)).DisconnectCross(c)
	default:
		_, err = l.podFab(int(k.cpuPod)).Rack(int(k.cpuRack)).Disconnect(c)
	}
	return err
}

// carve replays the segments of atts on the brick twin under a span
// called name, brick by brick in ascending offset order. First-fit
// carving reproduces the facade's offsets in that order whatever order
// the facade carved them in: a segment the facade carved later at a
// lower offset sat in a gap that every earlier, higher segment had
// already been too big for. A sweep interleaves carves with releases in
// an order the ladder cannot observe, so resyncs carve at the facade's
// offsets instead (atOffset).
func (l *ladder) carve(step, parent, name int, into *[]time.Duration, atts []attRec, atOffset bool) error {
	ops := l.bops[:0]
	for i := range atts {
		a := &atts[i]
		ops = append(ops, brickOp{key: a.seg, m: l.bricks(a.seg), size: a.size, owner: a.owner})
	}
	slices.SortFunc(ops, func(x, y brickOp) int { return cmpSeg(x.key, y.key) })
	l.bops = ops
	var err error
	t := time.Now()
	for i := range ops {
		op := &ops[i]
		if atOffset {
			op.seg, err = op.m.CarveAt(op.key.offset, op.size, op.owner)
		} else {
			op.seg, err = op.m.Carve(op.size, op.owner)
		}
		if err != nil {
			break
		}
	}
	d := time.Since(t)
	if err != nil {
		return fmt.Errorf("brick rung (%s): %w", spanNames[name], err)
	}
	for _, op := range ops {
		if op.seg.Offset != op.key.offset {
			return fmt.Errorf("brick rung (%s) carved %s's segment on pod %d rack %d brick %v at %v, facade at %v",
				spanNames[name], op.owner, op.key.pod, op.key.rack, op.key.mem, op.seg.Offset, op.key.offset)
		}
		l.segE[op.key] = op.seg
	}
	if step >= 0 {
		l.tr.add(name, parent, step, t, d)
		if into != nil {
			*into = append(*into, d)
		}
	}
	return nil
}

func cmpSeg(x, y segKey) int {
	return cmp.Or(cmp.Compare(x.pod, y.pod), cmp.Compare(x.rack, y.rack),
		cmp.Compare(x.mem.Tray, y.mem.Tray), cmp.Compare(x.mem.Slot, y.mem.Slot), cmp.Compare(x.offset, y.offset))
}

// destroy replays one teardown batch the facade just served.
func (l *ladder) destroy(step int, ids []string, start time.Time, el time.Duration) error {
	defer l.charge(time.Now())
	facade := l.tr.add(spanCoreDestroy, l.stepSpan, step, start, el)
	l.m.coreDestroy = append(l.m.coreDestroy, el)

	ereqs := l.ereqs[:0]
	atts := l.newestFirst(ids, l.vmB)
	for i, id := range ids {
		v := l.vmB[id]
		ereqs = append(ereqs, sdm.EvictRequest{Owner: id, CPU: v.cpu, Rack: v.rack, Pod: v.pod, VCPUs: v.vcpus, LocalMem: v.local, Atts: atts[i]})
	}
	l.ereqs = ereqs
	out := resize(&l.eout, len(ids))
	t := time.Now()
	err := l.evictB(ereqs, out)
	d := time.Since(t)
	tier := l.tr.add(spanTierEvict, facade, step, t, d)
	if err != nil {
		return fmt.Errorf("tier rung: %w", err)
	}
	l.m.tierEvict = append(l.m.tierEvict, d)
	for _, id := range ids {
		delete(l.vmB, id)
	}

	parent := tier
	if l.racksC != nil {
		if parent, err = l.rackRelease(step, tier, ids); err != nil {
			return err
		}
	}
	var gone []attRec
	for _, id := range ids {
		gone = append(gone, l.liveA[id].atts...)
		delete(l.liveA, id)
	}
	if err := l.disconnect(step, parent, spanOpticalDisconnect, &l.m.disconnect, gone); err != nil {
		return err
	}
	return l.release(step, parent, spanBrickRelease, &l.m.release, gone)
}

// newestFirst returns, per VM, its twin attachments newest first — the
// order the facade tears them down in, so packet riders go before the
// circuits they ride. The slices share one reused backing array.
func (l *ladder) newestFirst(ids []string, vms map[string]*twinVM) [][]*sdm.Attachment {
	total := 0
	for _, id := range ids {
		total += len(vms[id].atts)
	}
	buf := resize(&l.attBuf, total)
	out := make([][]*sdm.Attachment, len(ids))
	pos := 0
	for i, id := range ids {
		v := vms[id]
		n := len(v.atts)
		for j, a := range v.atts {
			buf[pos+n-1-j] = a
		}
		out[i] = buf[pos : pos+n : pos+n]
		pos += n
	}
	return out
}

// rackRelease feeds each rack twin the teardowns of the VMs it hosts.
func (l *ladder) rackRelease(step, parent int, ids []string) (int, error) {
	atts := l.newestFirst(ids, l.vmC)
	active := l.active[:0]
	for i, id := range ids {
		v := l.vmC[id]
		k := v.pod*l.racks + v.rack
		if len(l.groups[k]) == 0 {
			active = append(active, k)
		}
		l.groups[k] = append(l.groups[k], i)
	}
	l.active = active
	sub, out := resize(&l.relReq, len(ids)), resize(&l.relOut, len(ids))
	lo := l.shardLo[:0]
	pos := 0
	for _, k := range active {
		lo = append(lo, pos)
		for _, i := range l.groups[k] {
			v := l.vmC[ids[i]]
			sub[pos] = sdm.ReleaseRequest{Owner: ids[i], CPU: v.cpu, VCPUs: v.vcpus, LocalMem: v.local, Atts: atts[i]}
			pos++
		}
		l.groups[k] = l.groups[k][:0]
	}
	lo = append(lo, pos)
	l.shardLo = lo

	t := time.Now()
	for j, k := range active {
		l.racksC[k].ReleaseBatch(sub[lo[j]:lo[j+1]], out[lo[j]:lo[j+1]])
	}
	d := time.Since(t)
	span := l.tr.add(spanRackRelease, parent, step, t, d)
	l.m.rackRelease = append(l.m.rackRelease, d)
	for i := range out {
		if out[i].Err != nil {
			return 0, fmt.Errorf("rack rung could not retire %s: %w", sub[i].Owner, out[i].Err)
		}
	}
	for _, id := range ids {
		delete(l.vmC, id)
	}
	return span, nil
}

// disconnect tears down the fabric twin's circuits of atts.
func (l *ladder) disconnect(step, parent, name int, into *[]time.Duration, atts []attRec) error {
	ops := l.fops[:0]
	for i := range atts {
		a := &atts[i]
		if a.mode == sdm.ModePacket {
			continue
		}
		c, ok := l.circD[a.circ]
		if !ok {
			return fmt.Errorf("fabric rung has no circuit %+v", a.circ)
		}
		ops = append(ops, fabOp{key: a.circ, c: c})
	}
	l.fops = ops
	var err error
	t := time.Now()
	for _, op := range ops {
		if err = l.disconnectOne(op.key, op.c); err != nil {
			break
		}
	}
	d := time.Since(t)
	l.tr.add(name, parent, step, t, d)
	if err != nil {
		return fmt.Errorf("fabric rung: %w", err)
	}
	if into != nil {
		*into = append(*into, d)
	}
	for _, op := range ops {
		delete(l.circD, op.key)
	}
	l.m.reconfigs += len(ops)
	return nil
}

// release frees the brick twin's segments of atts.
func (l *ladder) release(step, parent, name int, into *[]time.Duration, atts []attRec) error {
	ops := l.bops[:0]
	for i := range atts {
		a := &atts[i]
		seg, ok := l.segE[a.seg]
		if !ok {
			return fmt.Errorf("brick rung has no segment %+v", a.seg)
		}
		ops = append(ops, brickOp{key: a.seg, m: l.bricks(a.seg), seg: seg})
	}
	l.bops = ops
	var err error
	t := time.Now()
	for _, op := range ops {
		if err = op.m.Release(op.seg); err != nil {
			break
		}
	}
	d := time.Since(t)
	l.tr.add(name, parent, step, t, d)
	if err != nil {
		return fmt.Errorf("brick rung: %w", err)
	}
	if into != nil {
		*into = append(*into, d)
	}
	for _, op := range ops {
		delete(l.segE, op.key)
	}
	return nil
}

// rebalance replays the pod's rebalancing sweep on the tier twin.
func (l *ladder) rebalance(step int, rep sdm.RebalanceReport, start time.Time, el time.Duration) error {
	defer l.charge(time.Now())
	facade := l.tr.add(spanCoreRebalance, l.stepSpan, step, start, el)
	l.m.coreRebalance = append(l.m.coreRebalance, el)
	t := time.Now()
	repB := l.podB.RebalanceBatch(0)
	tier := l.tr.add(spanTierRebalance, facade, step, t, time.Since(t))
	if a, b := rebalanceCounts(rep), rebalanceCounts(repB); a != b {
		return fmt.Errorf("tier rung rebalanced differently: %v, facade %v", b, a)
	}
	return l.resync(step, tier)
}

func rebalanceCounts(r sdm.RebalanceReport) [7]int {
	return [7]int{r.Scanned, r.Promoted, r.SkippedPacket, r.SkippedRiders, r.SkippedNoRoom, r.Failed, r.FreedUplinks}
}

// consolidate replays the pod's re-packing pass on the tier twin.
func (l *ladder) consolidate(step int, rep core.PodConsolidation, start time.Time, el time.Duration) error {
	defer l.charge(time.Now())
	facade := l.tr.add(spanCoreConsolidate, l.stepSpan, step, start, el)
	l.m.coreConsolidate = append(l.m.coreConsolidate, el)
	l.m.moved += rep.VMsMoved
	l.m.movesFailed += rep.MovesFailed
	l.m.consols++
	t := time.Now()
	moved, failed := l.migrateOffSparse()
	repB := l.podB.Consolidate(0)
	tier := l.tr.add(spanTierConsolidate, facade, step, t, time.Since(t))
	a := append([]int{rep.VMsMoved, rep.MovesFailed}, consolidationCounts(rep.ConsolidationReport)...)
	b := append([]int{moved, failed}, consolidationCounts(repB)...)
	if !slices.Equal(a, b) {
		return fmt.Errorf("tier rung consolidated differently: %v, facade %v", b, a)
	}
	return l.resync(step, tier)
}

func consolidationCounts(r sdm.ConsolidationReport) []int {
	return []int{r.Scanned, r.Promoted, r.Rehomed, r.SkippedPacket, r.SkippedRiders, r.SkippedNoRoom, r.Failed, r.RacksDrained, r.PoweredOff, r.DarkRacks}
}

// migrateOffSparse is the VM re-packing half of core.Pod.Consolidate,
// issued against the tier twin through the scheduler calls the facade's
// migrations make: VMs on trailing racks, in name order, move to the
// lowest-index rack with room.
func (l *ladder) migrateOffSparse() (moved, failed int) {
	s := l.podB
	for d := s.Racks() - 1; d >= 1; d-- {
		var ids []string
		for id, v := range l.vmB {
			if v.rack == d {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		for _, id := range ids {
			v := l.vmB[id]
			target := -1
			for t := 0; t < d; t++ {
				if s.Rack(t).CanPlaceCompute(v.vcpus, v.local) {
					target = t
					break
				}
			}
			if target < 0 {
				continue
			}
			if l.migrateB(id, v, target) {
				moved++
			} else {
				failed++
			}
		}
	}
	return moved, failed
}

// migrateB mirrors scaleup.Controller.MigrateTo's scheduler calls:
// movability pre-flight, compute on the destination, port and RMST
// pre-flight, every binding re-pointed (rolled back on failure), then
// the source compute released.
func (l *ladder) migrateB(id string, v *twinVM, dst int) bool {
	s := l.podB
	src, srcCPU := v.rack, v.cpu
	for _, att := range v.atts {
		if s.Rack(src).CanRepoint(att) != nil {
			return false
		}
	}
	dstCPU, _, err := s.Rack(dst).ReserveCompute(id, v.vcpus, v.local)
	if err != nil {
		return false
	}
	node, _ := s.Rack(dst).Compute(dstCPU)
	table := node.Agent.Glue.Table
	if need := len(v.atts); node.Brick.Ports.Free() < need || table.Capacity()-table.Len() < need {
		s.Rack(dst).ReleaseCompute(dstCPU, v.vcpus, v.local)
		return false
	}
	for i, att := range v.atts {
		if _, _, err := s.Repoint(att, topo.PodBrickID{Rack: dst, Brick: dstCPU}); err != nil {
			for j := i - 1; j >= 0; j-- {
				s.Repoint(v.atts[j], topo.PodBrickID{Rack: src, Brick: srcCPU})
			}
			s.Rack(dst).ReleaseCompute(dstCPU, v.vcpus, v.local)
			return false
		}
	}
	s.Rack(src).ReleaseCompute(srcCPU, v.vcpus, v.local)
	v.rack, v.cpu = dst, dstCPU
	return true
}

// resync re-reads the facade's placement of every live VM after a
// sweep that may have moved any of them, checks the tier twin agrees,
// and brings the fabric and brick twins to the same circuits and
// segments: everything gone first, then everything new.
func (l *ladder) resync(step, parent int) error {
	for id, rec := range l.liveA {
		fresh, err := l.recordA(id, rec.vcpus, rec.local)
		if err != nil {
			return err
		}
		l.liveA[id] = fresh
		v := l.vmB[id]
		if err := samePlace(fresh, v.pod, v.rack, v.cpu, v.atts, true); err != nil {
			return fmt.Errorf("tier rung holds %s differently after a sweep: %w", id, err)
		}
	}
	wantC := make(map[circKey]bool)
	wantS := make(map[segKey]attRec)
	add := func(a attRec) {
		if a.mode == sdm.ModeCircuit {
			wantC[a.circ] = true
		}
		wantS[a.seg] = a
	}
	for _, rec := range l.liveA {
		for _, a := range rec.atts {
			add(a)
		}
	}
	for _, a := range l.ballast {
		add(a)
	}
	var goneC, newC, goneS, newS []attRec
	for k := range l.circD {
		if !wantC[k] {
			goneC = append(goneC, attRec{circ: k, mode: sdm.ModeCircuit})
		}
	}
	for k, a := range wantS {
		if _, ok := l.segE[k]; !ok {
			newS = append(newS, a)
		}
		if a.mode == sdm.ModeCircuit {
			if _, ok := l.circD[a.circ]; !ok {
				newC = append(newC, a)
			}
		}
	}
	for k := range l.segE {
		if _, ok := wantS[k]; !ok {
			goneS = append(goneS, attRec{seg: k})
		}
	}
	if err := l.disconnect(step, parent, spanOpticalResync, nil, goneC); err != nil {
		return err
	}
	if err := l.connect(step, parent, spanOpticalResync, nil, newC); err != nil {
		return err
	}
	if err := l.release(step, parent, spanBrickResync, nil, goneS); err != nil {
		return err
	}
	return l.carve(step, parent, spanBrickResync, nil, newS, true)
}
