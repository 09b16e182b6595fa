package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/scaleup"
	"repro/internal/sdm"
)

// engine is the part of the core facades the load loops drive. Row and
// Pod both satisfy it; tests substitute a fake.
type engine interface {
	CreateVMs(reqs []core.VMCreate, workers int) ([]scaleup.Result, error)
	DestroyVMs(ids []string, workers int) ([]scaleup.Result, error)
}

// samples are one run's raw measurements, all host wall time.
type samples struct {
	// create and destroy time each facade call; created and destroyed
	// count its VMs.
	create, destroy    []time.Duration
	created, destroyed []float64
	// round times a closed-loop step or an open-loop iteration that had
	// work.
	round []time.Duration
	// Open loop only: per VM, due time to batch completion (vmLatency)
	// and due time to batch start (queueWait); per wait, how late the
	// loop woke (lag).
	vmLatency, queueWait, lag []time.Duration

	attempted, failed int
	steps             int
}

// reserve sizes the sample slices for n operations up front, so the
// measured loop does not stop to grow and copy them.
func (s *samples) reserve(n int, open bool) {
	for _, ds := range []*[]time.Duration{&s.create, &s.destroy, &s.round} {
		*ds = make([]time.Duration, 0, n)
	}
	s.created = make([]float64, 0, n)
	s.destroyed = make([]float64, 0, n)
	if open {
		s.vmLatency = make([]time.Duration, 0, n)
		s.queueWait = make([]time.Duration, 0, n)
		s.lag = make([]time.Duration, 0, n)
	}
}

// driver runs one workload's load loop against one engine.
type driver struct {
	w       *workload
	in      *inputs
	fx      *fixture // nil when eng is a test fake
	eng     engine
	workers int
	// Work before recording starts runs but is not sampled: caches fill
	// and the heap grows toward its steady size first. A closed loop
	// warms up for warmSteps steps and then samples until budget has
	// passed (0 = until its step cap); the open loop's arrival schedule
	// sets its length, and it warms up for the first warm of it.
	budget, warm time.Duration
	warmSteps    int
	// recording is set once the warm-up is over; mallocs0 is the
	// allocation count at that moment, and heapWarm a closed loop's
	// live heap bytes after a collection at that moment.
	recording bool
	mallocs0  uint64
	heapWarm  uint64

	// cal, in an untraced closed loop, interleaves calBurst of calibration
	// reps (calib.go) into the sampled phase every calEvery, so that the
	// kernel sees the host as the load does; calTimes collects the reps
	// and calMallocs the heap allocations they made, which allocs_per_vm
	// leaves out.
	cal        *calibrator
	calTimes   []time.Duration
	calMallocs uint64

	// dig folds placements while digesting is set: the closed loop's
	// first w.digest steps.
	dig       *digest
	digesting bool

	// lad is the traced run's ladder; facadeAlloc sums the heap bytes
	// allocated inside facade calls, read around each call.
	lad         *ladder
	facadeAlloc uint64
	allocSample []metrics.Sample

	s samples

	reqs    []core.VMCreate
	ids     []string
	scratch []*sdm.Attachment
	free    []string // name pool of the workloads that recycle names
	live    []string // pod-churn: live VMs, oldest first
}

func newDriver(w *workload, in *inputs, fx *fixture, eng engine, workers int, budget time.Duration) *driver {
	d := &driver{
		w: w, in: in, fx: fx, eng: eng, workers: workers, budget: budget,
		reqs: make([]core.VMCreate, 0, w.burst),
		ids:  make([]string, 0, len(in.names)),
	}
	// Pop order is ascending name order.
	for i := len(in.names) - 1; i >= 0; i-- {
		d.free = append(d.free, in.names[i])
	}
	return d
}

func (d *driver) popName() (string, error) {
	if len(d.free) == 0 {
		return "", fmt.Errorf("%s: all %d VM names are live; departures are not keeping up", d.w.name, len(d.in.names))
	}
	n := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	return n, nil
}

// allocMark reads the runtime's cumulative heap allocation in the
// traced run (0 otherwise); allocDone adds what a facade call allocated
// since the mark.
func (d *driver) allocMark() uint64 {
	if d.lad == nil {
		return 0
	}
	if d.allocSample == nil {
		d.allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	}
	metrics.Read(d.allocSample)
	return d.allocSample[0].Value.Uint64()
}

func (d *driver) allocDone(a0 uint64) {
	if d.lad != nil {
		d.facadeAlloc += d.allocMark() - a0
	}
}

// create admits one burst through the facade and returns how long the
// call took.
func (d *driver) create(step int, reqs []core.VMCreate) (time.Duration, error) {
	a0 := d.allocMark()
	t0 := time.Now()
	_, err := d.eng.CreateVMs(reqs, d.workers)
	el := time.Since(t0)
	d.allocDone(a0)
	d.s.attempted += len(reqs)
	if err != nil {
		d.s.failed += len(reqs)
		return el, fmt.Errorf("step %d: admission of %d VMs: %w", step, len(reqs), err)
	}
	if d.recording {
		d.s.create = append(d.s.create, el)
		d.s.created = append(d.s.created, float64(len(reqs)))
	}
	if d.digesting {
		d.foldCreate(reqs)
	}
	if d.lad != nil {
		if err := d.lad.create(step, reqs, t0, el); err != nil {
			return el, fmt.Errorf("step %d: %w", step, err)
		}
	}
	return el, nil
}

// destroy retires VMs through the facade and returns how long the call
// took.
func (d *driver) destroy(step int, ids []string) (time.Duration, error) {
	a0 := d.allocMark()
	t0 := time.Now()
	_, err := d.eng.DestroyVMs(ids, d.workers)
	el := time.Since(t0)
	d.allocDone(a0)
	if err != nil {
		d.s.failed += len(ids)
		return el, fmt.Errorf("step %d: teardown of %d VMs: %w", step, len(ids), err)
	}
	if d.recording {
		d.s.destroy = append(d.s.destroy, el)
		d.s.destroyed = append(d.s.destroyed, float64(len(ids)))
	}
	if d.lad != nil {
		if err := d.lad.destroy(step, ids, t0, el); err != nil {
			return el, fmt.Errorf("step %d: %w", step, err)
		}
	}
	return el, nil
}

// rebalance runs the pod's batched rebalancing sweep.
func (d *driver) rebalance(step int) error {
	a0 := d.allocMark()
	t0 := time.Now()
	rep := d.fx.pod.RebalanceBatch()
	el := time.Since(t0)
	d.allocDone(a0)
	if d.digesting {
		d.dig.add(rep.Scanned, rep.Promoted, rep.SkippedPacket, rep.SkippedRiders, rep.SkippedNoRoom, rep.Failed)
	}
	if d.lad != nil {
		if err := d.lad.rebalance(step, rep, t0, el); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	return nil
}

// consolidate runs the pod's re-packing pass.
func (d *driver) consolidate(step int) error {
	a0 := d.allocMark()
	t0 := time.Now()
	rep := d.fx.pod.Consolidate()
	el := time.Since(t0)
	d.allocDone(a0)
	if d.digesting {
		d.dig.add(rep.VMsMoved, rep.MovesFailed, rep.Promoted, rep.Rehomed, rep.RacksDrained, rep.PoweredOff, rep.DarkRacks)
	}
	if d.lad != nil {
		if err := d.lad.consolidate(step, rep, t0, el); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	return nil
}

// startRecording ends the warm-up. A closed loop first collects the
// heap and reads what the engine holds after its fixed number of warm-up
// steps, so that live_heap_mb does not depend on how many steps the
// host's speed fits into the budget, and sizes its sample buffers for
// reserve steps.
func (d *driver) startRecording(reserve int) {
	var ms runtime.MemStats
	if !d.w.open {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		d.heapWarm = ms.HeapAlloc
		d.s.reserve(reserve, false)
	}
	runtime.ReadMemStats(&ms)
	d.recording, d.mallocs0 = true, ms.Mallocs
}

// calibrate runs one calibration burst and counts its allocations.
func (d *driver) calibrate() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	d.calTimes = d.cal.run(calBurst, d.calTimes)
	runtime.ReadMemStats(&ms)
	d.calMallocs += ms.Mallocs - m0
}

// ladderSpent is the wall time the traced run's ladder has taken, which
// the loops leave out of their own clocks.
func (d *driver) ladderSpent() time.Duration {
	if d.lad == nil {
		return 0
	}
	return d.lad.spent
}

// foldCreate folds the facade's placement of a just-admitted burst into
// the digest: per VM its pod, rack and compute brick, and per remote
// attachment its memory pod, rack, brick, segment offset and mode.
func (d *driver) foldCreate(reqs []core.VMCreate) {
	for _, r := range reqs {
		pod, rack, cpu, atts, _ := d.fx.locate(r.ID, d.scratch[:0])
		d.scratch = atts
		d.dig.add(pod, rack, cpu.Tray, cpu.Slot, len(atts))
		for _, a := range atts {
			d.dig.add(a.MemPod, a.MemRack, a.Segment.Brick.Tray, a.Segment.Brick.Slot, int(a.Segment.Offset), int(a.Mode))
		}
	}
}

// runClosed runs a closed loop: one client that issues each step only
// after the previous one completed. It runs d.warmSteps steps unsampled,
// then samples until d.budget has passed or steps steps have run in all
// (0 = no step cap).
func (d *driver) runClosed(steps int) error {
	if steps == 0 && d.budget == 0 {
		return fmt.Errorf("%s: a closed loop needs a step cap or a time budget", d.w.name)
	}
	start := time.Now()
	var lastCal time.Time
	for s := 0; steps == 0 || s < steps; s++ {
		if s == d.warmSteps {
			// Size the buffers for half again the steps the warm-up's pace
			// fits into the budget.
			reserve := 1024
			if s > 0 && d.budget > 0 {
				reserve += int(1.5 * float64(s) * float64(d.budget) / float64(time.Since(start)))
			}
			if steps > 0 {
				reserve = min(reserve, steps-s)
			}
			d.startRecording(reserve)
			start, lastCal = time.Now(), time.Now()
		}
		if d.recording && d.budget > 0 && time.Since(start) >= d.budget {
			break
		}
		if d.recording && d.cal != nil && time.Since(lastCal) >= calEvery {
			d.calibrate()
			lastCal = time.Now()
		}
		d.digesting = d.dig != nil && s < d.w.digest
		if d.lad != nil {
			d.lad.beginStep(s)
		}
		t0, spent0 := time.Now(), d.ladderSpent()
		var err error
		switch d.w.name {
		case "row-steady":
			err = d.stepRowSteady(s)
		case "pod-spill":
			err = d.stepPodSpill(s)
		case "pod-churn":
			err = d.stepPodChurn(s)
		default:
			err = fmt.Errorf("%s is not a closed-loop workload", d.w.name)
		}
		if err != nil {
			return err
		}
		if d.recording {
			d.s.round = append(d.s.round, time.Since(t0)-(d.ladderSpent()-spent0))
		}
		d.s.steps++
		if d.lad != nil {
			d.lad.endStep()
		}
	}
	d.digesting = false
	return nil
}

// stepRowSteady admits burst s and retires burst s-4, so four bursts
// stay live between steps. Burst b uses name slot b mod 5, which burst
// b-5 vacated one step earlier.
func (d *driver) stepRowSteady(s int) error {
	b := d.w.burst
	slot := s % 5
	reqs := d.reqs[:b]
	for k := range reqs {
		reqs[k] = d.in.shape(s*b + k).create(d.in.names[slot*b+k])
	}
	if _, err := d.create(s, reqs); err != nil {
		return err
	}
	if s >= 4 {
		old := (s - 4) % 5
		if _, err := d.destroy(s, d.in.names[old*b:(old+1)*b]); err != nil {
			return err
		}
	}
	return nil
}

// stepPodSpill admits one burst and retires the same VMs.
func (d *driver) stepPodSpill(s int) error {
	b := d.w.burst
	reqs := d.reqs[:b]
	for k := range reqs {
		reqs[k] = d.in.shape(s*b + k).create(d.in.names[k])
	}
	if _, err := d.create(s, reqs); err != nil {
		return err
	}
	_, err := d.destroy(s, d.in.names[:b])
	return err
}

// stepPodChurn admits one burst, retires VMs newest first down to the
// round's target population, rebalances, and every third round
// consolidates.
func (d *driver) stepPodChurn(s int) error {
	b := d.w.burst
	reqs := d.reqs[:b]
	for k := range reqs {
		name, err := d.popName()
		if err != nil {
			return err
		}
		reqs[k] = d.in.shape(s*b + k).create(name)
	}
	if _, err := d.create(s, reqs); err != nil {
		return err
	}
	for _, r := range reqs {
		d.live = append(d.live, r.ID)
	}
	if k := len(d.live) - d.in.target(s); k > 0 {
		ids := d.ids[:0]
		for i := len(d.live) - 1; i >= len(d.live)-k; i-- {
			ids = append(ids, d.live[i])
		}
		if _, err := d.destroy(s, ids); err != nil {
			return err
		}
		d.live = d.live[:len(d.live)-k]
		// Newest name back on top, so the next burst reuses the names
		// just freed in a fixed order.
		for i := len(ids) - 1; i >= 0; i-- {
			d.free = append(d.free, ids[i])
		}
	}
	if err := d.rebalance(s); err != nil {
		return err
	}
	if s%3 == 2 {
		return d.consolidate(s)
	}
	return nil
}

// spinAhead is how long before a due time the open loop stops sleeping
// and starts spinning, which a sleep-only loop would count as engine
// latency. On the reference host a Go sleep shorter than a millisecond
// woke about a millisecond late, and one of 300 µs ahead left the
// generator's lag p99 above the engine's median latency.
const spinAhead = 2 * time.Millisecond

// departure is a VM's scheduled teardown.
type departure struct {
	at   time.Duration
	name string
}

// runOpen runs the open loop: VMs arrive on the inputs' schedule
// whether or not the engine has kept up, and each iteration
// group-commits every arrived VM (up to one burst) in one CreateVMs and
// every expired VM in one DestroyVMs. Each VM lives poissonLifetime of
// wall time after its admission completes.
//
// The loop's clock excludes time the traced run spends in the ladder,
// so the offered load matches the untraced run's. Without a budget the
// loop runs until every arrival is admitted and fails if it falls more
// than maxBacklog behind schedule; with one it stops there.
func (d *driver) runOpen() error {
	const maxBacklog = time.Second
	n := len(d.in.due)
	d.s.reserve(n, true)
	// Departures are FIFO (admissions complete in order); at most one
	// per live name is pending.
	ring := make([]departure, len(d.in.names))
	head, pending := 0, 0
	dues := make([]time.Duration, 0, d.w.burst)
	wall := time.Now()
	clock := func() time.Duration { return time.Since(wall) - d.ladderSpent() }
	next, step := 0, 0
	for next < n {
		if d.budget > 0 && time.Since(wall) >= d.budget {
			break
		}
		now := clock()
		if !d.recording && now >= d.warm {
			d.startRecording(0)
		}
		if now-d.in.due[next] > maxBacklog {
			return fmt.Errorf("%s: fell %v behind the arrival schedule", d.w.name, now-d.in.due[next])
		}
		reqs, ids := d.reqs[:0], d.ids[:0]
		dues = dues[:0]
		for next < n && d.in.due[next] <= now && len(reqs) < d.w.burst {
			name, err := d.popName()
			if err != nil {
				return err
			}
			reqs = append(reqs, d.in.shape(next).create(name))
			dues = append(dues, d.in.due[next])
			next++
		}
		for pending > 0 && ring[head].at <= now && len(ids) < d.w.burst {
			ids = append(ids, ring[head].name)
			head = (head + 1) % len(ring)
			pending--
		}
		if len(reqs) == 0 && len(ids) == 0 {
			at := d.in.due[next]
			if pending > 0 && ring[head].at < at {
				at = ring[head].at
			}
			lag := waitUntil(clock, at)
			if d.recording {
				d.s.lag = append(d.s.lag, lag)
			}
			continue
		}
		if d.lad != nil {
			d.lad.beginStep(step)
		}
		bs := clock()
		if len(reqs) > 0 {
			el, err := d.create(step, reqs)
			if err != nil {
				return err
			}
			done := bs + el
			if d.recording {
				for _, due := range dues {
					d.s.vmLatency = append(d.s.vmLatency, done-due)
					d.s.queueWait = append(d.s.queueWait, bs-due)
				}
			}
			for _, r := range reqs {
				ring[(head+pending)%len(ring)] = departure{at: done + poissonLifetime, name: r.ID}
				pending++
			}
		}
		if len(ids) > 0 {
			if _, err := d.destroy(step, ids); err != nil {
				return err
			}
			d.free = append(d.free, ids...)
		}
		if d.lad != nil {
			d.lad.endStep()
		}
		if d.recording {
			d.s.round = append(d.s.round, clock()-bs)
		}
		d.s.steps++
		step++
	}
	return nil
}

// waitUntil sleeps until spinAhead before at, spins the rest of the way
// and returns how late it woke.
func waitUntil(clock func() time.Duration, at time.Duration) time.Duration {
	if d := at - clock() - spinAhead; d > 0 {
		time.Sleep(d)
	}
	for {
		if now := clock(); now >= at {
			return now - at
		}
	}
}
