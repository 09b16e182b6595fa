package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/topo"
)

// metric is one reported number. Absent metrics carry the reason
// instead of a value.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Absent  string  `json:"absent,omitempty"`
}

// report is the outcome of one run.
type report struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Trace     bool      `json:"trace"`
	Host      hostFacts `json:"host"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   []metric  `json:"metrics"`
	// Digest is the closed loops' placement digest (see digest.go).
	Digest string `json:"digest,omitempty"`
	// Notes are facts about the run that are not metrics (steps run,
	// digest); Problems are the reasons Correct is false.
	Notes    []string `json:"notes"`
	Problems []string `json:"problems,omitempty"`
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	r.Correct = false
}

// runConfig is one invocation's parameters.
type runConfig struct {
	w       *workload
	seed    uint64
	budget  time.Duration // wall time to measure for
	smoke   bool          // a few hundred steps, no time budget (see length)
	workers int           // facade fan-out; 0 = GOMAXPROCS
}

// smokeHorizon is the open loop's arrival window in smoke mode.
const smokeHorizon = 200 * time.Millisecond

// A run times set-up as the median of at least minSetupReps fresh
// fixture constructions, and of as many more as fit in setupTime. On
// the reference host, at two processors, a row's constructions in one
// process took 9 ms or 20-30 ms in no pattern, so a median of 15 fell
// in either mode, and one of about 70 (a second of them) holds
// within a tenth. The constructions of the first setupWarm are not
// timed: a process's first few hundred milliseconds ran up to twice as
// slow in some runs and not in others.
const (
	minSetupReps = 15
	setupWarm    = 250 * time.Millisecond
	setupTime    = time.Second
)

// warmShare is the part of the open loop's budget spent warming up.
const warmShare = 10

// calTime is how long an untraced run times the calibration kernel
// (calib.go) before its load loop and again after it.
const calTime = 300 * time.Millisecond

// length returns the closed loop's step cap (0 = none: the budget ends
// it) and the open loop's arrival window. A smoke run's closed loop
// runs its digest prefix as warm-up and samples a quarter as many steps
// again.
func (c runConfig) length() (steps int, horizon time.Duration) {
	if c.smoke {
		return c.w.digest + c.w.digest/4, smokeHorizon
	}
	return 0, c.budget
}

// loopBudget is the wall-time cap of a load loop given its share of
// the budget: none in smoke mode, and none for schedule, an untraced
// open loop, whose arrival schedule already spans the budget.
func (c runConfig) loopBudget(share time.Duration, schedule bool) time.Duration {
	if c.smoke || schedule {
		return 0
	}
	return share
}

func (c runConfig) newReport(trace bool) *report {
	return &report{Workload: c.w.name, Seed: c.seed, Trace: trace, Host: readHost(), Correct: true}
}

// useProcs switches GOMAXPROCS to the workload's processor count, if it
// has one, records it in the report's host facts, and returns the
// function that switches back.
func (c runConfig) useProcs(rep *report) (restore func()) {
	if c.w.procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(c.w.procs)
	rep.Host.GOMAXPROCS = c.w.procs
	return func() { runtime.GOMAXPROCS(prev) }
}

// setup builds fresh fixtures and keeps the last. It times none of those
// built in the first warm of wall time, then times at least
// minSetupReps, and more until they add up to minTime. Each
// construction starts from a collected heap, and the collector stays
// off in between: no cycle can start mid-construction, and the runtime
// keeps the freed pages mapped, so later constructions do not pay the
// host's page faults.
func setup(w *workload, in *inputs, warm, minTime time.Duration) (*fixture, []time.Duration, error) {
	var fx *fixture
	var times []time.Duration
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	for total := time.Duration(0); len(times) < minSetupReps || total < minTime; {
		fx = nil
		runtime.GC()
		t0 := time.Now()
		f, err := newFixture(w, in)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		fx = f
		if time.Since(start) >= warm {
			times = append(times, d)
			total += d
		}
	}
	return fx, times, nil
}

// run drives the workload's loop.
func (d *driver) run(steps int) error {
	if d.w.open {
		return d.runOpen()
	}
	return d.runClosed(steps)
}

// runEndToEnd is the untraced run: host-time end-to-end metrics plus
// the correctness checks.
func runEndToEnd(c runConfig) (*report, error) {
	rep := c.newReport(false)
	steps, horizon := c.length()
	in, err := genInputs(c.w, c.seed, horizon)
	if err != nil {
		return nil, err
	}
	// live_heap_mb counts what the heap holds beyond the inputs.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	warm, setupMin := setupWarm, setupTime
	if c.smoke {
		warm, setupMin = 0, 0
	}
	fx, setups, err := setup(c.w, in, warm, setupMin)
	if err != nil {
		return nil, err
	}
	// Set-up is timed at the default processor count on every workload;
	// the load and the calibration run at the workload's own.
	defer c.useProcs(rep)()
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	calFor := calTime
	if c.smoke {
		calFor = calTime / 30
	}
	d := newDriver(c.w, in, fx, fx.engine(), c.workers, c.loopBudget(c.budget, c.w.open))
	d.cal, d.calTimes = cal, cal.run(calFor, nil)
	switch {
	case c.w.open && !c.smoke:
		d.warm = c.budget / warmShare
	case !c.w.open:
		d.warmSteps = c.w.warm
		if c.smoke {
			d.warmSteps = c.w.digest
		}
		d.dig = newDigest()
	}
	runtime.GC()
	t0 := time.Now()
	err = d.run(steps)
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms)
	rep.Attempted, rep.Failed = d.s.attempted, d.s.failed
	rep.note("steps=%d vms=%d wall_s=%.3f failed_frac=%g", d.s.steps, d.s.attempted, wall.Seconds(), float64(d.s.failed)/float64(max(d.s.attempted, 1)))
	if err != nil {
		rep.problem("%v", err)
		return rep, nil
	}
	if !d.recording {
		rep.problem("the run ended inside its warm-up")
		return rep, nil
	}
	d.check(rep, c)
	if err := checkInvariants(fx.pods()); err != nil {
		rep.problem("invariants: %v", err)
	}

	d.calTimes = cal.run(calFor, d.calTimes)
	calMedian := median(micros(d.calTimes))
	scale := float64(calRef/time.Microsecond) / calMedian
	rep.note("calibration: median rep %.1fus over %d reps, reference %v; times scaled by %.4f", calMedian, len(d.calTimes), calRef, scale)
	endToEnd(rep, &d.s, c.w.open, setups, ms.Mallocs-d.mallocs0-d.calMallocs, scale)
	heap := d.heapWarm
	if c.w.open {
		// The arrival schedule fixes the open loop's length, so its heap is
		// read at the end, once the samples are dropped.
		d.s = samples{}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heap = ms.HeapAlloc
	}
	runtime.KeepAlive(d)
	for i := range rep.Metrics {
		if rep.Metrics[i].Name == "live_heap_mb" {
			rep.Metrics[i].Value = float64(int64(heap)-int64(heap0)) / (1 << 20)
		}
	}
	return rep, nil
}

// check applies the run's correctness checks: the placement digest for
// closed loops; for the open loop, that the facade holds exactly the VMs
// the harness admitted and has not retired, and, in a timed run, that
// the generator woke on time: its lag at the median and at p99 within a
// tenth of the VMs' latency at the same percentile. (On the reference
// host even a bare spin loop loses 10–50 µs to the hypervisor on more
// than one wait in a hundred, so a lag p99 against the latency median
// would fail every run.) A smoke run's few thousand waits give a lag
// p99 that one stray interrupt decides, so it is not judged.
func (d *driver) check(rep *report, c runConfig) {
	if !d.w.open {
		if n := d.w.digest; d.s.steps < n {
			rep.problem("the run ended after %d steps, inside the %d-step digest prefix", d.s.steps, n)
			return
		}
		got := d.dig.String()
		rep.Digest = got
		rep.note("digest=%s over the first %d steps", got, d.w.digest)
		if want := recordedDigests[d.w.name]; c.seed == defaultSeed && got != want {
			rep.problem("placement digest %s, recorded %s", got, want)
		}
		return
	}
	free := make(map[string]bool, len(d.free))
	for _, n := range d.free {
		free[n] = true
	}
	live := 0
	for _, name := range d.in.names {
		_, _, _, _, ok := d.fx.locate(name, nil)
		if ok == free[name] {
			rep.problem("VM %s: facade holds it %v, harness expects %v", name, ok, !free[name])
			return
		}
		if ok {
			live++
		}
	}
	rep.note("live=%d admitted=%d departed=%d", live, d.s.attempted, d.s.attempted-live)
	lags, lats := micros(d.s.lag), micros(d.s.vmLatency)
	for _, p := range []float64{0.5, 0.99} {
		lag, create := percentile(lags, p), percentile(lats, p)
		rep.note("gen_lag_p%g_us=%.3f over %d waits, create_p%g_us=%.1f", 100*p, lag, len(lags), 100*p, create)
		if !c.smoke && lag > 0.1*create {
			rep.problem("generator lag p%g %.1fus exceeds 10%% of create p%g %.1fus: the run timed the generator, not the engine", 100*p, lag, 100*p, create)
		}
	}
}

// endToEnd computes the metrics a tenant of the controller sees, from
// the run's samples, its set-up times and the heap allocations its
// facade calls made. The times are multiplied by scale, which brings
// them to the reference host's speed (calib.go); the unscaled ones are
// printed as a note. live_heap_mb is left for the caller to fill in.
// The tails and the throughputs are printed as notes, not reported as
// metrics: on a small shared host the slowest calls swing with the
// collections a run overlaps and with the hypervisor's stalls, and a
// throughput (VMs over the summed time of the calls) is mostly made of
// them, so they move by more than any bound the benchmark may set
// (README.md, "Host and noise").
func endToEnd(rep *report, s *samples, open bool, setups []time.Duration, mallocs uint64, scale float64) {
	create := micros(s.create)
	if open {
		create = micros(s.vmLatency)
	}
	destroy := micros(s.destroy)
	round := micros(s.round)
	for i := range round {
		round[i] /= 1000
	}
	vms := 0
	for _, n := range s.created {
		vms += int(n)
	}
	for _, p := range []float64{0.9, 0.99} {
		rep.note("tail p%g (not a metric): create_us=%.1f destroy_us=%.1f round_ms=%.4f",
			100*p, percentile(create, p), percentile(destroy, p), percentile(round, p))
	}
	rep.note("throughput (not a metric; median of 10 windows): placements_per_s=%.0f teardowns_per_s=%.0f",
		windowRate(s.created, seconds(s.create), 10), windowRate(s.destroyed, seconds(s.destroy), 10))
	createP50, destroyP50, roundP50, setupS := percentile(create, 0.5), percentile(destroy, 0.5), percentile(round, 0.5), median(seconds(setups))
	rep.note("unscaled: create_p50_us=%.3f destroy_p50_us=%.3f round_p50_ms=%.5f setup_s=%.6f", createP50, destroyP50, roundP50, setupS)
	rep.Metrics = []metric{
		{Name: "create_p50_us", Value: scale * createP50, Unit: "us", Samples: len(create)},
		{Name: "destroy_p50_us", Value: scale * destroyP50, Unit: "us", Samples: len(destroy)},
		{Name: "round_p50_ms", Value: scale * roundP50, Unit: "ms", Samples: len(round)},
		{Name: "allocs_per_vm", Value: float64(mallocs) / float64(max(vms, 1)), Unit: "count", Samples: vms},
		{Name: "live_heap_mb", Unit: "MB", Samples: 1},
		{Name: "setup_s", Value: scale * setupS, Unit: "s", Samples: len(setups)},
	}
}

// runTraced is the traced run: an untraced pass on a fresh fixture for
// the tracing-overhead baseline, then the same inputs down the ladder.
func runTraced(c runConfig, artifacts string) (*report, error) {
	rep := c.newReport(true)
	defer c.useProcs(rep)()
	steps, horizon := c.length()
	in, err := genInputs(c.w, c.seed, horizon)
	if err != nil {
		return nil, err
	}
	base, err := baselineCreate(c, in, steps)
	if err != nil {
		rep.problem("untraced pass: %v", err)
		return rep, nil
	}

	fx, err := newFixture(c.w, in)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	lad, err := newLadder(c.w, in, fx, c.workers, tr)
	if err != nil {
		return nil, err
	}
	d := newDriver(c.w, in, fx, fx.engine(), c.workers, c.loopBudget(c.budget-c.budget/4, false))
	d.lad = lad
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	err = d.run(steps)
	runtime.ReadMemStats(&ms1)
	rep.Attempted, rep.Failed = d.s.attempted, d.s.failed
	rep.note("steps=%d vms=%d spans=%d", d.s.steps, d.s.attempted, len(tr.spans))
	if err != nil {
		rep.problem("%v", err)
		return rep, nil
	}
	if err := checkInvariants(fx.pods()); err != nil {
		rep.problem("invariants: %v", err)
	}
	if err := checkInvariants(schedulers(lad.rowB, lad.podB)); err != nil {
		rep.problem("tier twin invariants: %v", err)
	}
	rep.Metrics = lad.metrics(d, base, &ms0, &ms1)
	path, err := tr.write(artifacts, c.w.name, c.seed, rep.Host, rep.Metrics)
	if err != nil {
		return nil, err
	}
	rep.note("spans written to %s", path)
	return rep, nil
}

// baselineCreate runs the first quarter of the budget untraced on a
// fresh fixture and returns the median facade create call in
// microseconds — what the traced run's core.create span is compared
// with.
func baselineCreate(c runConfig, in *inputs, steps int) (float64, error) {
	fx, err := newFixture(c.w, in)
	if err != nil {
		return 0, err
	}
	d := newDriver(c.w, in, fx, fx.engine(), c.workers, c.loopBudget(c.budget/4, false))
	if err := d.run(steps); err != nil {
		return 0, err
	}
	return percentile(micros(d.s.create), 0.5), nil
}

// metrics computes the per-layer metrics of the ladder run. Times are
// medians over operations; counts are per VM admitted or per pass.
func (l *ladder) metrics(d *driver, baseline float64, ms0, ms1 *runtime.MemStats) []metric {
	m := &l.m
	var out []metric
	add := func(name, unit string, v float64, n int) {
		if math.IsNaN(v) {
			out = append(out, metric{Name: name, Unit: unit, Absent: "no samples"})
			return
		}
		out = append(out, metric{Name: name, Value: v, Unit: unit, Samples: n})
	}
	absent := func(name, unit, why string) {
		out = append(out, metric{Name: name, Unit: unit, Absent: why})
	}
	p50 := func(ds []time.Duration) float64 { return percentile(micros(ds), 0.5) }
	diff := func(a, b []time.Duration) []time.Duration {
		out := make([]time.Duration, min(len(a), len(b)))
		for i := range out {
			out[i] = a[i] - b[i]
		}
		return out
	}
	vms := float64(max(m.vms, 1))

	add("core.create_us", "us", p50(m.coreCreate), len(m.coreCreate))
	add("core.destroy_us", "us", p50(m.coreDestroy), len(m.coreDestroy))
	add("core.self_create_us", "us", p50(diff(m.coreCreate, m.tierAdmit)), len(m.tierAdmit))
	add("core.self_destroy_us", "us", p50(diff(m.coreDestroy, m.tierEvict)), len(m.tierEvict))
	if m.consols > 0 {
		add("core.consolidate_us", "us", p50(m.coreConsolidate), len(m.coreConsolidate))
		add("core.rebalance_us", "us", p50(m.coreRebalance), len(m.coreRebalance))
		add("core.consolidate.vms_moved", "count", float64(m.moved)/float64(m.consols), m.consols)
		add("core.consolidate.moves_failed", "count", float64(m.movesFailed)/float64(m.consols), m.consols)
	} else {
		const why = "the workload neither rebalances nor consolidates"
		absent("core.consolidate_us", "us", why)
		absent("core.rebalance_us", "us", why)
		absent("core.consolidate.vms_moved", "count", why)
		absent("core.consolidate.moves_failed", "count", why)
	}

	reqs, fails, spills := l.statsB()
	reqs, fails, spills = reqs-l.reqs0, fails-l.fails0, spills-l.spill0
	add("sdm.tier.admit_us", "us", p50(m.tierAdmit), len(m.tierAdmit))
	add("sdm.tier.evict_us", "us", p50(m.tierEvict), len(m.tierEvict))
	add("sdm.tier.requests", "1/vm", float64(reqs)/vms, m.vms)
	add("sdm.tier.failures", "1/vm", float64(fails)/vms, m.vms)
	add("sdm.tier.spills", "1/vm", float64(spills)/vms, m.vms)
	add("sdm.tier.spill_frac", "frac", float64(spills)/float64(max(m.remote, 1)), m.remote)
	if l.racksC != nil {
		add("sdm.tier.overhead_us", "us", p50(diff(m.tierAdmit, m.rackPlace)), len(m.rackPlace))
		add("sdm.rack.place_us", "us", p50(m.rackPlace), len(m.rackPlace))
		add("sdm.rack.release_us", "us", p50(m.rackRelease), len(m.rackRelease))
		add("sdm.rack.shards_per_burst", "count", percentile(m.rackShards, 0.5), len(m.rackShards))
		add("sdm.rack.max_shard_us", "us", p50(m.rackMaxShard), len(m.rackMaxShard))
	} else {
		absent("sdm.tier.overhead_us", "us", rackAbsent)
		absent("sdm.rack.place_us", "us", rackAbsent)
		absent("sdm.rack.release_us", "us", rackAbsent)
		absent("sdm.rack.shards_per_burst", "count", rackAbsent)
		absent("sdm.rack.max_shard_us", "us", rackAbsent)
	}

	off, dark := 0, 0
	for _, p := range l.a.pods() {
		off += p.Census(topo.KindCompute).Off + p.Census(topo.KindMemory).Off
		dark += p.DarkRacks()
	}
	add("sdm.power.bricks_off", "count", float64(off), 1)
	add("sdm.power.dark_racks", "count", float64(dark), 1)

	add("optical.connect_us", "us", p50(m.connect), len(m.connect))
	add("optical.disconnect_us", "us", p50(m.disconnect), len(m.disconnect))
	add("optical.cross_frac", "frac", float64(m.cross)/float64(max(m.connects, 1)), m.connects)
	add("optical.packet_frac", "frac", float64(m.packets)/float64(max(m.attachments, 1)), m.attachments)
	add("optical.reconfigs", "1/vm", float64(m.reconfigs)/vms, m.vms)

	segs, used := 0, 0
	for _, rack := range l.bricksE {
		for _, b := range rack {
			if n := len(b.Segments()); n > 0 {
				segs += n
				used++
			}
		}
	}
	add("brick.carve_us", "us", p50(m.carve), len(m.carve))
	add("brick.release_us", "us", p50(m.release), len(m.release))
	add("brick.segments_per_brick", "count", float64(segs)/float64(max(used, 1)), used)

	gcs := int(ms1.NumGC - ms0.NumGC)
	var pauses []float64
	for i := 0; i < min(gcs, len(ms1.PauseNs)); i++ {
		idx := (int(ms1.NumGC) - 1 - i + len(ms1.PauseNs)) % len(ms1.PauseNs)
		pauses = append(pauses, float64(ms1.PauseNs[idx])/1e3)
	}
	add("go.gc_cycles", "count", float64(gcs), gcs)
	if len(pauses) > 0 {
		add("go.gc_pause_p99_us", "us", percentile(pauses, 0.99), len(pauses))
	} else {
		absent("go.gc_pause_p99_us", "us", "no collection ran during the traced run")
	}
	add("go.alloc_bytes_per_vm", "B/vm", float64(d.facadeAlloc)/vms, m.vms)

	s := &d.s
	if d.w.open {
		add("gen.lag_p99_us", "us", percentile(micros(s.lag), 0.99), len(s.lag))
		add("gen.queue_wait_p50_us", "us", percentile(micros(s.queueWait), 0.5), len(s.queueWait))
	} else {
		const why = "closed loop: each step is issued when the previous one completes, so nothing is due"
		absent("gen.lag_p99_us", "us", why)
		absent("gen.queue_wait_p50_us", "us", why)
	}
	add("gen.service_p50_us", "us", percentile(micros(s.round), 0.5), len(s.round))
	add("gen.batch_size_p50", "count", percentile(s.created, 0.5), len(s.created))
	add("gen.batch_size_max", "count", percentile(s.created, 1), len(s.created))

	add("trace.overhead_frac", "frac", p50(m.coreCreate)/baseline-1, len(m.coreCreate))
	return out
}
