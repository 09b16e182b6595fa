package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/topo"
)

func smokeConfig(t *testing.T, name string, seed uint64, workers int) runConfig {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{w: w, seed: seed, smoke: true, workers: workers}
}

func mustCorrect(t *testing.T, rep *report, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("%s: run failed its checks: %v", rep.Workload, rep.Problems)
	}
}

// The digest pins placement, which the engine promises is the same at
// any worker count; a different seed draws different inputs and must
// place differently.
func TestDigestIndependentOfWorkersAndTracksSeed(t *testing.T) {
	parallel := max(runtime.GOMAXPROCS(0), 2)
	for _, name := range []string{"row-steady", "pod-spill", "pod-churn"} {
		t.Run(name, func(t *testing.T) {
			one, err := runEndToEnd(smokeConfig(t, name, defaultSeed, 1))
			mustCorrect(t, one, err)
			many, err := runEndToEnd(smokeConfig(t, name, defaultSeed, parallel))
			mustCorrect(t, many, err)
			if one.Digest == "" || one.Digest != many.Digest {
				t.Errorf("digest %q at 1 worker, %q at %d", one.Digest, many.Digest, parallel)
			}
			other, err := runEndToEnd(smokeConfig(t, name, defaultSeed+1, parallel))
			mustCorrect(t, other, err)
			if other.Digest == one.Digest {
				t.Errorf("seeds %d and %d share digest %s", defaultSeed, defaultSeed+1, one.Digest)
			}
		})
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// fakeEngine serves every admission batch in a fixed time.
type fakeEngine struct{ perBatch time.Duration }

func (f fakeEngine) CreateVMs(reqs []core.VMCreate, _ int) ([]scaleup.Result, error) {
	time.Sleep(f.perBatch)
	return nil, nil
}

func (f fakeEngine) DestroyVMs([]string, int) ([]scaleup.Result, error) { return nil, nil }

// An engine that takes 1 ms per batch, fed a VM every 100 µs, holds
// arrivals back while it works. Timed from due time, a VM's latency is
// its wait plus its batch's service; timed from when its batch started
// (coordinated omission) it would read as the service time alone.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const service = time.Millisecond
	w := &workload{name: "fake", open: true, burst: 256}
	in := &inputs{shapes: []vmShape{{vcpus: 1, local: 1}}, names: nameRange(1024)}
	for i := 1; i <= 300; i++ {
		in.due = append(in.due, time.Duration(i)*100*time.Microsecond)
	}
	d := newDriver(w, in, nil, fakeEngine{perBatch: service}, 1, 0)
	if err := d.runOpen(); err != nil {
		t.Fatal(err)
	}
	lat, wait := micros(d.s.vmLatency), micros(d.s.queueWait)
	if len(lat) != len(in.due) {
		t.Fatalf("%d latencies for %d arrivals", len(lat), len(in.due))
	}
	for i := range lat {
		if lat[i] < wait[i]+float64(service/time.Microsecond) {
			t.Fatalf("VM %d: latency %.0fus is less than its wait %.0fus plus the 1 ms service", i, lat[i], wait[i])
		}
	}
	if p50 := percentile(lat, 0.5); p50 < 1300 {
		t.Errorf("latency p50 %.0fus: arrivals queued behind a 1 ms batch should wait about half a batch more", p50)
	}
	if p50 := percentile(wait, 0.5); p50 < 300 {
		t.Errorf("queue wait p50 %.0fus, want at least 300us", p50)
	}
	if n := percentile(d.s.created, 0.5); n < 5 {
		t.Errorf("batch size p50 %v: arrivals should accumulate while a batch is served", n)
	}
}

// smallRow is row-steady shrunk to a 2-pod × 2-rack row; its smoke run
// is 75 steps.
var smallRow = workload{name: "row-steady", pods: 2, racks: 2, policy: sdm.PolicySpread, warm: 60, digest: 60, pool: 100, burst: 6}

func TestLadderAgreesOnSmallRow(t *testing.T) {
	w := smallRow
	rep, err := runTraced(runConfig{w: &w, seed: 7, smoke: true, workers: 2}, t.TempDir())
	mustCorrect(t, rep, err)
	got := map[string]metric{}
	for _, m := range rep.Metrics {
		got[m.Name] = m
	}
	for _, name := range []string{"sdm.tier.admit_us", "sdm.rack.place_us", "optical.connect_us", "brick.carve_us"} {
		if m := got[name]; m.Absent != "" || m.Samples == 0 {
			t.Errorf("%s missing from the small row's ladder: %+v", name, m)
		}
	}
}

// A rack twin that disagrees with the facade must stop the run.
func TestLadderCatchesADivergentRung(t *testing.T) {
	w := smallRow
	in, err := genInputs(&w, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := newFixture(&w, in)
	if err != nil {
		t.Fatal(err)
	}
	lad, err := newLadder(&w, in, fx, 1, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	// Take most of one rack twin's first memory brick, which the facade's
	// rack still offers in full.
	rack := lad.racksC[0]
	cpu := topo.BrickID{Tray: 0, Slot: 0}
	if _, _, err := rack.AttachRemoteMemory("intruder", cpu, 60*brick.GiB); err != nil {
		t.Fatal(err)
	}
	d := newDriver(&w, in, fx, fx.engine(), 1, 0)
	d.lad = lad
	err = d.runClosed(w.digest)
	if err == nil || !strings.Contains(err.Error(), "rack rung") {
		t.Fatalf("run error %v, want a rack rung disagreement", err)
	}
}

func TestSmokeRunsAreQuick(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the engine several-fold")
	}
	start := time.Now()
	for _, w := range workloads {
		rep, err := runEndToEnd(smokeConfig(t, w.name, defaultSeed, 0))
		mustCorrect(t, rep, err)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Errorf("smoke runs of all workloads took %v, want under 3s", el)
	}
}

// Every metric a run reports must be declared in BENCHMARK.json with the
// same unit, and every declared metric must be reported: end-to-end
// metrics by the untraced run, per-layer ones by the traced run.
func TestReportedMetricsMatchDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(label string, got []metric, want []struct{ Name, Unit string }) {
		units := map[string]string{}
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, %d declared", label, len(got), len(want))
		}
		for _, d := range want {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s declared in %s, reported as %q (present %v)", label, d.Name, d.Unit, u, ok)
			}
		}
	}
	untraced, err := runEndToEnd(smokeConfig(t, "pod-churn", defaultSeed, 0))
	mustCorrect(t, untraced, err)
	check("untraced", untraced.Metrics, decl.EndToEnd)
	c := smokeConfig(t, "pod-churn", defaultSeed, 0)
	traced, err := runTraced(c, t.TempDir())
	mustCorrect(t, traced, err)
	check("traced", traced.Metrics, decl.PerLayer)
}
