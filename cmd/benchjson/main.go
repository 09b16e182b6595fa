// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON benchmark artifact on stdout. It is the back
// half of `make bench`, which writes BENCH_baseline.json — the
// repository's performance trajectory record: each entry carries the
// benchmark's name, iteration count, and every reported metric
// (ns/op, B/op, allocs/op and custom metrics like placements/s).
//
// With -compare BASELINE it instead acts as the CI perf gate: the
// fresh run on stdin is diffed against the committed baseline and the
// program exits non-zero when any throughput-class metric (one whose
// unit ends in "/s" — placements/s, promotions/s) regresses by more
// than -threshold, or when an allocation metric (allocs/op, B/op)
// grows by more than -alloc-threshold — the dense-ID data plane's
// amortised alloc-free hot paths are part of the recorded trajectory,
// so a change that quietly reintroduces per-op allocations fails the
// gate just like a throughput regression. An alloc metric whose
// baseline is 0 must stay 0. The diff runs both ways: fresh metrics
// without a baseline entry print NO BASELINE (visible, non-fatal), and
// baseline benchmarks absent from the fresh run print MISSING and fail
// the gate unless -allow-missing marks the run as an intentional
// subset.
//
// The artifact records the host facts the numbers depend on beside the
// CPU model go test prints: GOMAXPROCS, the CPU count and the Go
// version, read from benchjson's own process, which `make bench` runs
// in the same environment right after the benchmarks. -compare prints
// a warning, not a failure, when they differ from the baseline's (or
// the baseline predates them).
//
// Repeated entries for the same benchmark name (a `-count=N` run, the
// flakiness guard `make bench`/`bench-check` use) are collapsed to one
// best-of entry before emitting or comparing: throughput metrics keep
// their maximum across runs, cost metrics (ns/op, B/op, allocs/op)
// their minimum, and the relative spread between the best and worst
// run is reported so scheduler noise is visible instead of gating.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Baseline is the whole artifact.
type Baseline struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	NumCPU     int         `json:"numcpu,omitempty"`
	GoVersion  string      `json:"go_version,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// hostWarnings compares the host facts of a fresh run with the
// baseline's and returns one line per difference, or one line when the
// baseline records none.
func hostWarnings(base, fresh Baseline) []string {
	if base.GOMAXPROCS == 0 && base.NumCPU == 0 && base.GoVersion == "" {
		return []string{"host: WARNING baseline records no gomaxprocs, numcpu or go_version; the comparison cannot tell a host change from a regression"}
	}
	var out []string
	for _, f := range []struct {
		name        string
		base, fresh any
	}{
		{"cpu", base.CPU, fresh.CPU},
		{"gomaxprocs", base.GOMAXPROCS, fresh.GOMAXPROCS},
		{"numcpu", base.NumCPU, fresh.NumCPU},
		{"go_version", base.GoVersion, fresh.GoVersion},
	} {
		if f.base != f.fresh {
			out = append(out, fmt.Sprintf("host: WARNING %s differs: baseline %v, fresh %v", f.name, f.base, f.fresh))
		}
	}
	return out
}

// metric looks one benchmark's metric up by name.
func (b Baseline) metric(bench, name string) (float64, bool) {
	for _, e := range b.Benchmarks {
		if e.Name == bench {
			v, ok := e.Metrics[name]
			return v, ok
		}
	}
	return 0, false
}

// parse reads `go test -bench` output into a Baseline.
func parse(r *bufio.Scanner) (Baseline, error) {
	var out Baseline
	for r.Scan() {
		line := r.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			out.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			out.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		// The remainder alternates value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[fields[i+1]] = v
		}
		out.Benchmarks = append(out.Benchmarks, b)
	}
	if err := r.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// runStats tracks one benchmark's best-of merge across -count runs.
type runStats struct {
	bench    Benchmark
	runs     int
	min, max map[string]float64
}

// spread is the best-to-worst relative span of one metric across runs
// — the noise band the best-of merge absorbed.
func (s *runStats) spread(unit string) float64 {
	if best := s.bench.Metrics[unit]; best != 0 {
		return (s.max[unit] - s.min[unit]) / best
	}
	return 0
}

// better reports whether v beats cur for the given unit: throughput
// (*/s) metrics want the fastest run, cost metrics the cheapest.
func better(unit string, v, cur float64) bool {
	if strings.HasSuffix(unit, "/s") {
		return v > cur
	}
	return v < cur
}

// merge collapses repeated benchmark names (from -count=N) into one
// best-of entry each, preserving first-seen order, and returns the
// per-benchmark run statistics for spread reporting.
func merge(in Baseline) (Baseline, map[string]*runStats) {
	stats := map[string]*runStats{}
	var order []string
	for _, b := range in.Benchmarks {
		s, ok := stats[b.Name]
		if !ok {
			s = &runStats{
				bench: Benchmark{Name: b.Name, Iterations: b.Iterations, Metrics: map[string]float64{}},
				runs:  1, min: map[string]float64{}, max: map[string]float64{},
			}
			for unit, v := range b.Metrics {
				s.bench.Metrics[unit] = v
				s.min[unit], s.max[unit] = v, v
			}
			stats[b.Name] = s
			order = append(order, b.Name)
			continue
		}
		s.runs++
		if b.Iterations > s.bench.Iterations {
			s.bench.Iterations = b.Iterations
		}
		for unit, v := range b.Metrics {
			cur, seen := s.bench.Metrics[unit]
			if !seen {
				s.bench.Metrics[unit] = v
				s.min[unit], s.max[unit] = v, v
				continue
			}
			if better(unit, v, cur) {
				s.bench.Metrics[unit] = v
			}
			if v < s.min[unit] {
				s.min[unit] = v
			}
			if v > s.max[unit] {
				s.max[unit] = v
			}
		}
	}
	out := in
	out.Benchmarks = make([]Benchmark, 0, len(order))
	for _, name := range order {
		out.Benchmarks = append(out.Benchmarks, stats[name].bench)
	}
	return out, stats
}

func main() {
	compare := flag.String("compare", "", "diff the fresh run on stdin against this baseline JSON instead of emitting JSON; exit non-zero on throughput or allocation regressions")
	threshold := flag.Float64("threshold", 0.25, "with -compare: relative regression tolerated in any throughput (*/s) metric before failing")
	allocThreshold := flag.Float64("alloc-threshold", 0.5, "with -compare: relative growth tolerated in allocs/op and B/op before failing (a 0 baseline must stay 0)")
	allowMissing := flag.Bool("allow-missing", false, "with -compare: tolerate baseline benchmarks absent from the fresh run (intentional filtered-pattern subsets) instead of failing")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	fresh, err := parse(sc)
	if err != nil {
		fail(err)
	}
	if len(fresh.Benchmarks) == 0 {
		fail(fmt.Errorf("no benchmark lines on stdin"))
	}
	fresh, stats := merge(fresh)
	fresh.GOMAXPROCS, fresh.NumCPU, fresh.GoVersion = runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()
	// Spread report goes to stderr so the JSON artifact on stdout stays
	// clean; only multi-run (-count > 1) benchmarks have a spread.
	for _, fb := range fresh.Benchmarks {
		s := stats[fb.Name]
		if s.runs < 2 {
			continue
		}
		worstUnit, worst := "", 0.0
		for unit := range fb.Metrics {
			if !strings.HasSuffix(unit, "/s") {
				continue
			}
			if sp := s.spread(unit); worstUnit == "" || sp > worst {
				worstUnit, worst = unit, sp
			}
		}
		if worstUnit != "" {
			fmt.Fprintf(os.Stderr, "benchjson: %-60s best of %d runs, %s spread %5.1f%%\n",
				fb.Name, s.runs, worstUnit, 100*worst)
		}
	}

	if *compare == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fresh); err != nil {
			fail(err)
		}
		return
	}

	data, err := os.ReadFile(*compare)
	if err != nil {
		fail(err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fail(fmt.Errorf("parsing %s: %w", *compare, err))
	}
	for _, w := range hostWarnings(base, fresh) {
		fmt.Println(w)
	}
	regressions := 0
	checked := 0
	throughputChecked := 0
	unmatched := 0
	for _, fb := range fresh.Benchmarks {
		// Sorted metric order keeps the gate report diffable run to run.
		units := make([]string, 0, len(fb.Metrics))
		for unit := range fb.Metrics {
			if strings.HasSuffix(unit, "/s") || unit == "allocs/op" || unit == "B/op" {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			got := fb.Metrics[unit]
			want, ok := base.metric(fb.Name, unit)
			alloc := unit == "allocs/op" || unit == "B/op"
			spread := fmt.Sprintf("spread %5.1f%%", 100*stats[fb.Name].spread(unit))
			if stats[fb.Name].runs < 2 {
				spread = "spread   n/a "
			}
			if !ok || (!alloc && want <= 0) {
				// Visible, not fatal: a renamed benchmark or truncated
				// baseline must not silently shrink the gate's coverage.
				unmatched++
				fmt.Printf("%-60s %-16s baseline %14s  fresh %14.1f    n/a   %s  NO BASELINE\n",
					fb.Name, unit, "-", got, spread)
				continue
			}
			checked++
			if !alloc {
				throughputChecked++
			}
			status := "ok"
			deltaStr := "   n/a "
			switch {
			case want == 0:
				// An amortised alloc-free baseline must stay alloc-free:
				// there is no relative threshold against zero.
				if got > 0 {
					status = "REGRESSION"
					regressions++
				}
			case alloc:
				delta := got/want - 1
				deltaStr = fmt.Sprintf("%+6.1f%%", 100*delta)
				if delta > *allocThreshold {
					status = "REGRESSION"
					regressions++
				}
			default:
				delta := got/want - 1
				deltaStr = fmt.Sprintf("%+6.1f%%", 100*delta)
				if delta < -*threshold {
					status = "REGRESSION"
					regressions++
				}
			}
			fmt.Printf("%-60s %-16s baseline %14.1f  fresh %14.1f  %s  %s  %s\n",
				fb.Name, unit, want, got, deltaStr, spread, status)
		}
	}
	// The reverse direction: baseline benchmarks the fresh run never
	// exercised. A filtered -bench pattern skips them legitimately
	// (-allow-missing); in a full run a missing entry means a deleted or
	// renamed benchmark quietly dropped out of the gate's coverage.
	freshNames := make(map[string]bool, len(fresh.Benchmarks))
	for _, fb := range fresh.Benchmarks {
		freshNames[fb.Name] = true
	}
	missing := 0
	for _, bb := range base.Benchmarks {
		if freshNames[bb.Name] {
			continue
		}
		missing++
		fmt.Printf("%-60s %-16s baseline %14s  fresh %14s    n/a   spread   n/a   MISSING\n",
			bb.Name, "-", "recorded", "-")
	}
	if throughputChecked == 0 {
		fail(fmt.Errorf("no throughput (*/s) metrics shared with baseline %s", *compare))
	}
	if regressions > 0 {
		fail(fmt.Errorf("%d of %d gated metrics regressed (throughput beyond %.0f%%, allocations beyond %.0f%%)", regressions, checked, 100**threshold, 100**allocThreshold))
	}
	if missing > 0 && !*allowMissing {
		fail(fmt.Errorf("%d baseline benchmark(s) missing from the fresh run (deleted, renamed, or filtered out — pass -allow-missing for intentional subset runs)", missing))
	}
	suffix := ""
	if unmatched > 0 {
		suffix = fmt.Sprintf(" (%d metric(s) had no baseline entry — re-record with `make bench` if they should be gated)", unmatched)
	}
	if missing > 0 {
		suffix += fmt.Sprintf(" (%d baseline benchmark(s) skipped by the filtered run)", missing)
	}
	fmt.Printf("perf gate: %d metrics within thresholds (%d throughput within %.0f%%, %d allocation within %.0f%%)%s\n",
		checked, throughputChecked, 100**threshold, checked-throughputChecked, 100**allocThreshold, suffix)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
