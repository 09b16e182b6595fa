package main

import (
	"bufio"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

const sampleRun = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 1.00GHz
BenchmarkA-2   	     500	      1000 ns/op	   2000 placements/s	      16 B/op	       1 allocs/op
BenchmarkA-2   	     400	      1200 ns/op	   2500 placements/s	       8 B/op	       1 allocs/op
BenchmarkB/pods-8-2 	     100	       300 ns/op
PASS
ok  	repro	1.234s
`

func parseString(t *testing.T, in string) Baseline {
	t.Helper()
	b, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParse(t *testing.T) {
	b := parseString(t, sampleRun)
	if b.GOOS != "linux" || b.GOARCH != "amd64" || b.Pkg != "repro" || b.CPU != "Test CPU @ 1.00GHz" {
		t.Fatalf("header facts: %+v", b)
	}
	if len(b.Benchmarks) != 3 {
		t.Fatalf("got %d benchmark lines, want 3", len(b.Benchmarks))
	}
	want := Benchmark{Name: "BenchmarkA-2", Iterations: 500, Metrics: map[string]float64{
		"ns/op": 1000, "placements/s": 2000, "B/op": 16, "allocs/op": 1,
	}}
	if !reflect.DeepEqual(b.Benchmarks[0], want) {
		t.Fatalf("first line parsed as %+v, want %+v", b.Benchmarks[0], want)
	}
	if b.Benchmarks[2].Name != "BenchmarkB/pods-8-2" || b.Benchmarks[2].Metrics["ns/op"] != 300 {
		t.Fatalf("sub-benchmark parsed as %+v", b.Benchmarks[2])
	}
}

func TestMergeKeepsBestRun(t *testing.T) {
	merged, stats := merge(parseString(t, sampleRun))
	if len(merged.Benchmarks) != 2 {
		t.Fatalf("merged into %d entries, want 2", len(merged.Benchmarks))
	}
	a := merged.Benchmarks[0]
	want := map[string]float64{"ns/op": 1000, "placements/s": 2500, "B/op": 8, "allocs/op": 1}
	if a.Name != "BenchmarkA-2" || a.Iterations != 500 || !reflect.DeepEqual(a.Metrics, want) {
		t.Fatalf("merged entry %+v, want best-of metrics %v over 500 iterations", a, want)
	}
	s := stats["BenchmarkA-2"]
	if s.runs != 2 {
		t.Fatalf("runs %d, want 2", s.runs)
	}
	if got := s.spread("placements/s"); got != 0.2 {
		t.Fatalf("placements/s spread %v, want 0.2", got)
	}
}

func TestHostWarnings(t *testing.T) {
	host := Baseline{CPU: "c", GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0"}
	if w := hostWarnings(host, host); len(w) != 0 {
		t.Fatalf("same host warned: %q", w)
	}
	fresh := host
	fresh.GOMAXPROCS, fresh.GoVersion = 8, "go1.25.0"
	w := hostWarnings(host, fresh)
	if len(w) != 2 || !strings.Contains(w[0], "gomaxprocs differs: baseline 2, fresh 8") ||
		!strings.Contains(w[1], "go_version differs: baseline go1.24.0, fresh go1.25.0") {
		t.Fatalf("warnings %q", w)
	}
	// A baseline recorded before the host facts existed warns once.
	w = hostWarnings(Baseline{CPU: "c"}, fresh)
	if len(w) != 1 || !strings.Contains(w[0], "baseline records no gomaxprocs") {
		t.Fatalf("warnings against a fact-free baseline %q", w)
	}
}

func TestBaselineHostFactsRoundTrip(t *testing.T) {
	in := Baseline{CPU: "c", GOMAXPROCS: 4, NumCPU: 8, GoVersion: "go1.24.0", Benchmarks: []Benchmark{}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"cpu":"c","gomaxprocs":4,"numcpu":8,"go_version":"go1.24.0"`) {
		t.Fatalf("host facts not recorded beside cpu: %s", data)
	}
	var out Baseline
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %+v, want %+v", out, in)
	}
}

// TestCommittedBaselineParses reads the repository's baseline, which
// predates the host facts.
func TestCommittedBaselineParses(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Benchmarks) == 0 || b.CPU == "" {
		t.Fatalf("committed baseline parsed empty: %d benchmarks, cpu %q", len(b.Benchmarks), b.CPU)
	}
}
