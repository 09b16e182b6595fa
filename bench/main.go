// Command dredbox-bench is the end-to-end benchmark of the SDM
// orchestration engine: it drives the core facades (and, traced, a
// ladder of twins down through the tier, rack, fabric and brick layers)
// with seeded workloads and reports host-time metrics.
//
//	dredbox-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [-smoke] [-out FILE]
//	dredbox-bench compare [-benchmark FILE] A.jsonl B.jsonl
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the lines before it name
// the host, every metric with its unit and sample count, and anything
// that made the run incorrect. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain runs one workload and returns the exit code: 0 for a correct
// run, 1 for a run that finished but failed a check, 2 when no run
// happened.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dredbox-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: row-steady, pod-spill, pod-churn or row-poisson")
	seed := fs.Uint64("seed", defaultSeed, "seed the inputs are generated from")
	secs := fs.Float64("seconds", 10, "wall time to sample for: a closed loop's run after its warm-up steps, and the open loop's arrival window")
	trace := false
	fs.Func("trace", "1 for the traced ladder run (per-layer metrics), 0 for the end-to-end run", func(s string) error {
		v, err := strconv.ParseBool(s)
		trace = v
		return err
	})
	smoke := fs.Bool("smoke", false, "run a closed loop's digest prefix and a quarter as many steps again, or 200 ms of arrivals, with no time budget")
	out := fs.String("out", "", "append the full run record (every metric with its sample count, notes and host facts) to this JSON-lines file")
	artifacts := fs.String("artifacts", "artifacts/bench", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *secs <= 0 || math.IsNaN(*secs) {
		fmt.Fprintf(stderr, "--seconds must be positive, got %v\n", *secs)
		return 2
	}
	c := runConfig{w: w, seed: *seed, budget: time.Duration(*secs * float64(time.Second)), smoke: *smoke}
	var rep *report
	if trace {
		rep, err = runTraced(c, *artifacts)
	} else {
		rep, err = runEndToEnd(c)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 2
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *out != "" {
		if err := appendRecord(*out, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes the human-readable lines and then the result line.
// An absent metric reads 0 in the result line; its reason is printed
// above it. A metric with no samples is a failed check.
func printReport(w io.Writer, rep *report) error {
	for i := range rep.Metrics {
		m := &rep.Metrics[i]
		if m.Absent == "" && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			rep.problem("%s has no samples", m.Name)
			m.Value = 0
		}
	}
	fmt.Fprintf(w, "host: %v\n", rep.Host)
	fmt.Fprintf(w, "run: workload=%s seed=%d trace=%v\n", rep.Workload, rep.Seed, rep.Trace)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	res := result{Correct: rep.Correct, Attempted: max(rep.Attempted, 1), Failed: rep.Failed, Metrics: make(map[string]resultMetric)}
	for _, m := range rep.Metrics {
		if m.Absent != "" {
			fmt.Fprintf(w, "absent: %s (%s): %s\n", m.Name, m.Unit, m.Absent)
		} else {
			fmt.Fprintf(w, "metric: %s = %.6g %s (samples %d)\n", m.Name, m.Value, m.Unit, m.Samples)
		}
		res.Metrics[m.Name] = resultMetric{Value: m.Value, Unit: m.Unit}
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendRecord appends the run's full report to a JSON-lines file, the
// input of the compare subcommand.
func appendRecord(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n", line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
