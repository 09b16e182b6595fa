package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// declaration is the part of BENCHMARK.json compare reads: each
// metric's direction and, for end-to-end metrics, its regression bound.
type declaration struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// compareMain compares two sets of run records (JSON lines written by
// -out), per workload and metric: medians and quartiles, how many
// index-paired runs B won, and a verdict. It returns 1 when any metric
// regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	declPath := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-benchmark FILE] A.jsonl B.jsonl")
		return 2
	}
	decl, err := readDeclaration(*declPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, diff := range hostDiffs(a, b) {
		fmt.Fprintf(stdout, "warning: host facts differ: %s\n", diff)
	}
	rows := compareRecords(a, b, decl)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tdelta\tB wins\tverdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%d/%d\t%s\n", r.workload, r.metric, r.a, r.b, 100*r.delta, r.wins, r.pairs, r.verdict)
		if r.verdict == "regressed" {
			code = 1
		}
	}
	tw.Flush()
	return code
}

func readDeclaration(path string) (map[string]declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark declaration: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := make(map[string]declared)
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

func readRecords(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// hostDiffs lists the host facts that are not the same on every record
// of both sets.
func hostDiffs(a, b []report) []string {
	var diffs []string
	seen := map[string]map[string]bool{}
	for _, r := range append(slices.Clone(a), b...) {
		h := r.Host
		for k, v := range map[string]string{
			"gomaxprocs": fmt.Sprint(h.GOMAXPROCS), "numcpu": fmt.Sprint(h.NumCPU),
			"cpu": h.CPU, "go": h.Go, "gogc": h.GOGC, "godebug": h.GODEBUG,
		} {
			if seen[k] == nil {
				seen[k] = map[string]bool{}
			}
			seen[k][v] = true
		}
	}
	for _, k := range []string{"gomaxprocs", "numcpu", "cpu", "go", "gogc", "godebug"} {
		if len(seen[k]) > 1 {
			var vs []string
			for v := range seen[k] {
				vs = append(vs, v)
			}
			slices.Sort(vs)
			diffs = append(diffs, fmt.Sprintf("%s %q", k, vs))
		}
	}
	return diffs
}

type compareRow struct {
	workload, metric string
	a, b             string
	delta            float64 // (B median - A median) / A median
	wins, pairs      int
	verdict          string
}

// compareRecords pairs the i-th run of A with the i-th run of B per
// workload and trace mode, in file order — the order the runs were made
// in, alternating sides.
func compareRecords(a, b []report, decl map[string]declared) []compareRow {
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []report) (map[key]map[string][]float64, []key, map[key][]string) {
		vals := map[key]map[string][]float64{}
		var keys []key
		names := map[key][]string{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			if vals[k] == nil {
				vals[k] = map[string][]float64{}
				keys = append(keys, k)
			}
			for _, m := range r.Metrics {
				if m.Absent != "" {
					continue
				}
				if _, ok := vals[k][m.Name]; !ok {
					names[k] = append(names[k], m.Name)
				}
				vals[k][m.Name] = append(vals[k][m.Name], m.Value)
			}
		}
		return vals, keys, names
	}
	av, keys, names := group(a)
	bv, _, _ := group(b)
	var rows []compareRow
	for _, k := range keys {
		label := k.workload
		if k.trace {
			label += " (traced)"
		}
		for _, name := range names[k] {
			xs, ys := av[k][name], bv[k][name]
			if len(ys) == 0 {
				continue
			}
			d, ok := decl[name]
			row := compareRow{workload: label, metric: name, a: summarize(xs), b: summarize(ys)}
			row.delta = (median(ys) - median(xs)) / math.Abs(median(xs))
			if !ok || (d.Better != "lower" && d.Better != "higher") {
				row.verdict = "undeclared"
			} else {
				row.verdict, row.wins, row.pairs = verdict(xs, ys, d.Better == "lower", d.Bound)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func summarize(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", q2, q1, q3, len(xs))
}

// verdict judges B against A:
//
//   - improved: at least 10 pairs, B better in at least 9 of every 10
//     (ties count for neither side), and the medians differ, in B's
//     favour, by more than A's own spread (its interquartile range);
//   - regressed: B's median worse than A's by more than the metric's
//     bound; for a metric with no bound, the improved rule mirrored;
//   - unresolved: A's own spread is wider than the bound (or, with no
//     bound, any other non-zero difference), unless every run of B
//     reads better than every run of A;
//   - unchanged: within the bound, or exactly equal.
func verdict(a, b []float64, lowerBetter bool, bound *float64) (v string, wins, pairs int) {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs = min(len(a), len(b))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	q1, ma, q3 := quartiles(a)
	mb := median(b)
	iqr := q3 - q1
	gap := math.Abs(mb - ma)
	if pairs >= 10 && wins*10 >= pairs*9 && gap > iqr && better(mb, ma) {
		return "improved", wins, pairs
	}
	if mb == ma {
		return "unchanged", wins, pairs
	}
	allBetter := slices.Max(b) < slices.Min(a)
	if !lowerBetter {
		allBetter = slices.Min(b) > slices.Max(a)
	}
	if bound == nil {
		if pairs >= 10 && losses*10 >= pairs*9 && gap > iqr && better(ma, mb) {
			return "regressed", wins, pairs
		}
		return "unresolved", wins, pairs
	}
	worse := (mb - ma) / math.Abs(ma)
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case worse > *bound:
		return "regressed", wins, pairs
	case iqr/math.Abs(ma) > *bound && !allBetter:
		return "unresolved", wins, pairs
	}
	return "unchanged", wins, pairs
}
