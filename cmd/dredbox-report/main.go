// Command dredbox-report runs the entire evaluation — every table and
// figure of the paper plus this repository's extension experiments — and
// emits one consolidated text report. It is the artifact-evaluation
// entry point: one command, the whole story, deterministic for a seed.
//
// The report is assembled from the internal/exp registry: experiments
// run in registration order while their independent trials fan out
// across -parallel workers, so the output is byte-identical for every
// worker count. -artifacts additionally writes per-experiment .txt,
// .json and .csv files.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	seed := flag.Uint64("seed", 1, "deterministic simulation seed")
	trials := flag.Int("trials", 0, "override the trial/sample count of multi-trial experiments (0 = per-experiment defaults: 500 BER trials/link, 100000 Table I samples)")
	parallel := flag.Int("parallel", 0, "worker pool size for independent trials (0 = all cores)")
	racks := flag.Int("racks", 0, "rack count for pod-scale experiments (pod, fig10pod, churn — racks per pod for fig10row); 0 = per-experiment defaults, minimum 2 — sweep it to chart the sharding win")
	pods := flag.Int("pods", 0, "pod count for row-scale experiments (fig10row); 0 = per-experiment default, minimum 2 — sweep it to chart the hierarchy win")
	batch := flag.Bool("batch", false, "serve the sharded sides of fig10pod and fig10row and churn's whole lifecycle through batched group commits (CreateVMs/AdmitBatch, DestroyVMs/EvictBatch, RebalanceBatch) instead of per-request calls")
	batchSize := flag.Int("batchsize", 0, "with -batch: admission/teardown batch size (0 = one batch per burst; 1 reproduces the per-request path byte for byte)")
	pipeline := flag.Int("pipeline", 0, "batch-pipeline depth for churn/fig10pod/fig10row (implies -batch): overlap burst k+1's planning with burst k's boots through core.BatchPipeline; 0 or 1 = no pipelining")
	out := flag.String("o", "", "write the report to a file instead of stdout")
	artifacts := flag.String("artifacts", "", "also write per-experiment .txt/.json/.csv artifacts into this directory")
	only := flag.String("only", "", "comma-separated experiment names to run (default: all registered)")
	list := flag.Bool("list", false, "list registered experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-14s %s\n", e.Info().Name, e.Info().Paper)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}

	var names []string
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}

	// The CPU profile brackets the experiment runs only — report
	// formatting and artifact writes stay out of the flame graph.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
	}

	runner := exp.Runner{Workers: *parallel}
	start := time.Now()
	outs, err := runner.Run(exp.Params{Seed: *seed, Trials: *trials, Racks: *racks, Pods: *pods, Batch: *batch, BatchSize: *batchSize, Pipeline: *pipeline}, names...)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "dredbox-report: wrote CPU profile to %s\n", *cpuprofile)
	}
	if err != nil {
		fail(err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "dredbox-report: wrote heap profile to %s\n", *memprofile)
	}

	fmt.Fprintln(w, "dReDBox reproduction — full evaluation report")
	fmt.Fprintf(w, "seed %d; all simulations deterministic\n", *seed)
	results := make([]exp.Result, 0, len(outs))
	for _, o := range outs {
		title := o.Result.Info.Paper
		fmt.Fprintf(w, "\n%s\n%s\n\n", title, strings.Repeat("=", len(title)))
		fmt.Fprint(w, o.Result.Text)
		results = append(results, o.Result)
	}

	// Timing goes to stderr so the report itself stays byte-identical
	// across worker counts.
	fmt.Fprintf(os.Stderr, "dredbox-report: %d experiments in %v (workers=%d)\n",
		len(outs), time.Since(start).Round(time.Millisecond), exp.Workers(*parallel))
	for _, o := range outs {
		fmt.Fprintf(os.Stderr, "  %-14s %v\n", o.Result.Info.Name, o.Wall.Round(time.Millisecond))
	}

	if *artifacts != "" {
		paths, err := exp.WriteArtifacts(*artifacts, results)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "dredbox-report: wrote %d artifacts to %s\n", len(paths), *artifacts)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dredbox-report:", err)
	os.Exit(1)
}
