// Package exp is the experiment engine of the reproduction: every table
// and figure of the paper's evaluation — and every ablation this
// repository adds on top — is an Experiment registered here, run through
// a worker pool that executes independent trials in parallel, and
// emitted as text, JSON and CSV artifacts.
//
// Determinism is the package's hard contract (DESIGN.md §3): every trial
// seeds its own sim kernel from a seed derived off the master seed and
// the trial's index, so a run's output is bit-identical regardless of
// the worker count. The registry (DESIGN.md §4) is the extension point
// later scenarios plug into: register an Experiment and it appears in
// dredbox-report, the artifact writers and the smoke/determinism tests
// with no further wiring.
package exp

import (
	"fmt"
	"sort"
)

// Params carries the run-wide knobs every experiment receives.
type Params struct {
	// Seed is the master seed; all per-trial seeds derive from it.
	Seed uint64
	// Trials scales the multi-trial experiments (Fig. 7 BER trials per
	// link, Table I samples per class). Zero means the experiment's
	// default; negative is rejected.
	Trials int
	// Workers bounds the worker pool for trial-level parallelism.
	// Zero or negative means GOMAXPROCS.
	Workers int
	// Racks sizes the pod-scale experiments (the "pod" registry entry).
	// Zero means the experiment's default; single-rack experiments
	// ignore it. Row-scale experiments read it as racks per pod.
	Racks int
	// Pods sizes the row-scale experiments (the "fig10row" registry
	// entry). Zero means the experiment's default; single-pod
	// experiments ignore it.
	Pods int
	// Batch routes fig10pod's sharded side through the batched
	// group-commit admission path (CreateVMs / AdmitBatch) instead of
	// the per-request loop. Output stays byte-identical to the
	// sequential path at BatchSize 1.
	Batch bool
	// BatchSize caps the admission batch size in Batch mode; zero means
	// one batch per burst.
	BatchSize int
	// Pipeline sets the batch-pipeline depth for the experiments that
	// support it (churn, fig10pod, fig10row): bursts go through a
	// core.BatchPipeline that overlaps burst k+1's planning with burst
	// k's boots. 0 or 1 means no pipelining. Pipelining implies Batch.
	Pipeline int
	// Fast caps trial counts for smoke tests; artifacts stay
	// deterministic but represent a reduced sample.
	Fast bool
}

// Info describes a registered experiment: its registry name, the paper
// artifact it reproduces and its default trial count.
type Info struct {
	// Name is the registry key, e.g. "fig7".
	Name string
	// Paper names the artifact, e.g. "Fig. 7 — BER vs received optical power".
	Paper string
	// Trials is the default trial/sample count; 1 marks a single-shot
	// experiment that ignores Params.Trials.
	Trials int
}

// Metric is one headline quantity of an experiment, in the order the
// experiment reports them (order is part of the JSON artifact).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Result is what one experiment run produces. Everything in it must be
// a pure function of (Info, Params minus Workers): the determinism test
// compares Results across worker counts byte for byte.
type Result struct {
	Info   Info
	Seed   uint64
	Trials int
	// Text is the human-readable artifact (the report section).
	Text string
	// Metrics are the headline quantities, e.g. the worst median BER.
	Metrics []Metric
	// CSV is the tabular artifact with the header as its first row;
	// nil when the experiment has no natural table.
	CSV [][]string
}

// Metric returns a headline quantity by name.
func (r Result) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Experiment is one reproducible evaluation artifact.
type Experiment interface {
	Info() Info
	Run(p Params) (Result, error)
}

// funcExperiment adapts a closure to the Experiment interface.
type funcExperiment struct {
	info Info
	run  func(p Params) (Result, error)
}

func (e funcExperiment) Info() Info { return e.info }

func (e funcExperiment) Run(p Params) (Result, error) {
	res, err := e.run(p)
	if err != nil {
		return Result{}, fmt.Errorf("exp: %s: %w", e.info.Name, err)
	}
	res.Info = e.info
	res.Seed = p.Seed
	if res.Trials == 0 {
		res.Trials = e.info.Trials
	}
	return res, nil
}

// New wraps a run function as an Experiment. The wrapper stamps Info,
// Seed and Trials onto the Result so run functions only fill artifacts.
func New(info Info, run func(p Params) (Result, error)) Experiment {
	return funcExperiment{info: info, run: run}
}

// Registry holds experiments in registration order — the order
// dredbox-report prints them and the artifact writers emit them.
type Registry struct {
	order  []Experiment
	byName map[string]Experiment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Experiment)}
}

// Add registers an experiment; duplicate or empty names are an error.
func (r *Registry) Add(e Experiment) error {
	name := e.Info().Name
	if name == "" {
		return fmt.Errorf("exp: experiment with empty name")
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("exp: duplicate experiment %q", name)
	}
	r.byName[name] = e
	r.order = append(r.order, e)
	return nil
}

// Get looks an experiment up by name.
func (r *Registry) Get(name string) (Experiment, bool) {
	e, ok := r.byName[name]
	return e, ok
}

// All returns the experiments in registration order.
func (r *Registry) All() []Experiment {
	return append([]Experiment(nil), r.order...)
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	names := make([]string, len(r.order))
	for i, e := range r.order {
		names[i] = e.Info().Name
	}
	return names
}

// Default is the process-wide registry the paper experiments register
// into (register.go) and the cmd/ binaries run from.
var Default = NewRegistry()

// Register adds an experiment to the default registry, panicking on
// conflict — registration happens in init, where a conflict is a bug.
func Register(e Experiment) {
	if err := Default.Add(e); err != nil {
		panic(err)
	}
}

// Get looks up an experiment in the default registry.
func Get(name string) (Experiment, bool) { return Default.Get(name) }

// All returns the default registry's experiments in registration order.
func All() []Experiment { return Default.All() }

// Names returns the default registry's names, sorted copies are the
// caller's business; this is registration order.
func Names() []string { return Default.Names() }

// SortedNames returns the default registry's names sorted
// alphabetically, for help text.
func SortedNames() []string {
	names := Default.Names()
	sort.Strings(names)
	return names
}
