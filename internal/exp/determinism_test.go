package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeterminismAcrossWorkerCounts is the package's core contract:
// for a fixed seed, every registered experiment must emit byte-identical
// text, JSON and CSV artifacts whether its trials run on one worker or
// many. Fast mode keeps the smoke cheap without weakening the property —
// the trial grid is smaller but still spans many pool tasks.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Info().Name, func(t *testing.T) {
			t.Parallel()
			base, err := e.Run(Params{Seed: 7, Fast: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			baseJSON, err := base.JSON()
			if err != nil {
				t.Fatal(err)
			}
			baseCSV, err := base.CSVBytes()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				got, err := e.Run(Params{Seed: 7, Fast: true, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got.Text != base.Text {
					t.Fatalf("workers=%d: text differs from single-worker run\n--- workers=1\n%s\n--- workers=%d\n%s",
						workers, base.Text, workers, got.Text)
				}
				js, err := got.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(js, baseJSON) {
					t.Fatalf("workers=%d: JSON artifact differs", workers)
				}
				cs, err := got.CSVBytes()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cs, baseCSV) {
					t.Fatalf("workers=%d: CSV artifact differs", workers)
				}
			}
		})
	}
}

// determinismRow is one leg of the determinism matrix: a parameter
// tuple run over a set of experiments, which must give the same text,
// JSON and CSV artifacts at Workers 1 and 8 and, when equals is set,
// the same artifacts as the equals tuple (BatchSize 1 against the
// sequential run, Pipeline 2 against the batch run).
type determinismRow struct {
	name   string
	only   []string // registry names; nil runs every experiment, as the full report does
	p      Params
	equals *Params
}

// TestDeterminismMatrix is the cmp/diff -r matrix of dredbox-report
// runs, in process: every row is one report invocation's parameters,
// and every artifact must match byte for byte. It runs under the race
// detector too, which pins the trial pool, the batch pipeline and the
// recycled arena objects against data races as well as divergence.
func TestDeterminismMatrix(t *testing.T) {
	ref := func(p Params) *Params { return &p }
	fig10pod := []string{"fig10pod"}
	fig10row := []string{"fig10row"}
	churn := []string{"churn"}
	rows := []determinismRow{
		{name: "report", p: Params{}},
		{name: "pod/racks=4", only: []string{"pod"}, p: Params{Racks: 4}},
		{name: "rebalance/racks=4", only: []string{"rebalance"}, p: Params{Racks: 4}},
		{name: "fig10pod/racks=2", only: fig10pod, p: Params{Racks: 2}},
		{name: "fig10pod/racks=4", only: fig10pod, p: Params{Racks: 4}},
		{name: "fig10pod/racks=2/batch", only: fig10pod, p: Params{Racks: 2, Batch: true}},
		{name: "fig10pod/racks=4/batch", only: fig10pod, p: Params{Racks: 4, Batch: true}},
		{name: "fig10pod/racks=2/batchsize=1", only: fig10pod, p: Params{Racks: 2, Batch: true, BatchSize: 1}, equals: ref(Params{Racks: 2})},
		{name: "fig10pod/racks=4/batchsize=1", only: fig10pod, p: Params{Racks: 4, Batch: true, BatchSize: 1}, equals: ref(Params{Racks: 4})},
		{name: "fig10pod/racks=4/pipeline=2", only: fig10pod, p: Params{Racks: 4, Pipeline: 2}, equals: ref(Params{Racks: 4, Batch: true})},
		{name: "fig10row/pods=2", only: fig10row, p: Params{Pods: 2, Racks: 2}},
		{name: "fig10row/pods=4", only: fig10row, p: Params{Pods: 4, Racks: 2}},
		{name: "fig10row/pods=2/batch", only: fig10row, p: Params{Pods: 2, Racks: 2, Batch: true}},
		{name: "fig10row/pods=4/batch", only: fig10row, p: Params{Pods: 4, Racks: 2, Batch: true}},
		{name: "fig10row/pods=2/batchsize=1", only: fig10row, p: Params{Pods: 2, Racks: 2, Batch: true, BatchSize: 1}, equals: ref(Params{Pods: 2, Racks: 2})},
		{name: "fig10row/pods=4/batchsize=1", only: fig10row, p: Params{Pods: 4, Racks: 2, Batch: true, BatchSize: 1}, equals: ref(Params{Pods: 4, Racks: 2})},
		{name: "fig10row/pods=2/pipeline=2", only: fig10row, p: Params{Pods: 2, Racks: 2, Pipeline: 2}, equals: ref(Params{Pods: 2, Racks: 2, Batch: true})},
		{name: "churn/racks=4/batch", only: churn, p: Params{Racks: 4, Batch: true}},
		{name: "churn/racks=4/batchsize=1", only: churn, p: Params{Racks: 4, Batch: true, BatchSize: 1}, equals: ref(Params{Racks: 4})},
		{name: "churn/racks=4/pipeline=16", only: churn, p: Params{Racks: 4, Pipeline: 16}},
		{name: "churn/racks=4/fast/batch", only: churn, p: Params{Racks: 4, Fast: true, Batch: true}},
		{name: "churn/racks=4/fast/batchsize=1", only: churn, p: Params{Racks: 4, Fast: true, Batch: true, BatchSize: 1}, equals: ref(Params{Racks: 4, Fast: true})},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			base := runArtifacts(t, row.only, row.p, 1)
			if got := runArtifacts(t, row.only, row.p, 8); got != base {
				t.Fatalf("workers=8 diverges from workers=1:\n%s", firstDiff(base, got))
			}
			if row.equals != nil {
				if want := runArtifacts(t, row.only, *row.equals, 1); base != want {
					t.Fatalf("diverges from %+v:\n%s", *row.equals, firstDiff(want, base))
				}
			}
		})
	}
}

// runArtifacts runs the named experiments at seed 1 with the given
// worker count, the way dredbox-report does, and returns every
// result's text, JSON and CSV artifacts concatenated in run order.
func runArtifacts(t *testing.T, only []string, p Params, workers int) string {
	t.Helper()
	p.Seed, p.Workers = 1, workers
	outs, err := (&Runner{}).Run(p, only...)
	if err != nil {
		t.Fatalf("%+v: %v", p, err)
	}
	var b bytes.Buffer
	for _, o := range outs {
		js, err := o.Result.JSON()
		if err != nil {
			t.Fatal(err)
		}
		cs, err := o.Result.CSVBytes()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s.txt\n%s== %s.json\n%s== %s.csv\n%s", o.Result.Info.Name, o.Result.Text, o.Result.Info.Name, js, o.Result.Info.Name, cs)
	}
	return b.String()
}

// firstDiff reports the first line where two artifact dumps differ.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(wl), len(gl))
}

// TestDeterminismAcrossRuns re-runs one multi-trial experiment with the
// same parameters and demands identical output — no hidden global state.
func TestDeterminismAcrossRuns(t *testing.T) {
	a, err := RunFig7(Params{Seed: 7, Trials: 50, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig7(Params{Seed: 7, Trials: 50, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Channels {
		if a.Channels[i] != b.Channels[i] {
			t.Fatal("same-seed Fig7 runs differ")
		}
	}
}

// TestSeedChangesOutput guards against the opposite failure: a seed that
// is silently ignored would also pass the determinism tests.
func TestSeedChangesOutput(t *testing.T) {
	a, err := RunFig7(Params{Seed: 1, Trials: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig7(Params{Seed: 2, Trials: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Channels {
		if a.Channels[i].LogBER != b.Channels[i].LogBER {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical BER distributions")
	}
}

// TestWriteArtifacts checks the on-disk artifact layout: .txt and .json
// for every experiment, .csv for the tabular ones.
func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	res, err := RunFig7(Params{Seed: 1, Trials: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	art := res.artifact()
	art.Info = Info{Name: "fig7", Paper: "Fig. 7"}
	art.Seed = 1
	paths, err := WriteArtifacts(dir, []Result{art})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("wrote %d artifacts, want txt+json+csv", len(paths))
	}
	for _, name := range []string{"fig7.txt", "fig7.json", "fig7.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", name)
		}
	}
}
