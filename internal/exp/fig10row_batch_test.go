package exp

import (
	"reflect"
	"testing"
)

// TestFig10RowBatchSizeOneMatchesSequential is the in-process version
// of the CI check: the row-tier batched admission path at batch size 1
// must produce byte-identical experiment output to the per-request
// path.
func TestFig10RowBatchSizeOneMatchesSequential(t *testing.T) {
	seq, err := RunFig10Row(Params{Seed: 1, Pods: 2, Racks: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := RunFig10Row(Params{Seed: 1, Pods: 2, Racks: 2, Workers: 1, Batch: true, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, bat) {
		t.Fatalf("batch-size-1 result diverges from sequential:\nbatch:      %+v\nsequential: %+v", bat, seq)
	}
	if seq.Format() != bat.Format() {
		t.Fatal("batch-size-1 text artifact diverges from sequential")
	}
}

// TestFig10RowBatchDeterministicAcrossWorkers: full-burst batching must
// be byte-identical at any trial-level worker count — the two sides
// run on the pool, and scheduling order cannot leak into results.
func TestFig10RowBatchDeterministicAcrossWorkers(t *testing.T) {
	var prev Fig10RowResult
	for i, workers := range []int{1, 4, 8} {
		res, err := RunFig10Row(Params{Seed: 1, Pods: 2, Racks: 2, Workers: workers, Batch: true})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !reflect.DeepEqual(prev, res) {
			t.Fatalf("batch fig10row diverges between worker counts:\n%+v\n%+v", prev, res)
		}
		prev = res
	}
}
