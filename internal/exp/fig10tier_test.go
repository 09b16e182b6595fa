package exp

import (
	"strings"
	"testing"
)

// TestFig10TierSizes pins the Fig. 10 tier sweeps' size refusals and
// their defaults: a zero size runs a 4-rack pod against one global SDM,
// and a 2-pod x 4-rack row against one flat 8-rack pod, as the report
// header and the leading CSV columns say.
func TestFig10TierSizes(t *testing.T) {
	refusals := []struct {
		name string
		run  func() error
		want string
	}{
		{"fig10pod/racks=1", func() error { _, err := RunFig10Pod(Params{Seed: 1, Racks: 1}); return err },
			"fig10pod needs at least 2 racks, got 1"},
		{"fig10row/pods=1", func() error { _, err := RunFig10Row(Params{Seed: 1, Pods: 1}); return err },
			"fig10row needs at least 2 pods, got 1"},
		{"fig10row/pods=2/racks=1", func() error { _, err := RunFig10Row(Params{Seed: 1, Pods: 2, Racks: 1}); return err },
			"fig10row needs at least 2 racks per pod, got 1"},
	}
	for _, c := range refusals {
		err := c.run()
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: got error %v, want %q", c.name, err, c.want)
		}
	}

	pod, err := RunFig10Pod(Params{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunFig10Row(Params{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defaults := []struct {
		name    string
		res     Result
		header  string
		columns []string
	}{
		{"fig10pod", pod.artifact(),
			"Pod-scale Fig. 10 — scale-up bursts against 4 rack shards vs one global SDM (",
			[]string{"racks", "4"}},
		{"fig10row", row.artifact(),
			"Row-scale Fig. 10 — scale-up bursts against 2 pods x 4 racks vs one flat 8-rack pod (",
			[]string{"pods", "racks", "2", "4"}},
	}
	for _, d := range defaults {
		if !strings.HasPrefix(d.res.Text, d.header) {
			t.Errorf("%s: header %q, want prefix %q", d.name, strings.SplitN(d.res.Text, "\n", 2)[0], d.header)
		}
		if len(d.res.CSV) < 2 {
			t.Fatalf("%s: CSV has %d rows, want a header and data", d.name, len(d.res.CSV))
		}
		n := len(d.columns) / 2
		for _, row := range d.res.CSV[1:] {
			if got := append(append([]string(nil), d.res.CSV[0][:n]...), row[:n]...); strings.Join(got, ",") != strings.Join(d.columns, ",") {
				t.Errorf("%s: leading CSV columns %v, want %v", d.name, got, d.columns)
			}
		}
	}
}
