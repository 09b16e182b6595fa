package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. Each rung's span names its logical parent: the rung one
// layer up that the same work passed through in the facade.
const (
	spanStep = iota
	spanCoreCreate
	spanCoreDestroy
	spanCoreRebalance
	spanCoreConsolidate
	spanTierAdmit
	spanTierEvict
	spanTierRebalance
	spanTierConsolidate
	spanRackPlace
	spanRackRelease
	spanOpticalConnect
	spanOpticalDisconnect
	spanOpticalResync
	spanBrickCarve
	spanBrickRelease
	spanBrickResync
)

var spanNames = []string{
	spanStep:              "step",
	spanCoreCreate:        "core.create",
	spanCoreDestroy:       "core.destroy",
	spanCoreRebalance:     "core.rebalance",
	spanCoreConsolidate:   "core.consolidate",
	spanTierAdmit:         "sdm.tier.admit",
	spanTierEvict:         "sdm.tier.evict",
	spanTierRebalance:     "sdm.tier.rebalance",
	spanTierConsolidate:   "sdm.tier.consolidate",
	spanRackPlace:         "sdm.rack.place",
	spanRackRelease:       "sdm.rack.release",
	spanOpticalConnect:    "optical.connect",
	spanOpticalDisconnect: "optical.disconnect",
	spanOpticalResync:     "optical.resync",
	spanBrickCarve:        "brick.carve",
	spanBrickRelease:      "brick.release",
	spanBrickResync:       "brick.resync",
}

// span is one timed call into a layer. The rungs of a step run one
// after another on separate twins, so a child span does not sit inside
// its parent's interval; parent records which layer above issued the
// same work, and a layer's self time is its duration minus its
// children's durations.
type span struct {
	name, parent int32
	step         int32
	start, end   int64 // nanoseconds since the tracer's origin
}

// spanSteps is how many leading steps of a traced run keep their spans;
// the per-layer metrics cover every step. A long pod-churn run would
// otherwise write tens of megabytes of spans.
const spanSteps = 2000

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open starts a span whose end is not known yet (the step span, which
// its rungs name as parent) and returns its index, or -1 past the
// recorded steps.
func (t *tracer) open(name, parent, step int, start time.Time) int {
	if step >= spanSteps {
		return -1
	}
	t.spans = append(t.spans, span{name: int32(name), parent: int32(parent), step: int32(step), start: int64(start.Sub(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, end time.Time) {
	if i >= 0 {
		t.spans[i].end = int64(end.Sub(t.origin))
	}
}

// add records a finished span and returns its index.
func (t *tracer) add(name, parent, step int, start time.Time, d time.Duration) int {
	i := t.open(name, parent, step, start)
	t.close(i, start.Add(d))
	return i
}

// traceFile is the span file's layout: spans as
// [name index, start ns, end ns, parent index (-1 for a step), step],
// for the first SpanSteps steps.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Host      hostFacts          `json:"host"`
	Note      string             `json:"note"`
	SpanSteps int                `json:"span_steps"`
	Names     []string           `json:"names"`
	Spans     [][5]int64         `json:"spans"`
	Metrics   map[string]float64 `json:"metrics"`
	Absent    map[string]string  `json:"absent"`
}

const traceNote = "Lockstep ladder: each step calls the core facade, then replays the same work on a tier twin, standalone rack controllers, fabrics and memory bricks, one after another. " +
	"A span's parent is the layer above that issued the same work, not an enclosing interval; self time is a span's duration minus its children's durations."

// write stores the spans and the per-layer metrics under dir.
func (t *tracer) write(dir, name string, seed uint64, host hostFacts, ms []metric) (string, error) {
	f := traceFile{
		Workload: name, Seed: seed, Host: host, Note: traceNote, SpanSteps: spanSteps, Names: spanNames,
		Spans:   make([][5]int64, len(t.spans)),
		Metrics: make(map[string]float64),
		Absent:  make(map[string]string),
	}
	for i, s := range t.spans {
		f.Spans[i] = [5]int64{int64(s.name), s.start, s.end, int64(s.parent), int64(s.step)}
	}
	for _, m := range ms {
		if m.Absent != "" {
			f.Absent[m.Name] = m.Absent
			continue
		}
		f.Metrics[m.Name] = m.Value
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing the span file: %w", err)
	}
	return path, nil
}
