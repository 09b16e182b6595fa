package sdm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/brick"
	"repro/internal/sim"
)

// groupCommitTier is one tier's group-commit surface, seen from a test.
type groupCommitTier struct {
	admit func([]AdmitRequest, []AdmitResult) error
	evict func([]EvictRequest, []EvictResult) error
	stats func() (uint64, uint64, uint64)
	state func() string
	// live is an admitted VM whose address a case may reuse.
	live AdmitResult
}

// groupCommitTiers builds a small pod and a small row, each holding one
// admitted VM with remote memory.
func groupCommitTiers(t *testing.T) map[string]*groupCommitTier {
	t.Helper()
	pod := buildBatchPod(t, 2, 1, 1, 8*brick.GiB, DefaultConfig)
	row := buildRowSched(t, 2, 2, 8*brick.GiB, DefaultConfig)
	tiers := map[string]*groupCommitTier{
		"pod": {
			admit: func(r []AdmitRequest, o []AdmitResult) error { return pod.AdmitBatchInto(r, o, 0) },
			evict: func(r []EvictRequest, o []EvictResult) error { return pod.EvictBatchInto(r, o, 0) },
			stats: pod.Stats,
			state: func() string { return podSnapshotJSON(t, pod) },
		},
		"row": {
			admit: func(r []AdmitRequest, o []AdmitResult) error { return row.AdmitBatchInto(r, o, 0) },
			evict: func(r []EvictRequest, o []EvictResult) error { return row.EvictBatchInto(r, o, 0) },
			stats: row.Stats,
			state: func() string { return rowFingerprint(t, row, true) },
		},
	}
	for name, g := range tiers {
		out := make([]AdmitResult, 1)
		if err := g.admit([]AdmitRequest{{Owner: "live", VCPUs: 1, Remote: brick.GiB}}, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g.live = out[0]
	}
	return tiers
}

// TestGroupCommitValidation pins what the pod and row group commits
// reject before they touch any state: the exact error text, what the
// rejection adds to the tier's Stats(), and that no rack changed — not
// even for the healthy request ahead of the malformed one.
func TestGroupCommitValidation(t *testing.T) {
	ok := AdmitRequest{Owner: "ok", VCPUs: 1, Remote: brick.GiB}
	cases := []struct {
		name string
		// admit or evict builds the batch from the tier's live VM; the
		// result slice gets extra slots.
		admit func(live AdmitResult) []AdmitRequest
		evict func(live AdmitResult) []EvictRequest
		extra int
		// want maps a tier to its error; a tier missing from it does not
		// run the case.
		want map[string]string
		// counted is the requests and failures the rejection adds.
		counted uint64
	}{
		{
			name:  "admit result length",
			admit: func(AdmitResult) []AdmitRequest { return []AdmitRequest{ok} },
			extra: 1,
			want: map[string]string{
				"pod": "sdm: result slice length 2 for 1 requests",
				"row": "sdm: result slice length 2 for 1 requests",
			},
		},
		{
			name:  "negative vcpus",
			admit: func(AdmitResult) []AdmitRequest { return []AdmitRequest{ok, {Owner: "neg", VCPUs: -2}} },
			want: map[string]string{
				"pod": `sdm: batch request 1 ("neg"): reserve of -2 vcpus`,
				"row": `sdm: batch request 1 ("neg"): reserve of -2 vcpus`,
			},
		},
		{
			name:  "empty request",
			admit: func(AdmitResult) []AdmitRequest { return []AdmitRequest{ok, {Owner: "empty"}} },
			want: map[string]string{
				"pod": `sdm: batch request 1 ("empty"): no vCPUs and no remote memory`,
				"row": `sdm: batch request 1 ("empty"): no vCPUs and no remote memory`,
			},
		},
		{
			name: "rack out of range",
			admit: func(live AdmitResult) []AdmitRequest {
				return []AdmitRequest{ok, {Owner: "far", Remote: brick.GiB, CPU: live.CPU, Pod: live.Pod, Rack: 7}}
			},
			want: map[string]string{
				"pod": `sdm: batch request 1 ("far"): no rack 7 in the pod`,
				"row": `sdm: batch request 1 ("far"): no rack 7 in pod 0`,
			},
			counted: 1,
		},
		{
			name: "negative rack",
			admit: func(live AdmitResult) []AdmitRequest {
				return []AdmitRequest{ok, {Owner: "neg-rack", Remote: brick.GiB, CPU: live.CPU, Pod: live.Pod, Rack: -1}}
			},
			want: map[string]string{
				"pod": `sdm: batch request 1 ("neg-rack"): no rack -1 in the pod`,
				"row": `sdm: batch request 1 ("neg-rack"): no rack -1 in pod 0`,
			},
			counted: 1,
		},
		{
			// A pod ignores the pod coordinate, so only the row runs this.
			name: "pod out of range",
			admit: func(live AdmitResult) []AdmitRequest {
				return []AdmitRequest{ok, {Owner: "far", Remote: brick.GiB, CPU: live.CPU, Pod: 5, Rack: live.Rack}}
			},
			want:    map[string]string{"row": `sdm: batch request 1 ("far"): no pod 5 in the row`},
			counted: 1,
		},
		{
			name: "evict result length",
			evict: func(live AdmitResult) []EvictRequest {
				return []EvictRequest{{Owner: "live", CPU: live.CPU, Pod: live.Pod, Rack: live.Rack, VCPUs: 1}}
			},
			extra: 2,
			want: map[string]string{
				"pod": "sdm: result slice length 3 for 1 requests",
				"row": "sdm: result slice length 3 for 1 requests",
			},
		},
		{
			name: "evict rack out of range",
			evict: func(live AdmitResult) []EvictRequest {
				return []EvictRequest{
					{Owner: "live", CPU: live.CPU, Pod: live.Pod, Rack: live.Rack, VCPUs: 1},
					{Owner: "gone", CPU: live.CPU, Pod: 1, Rack: 9, VCPUs: 1},
				}
			},
			want: map[string]string{
				"pod": `sdm: batch eviction request 1 ("gone"): no rack 9 in the pod`,
				"row": `sdm: batch eviction request 1 ("gone"): no rack 9 in pod 1`,
			},
		},
		{
			name: "evict pod out of range",
			evict: func(live AdmitResult) []EvictRequest {
				return []EvictRequest{
					{Owner: "live", CPU: live.CPU, Pod: live.Pod, Rack: live.Rack, VCPUs: 1},
					{Owner: "gone", CPU: live.CPU, Pod: -3, Rack: 0, VCPUs: 1},
				}
			},
			want: map[string]string{"row": `sdm: batch eviction request 1 ("gone"): no pod -3 in the row`},
		},
	}
	tiers := groupCommitTiers(t)
	for _, tc := range cases {
		for _, name := range []string{"pod", "row"} {
			want, runs := tc.want[name]
			if !runs {
				continue
			}
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				g := tiers[name]
				before := g.state()
				req0, fail0, spill0 := g.stats()
				var err error
				if tc.admit != nil {
					reqs := tc.admit(g.live)
					err = g.admit(reqs, make([]AdmitResult, len(reqs)+tc.extra))
				} else {
					reqs := tc.evict(g.live)
					// The live VM's attachment stays out of the batch: a
					// rejected batch must not touch it either way.
					err = g.evict(reqs, make([]EvictResult, len(reqs)+tc.extra))
				}
				if err == nil || err.Error() != want {
					t.Fatalf("error %v, want %q", err, want)
				}
				req1, fail1, spill1 := g.stats()
				if req1-req0 != tc.counted || fail1-fail0 != tc.counted || spill1 != spill0 {
					t.Fatalf("Stats() moved by requests %d, failures %d, spills %d; want %d, %d, 0",
						req1-req0, fail1-fail0, spill1-spill0, tc.counted, tc.counted)
				}
				if after := g.state(); after != before {
					t.Fatalf("rejected batch changed state:\nbefore:\n%s\nafter:\n%s", before, after)
				}
			})
		}
	}
}

// rowBatchSnap is what a rolled-back row admission must restore beyond
// the racks' snapshots: the walk order and spill sequence counter of
// the row and of every pod.
type rowBatchSnap struct {
	state string
	cross [][]*Attachment
	seqs  []uint64
}

func snapRowBatch(t *testing.T, s *RowScheduler) rowBatchSnap {
	t.Helper()
	snap := rowBatchSnap{state: rowFingerprint(t, s, false)}
	tiers := []*tier{&s.tier}
	for p := 0; p < s.Pods(); p++ {
		tiers = append(tiers, &s.Pod(p).tier)
	}
	for _, st := range tiers {
		var order []*Attachment
		for att := st.cross.head; att != nil; att = att.crossNext {
			order = append(order, att)
		}
		snap.cross = append(snap.cross, order)
		snap.seqs = append(snap.seqs, st.attachSeq)
	}
	return snap
}

// TestRowAdmitBatchRollbackRestoresState is the row twin of
// TestAdmitBatchRollbackRestoresState: randomized bursts with one
// poisoned request, on a row whose small memory bricks make the healthy
// requests spill cross-rack inside their pod shards and cross-pod in
// the row's merge before the poison aborts the batch. The abort must
// leave every rack's snapshot, the walk orders and spill sequence
// counters of the row and of every pod, the indexes and the invariants
// as they were.
func TestRowAdmitBatchRollbackRestoresState(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicySpread} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := DefaultConfig
			cfg.Policy = policy
			cfg.PacketFallback = true
			s := buildRowSched(t, 2, 2, 4*brick.GiB, cfg)

			// Pre-populate live spills at both tiers: the scale-ups
			// overflow the first VM's rack, then its pod.
			pre, err := s.AdmitBatch([]AdmitRequest{{Owner: "pre-0", VCPUs: 1, Remote: 3 * brick.GiB}})
			if err != nil {
				t.Fatal(err)
			}
			home := pre[0]
			if _, err := s.AdmitBatch([]AdmitRequest{
				{Owner: "pre-1", Remote: 2 * brick.GiB, CPU: home.CPU, Pod: home.Pod, Rack: home.Rack},
				{Owner: "pre-2", Remote: 3 * brick.GiB, CPU: home.CPU, Pod: home.Pod, Rack: home.Rack},
			}); err != nil {
				t.Fatal(err)
			}
			if s.cross.n == 0 || s.Pod(home.Pod).cross.n == 0 {
				t.Fatal("pre-population left no cross-rack and cross-pod spills live")
			}

			rng := sim.NewRand(61)
			var podSpills, rowSpills uint64
			for trial := 0; trial < 40; trial++ {
				before := snapRowBatch(t, s)
				_, _, rowSpill0 := s.Stats()
				var podSpill0 uint64
				for p := 0; p < s.Pods(); p++ {
					_, _, n := s.Pod(p).Stats()
					podSpill0 += n
				}

				n := 2 + int(rng.Uint64()%6)
				reqs := make([]AdmitRequest, n)
				for i := range reqs {
					owner := fmt.Sprintf("t%d-%d", trial, i)
					remote := brick.Bytes(rng.Uint64()%4) * brick.GiB
					if rng.Uint64()%4 == 0 && remote > 0 {
						reqs[i] = AdmitRequest{Owner: owner, Remote: remote, CPU: home.CPU, Pod: home.Pod, Rack: home.Rack}
					} else {
						reqs[i] = AdmitRequest{Owner: owner, VCPUs: 1, Remote: remote}
					}
				}
				// The poison sits behind at least one healthy request, with a
				// segment no brick in the row can hold.
				poison := 1 + int(rng.Uint64()%uint64(n-1))
				reqs[poison] = AdmitRequest{Owner: reqs[poison].Owner, VCPUs: 1, Remote: 64 * brick.GiB}
				if _, err := s.AdmitBatch(reqs); err == nil {
					t.Fatalf("trial %d: poisoned batch committed", trial)
				}

				_, _, rowSpill1 := s.Stats()
				var podSpill1 uint64
				for p := 0; p < s.Pods(); p++ {
					_, _, n := s.Pod(p).Stats()
					podSpill1 += n
				}
				podSpills += podSpill1 - podSpill0
				rowSpills += rowSpill1 - rowSpill0

				after := snapRowBatch(t, s)
				if after.state != before.state {
					t.Fatalf("trial %d: row not byte-identical after rollback:\nbefore:\n%s\nafter:\n%s", trial, before.state, after.state)
				}
				if !reflect.DeepEqual(after.seqs, before.seqs) {
					t.Fatalf("trial %d: spill sequence counters (row, pods...) %v, want %v", trial, after.seqs, before.seqs)
				}
				if !reflect.DeepEqual(after.cross, before.cross) {
					t.Fatalf("trial %d: walk orders changed across the rolled-back batch", trial)
				}
				for p := 0; p < s.Pods(); p++ {
					for r := 0; r < s.Pod(p).Racks(); r++ {
						verifyIndexes(t, s.Pod(p).Rack(r), trial)
					}
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
			// The bursts must have exercised what the rollback undoes:
			// spills committed at both tiers before the abort.
			if podSpills == 0 || rowSpills == 0 {
				t.Fatalf("rolled-back bursts committed %d cross-rack and %d cross-pod spills; want both > 0", podSpills, rowSpills)
			}
		})
	}
}
