package sdm

import (
	"testing"

	"repro/internal/brick"
	"repro/internal/topo"
)

// TestEvictRollbackRekeysPacketRiders checks, at the rack, pod and row
// tiers, that a rolled-back eviction which tore down a packet rider and
// then its host circuit rebuilds the host's circuit and re-keys the
// rider onto it: the rider's Circuit is the host's new circuit, the
// rider count is restored, every rack snapshot equals the pre-batch
// one and the invariants hold.
func TestEvictRollbackRekeysPacketRiders(t *testing.T) {
	for _, tc := range []struct {
		name string
		// sizes are the attaches from the home compute brick; the last
		// two are the host and its packet rider.
		sizes []brick.Bytes
		// ghost, when set, are attaches made and detached again up
		// front; the last is a spill at the tier, whose stale attachment
		// then fails the eviction in the tier's cross phase, after host
		// and rider.
		ghost  []brick.Bytes
		atTier func(a *Attachment) bool
	}{
		{
			// Four rack-local circuits take every port of the compute
			// brick, so the fifth attach rides the first circuit.
			name:   "rack",
			sizes:  []brick.Bytes{brick.GiB, brick.GiB, brick.GiB, brick.GiB, brick.GiB},
			atTier: func(a *Attachment) bool { return !a.CrossRack() && !a.CrossPod() },
		},
		{
			// The cross-rack circuit holds the rack's only pod uplink, so
			// the next spill rides it.
			name:   "pod",
			sizes:  []brick.Bytes{6 * brick.GiB, 4 * brick.GiB, 3 * brick.GiB},
			ghost:  []brick.Bytes{6 * brick.GiB, 4 * brick.GiB},
			atTier: (*Attachment).CrossRack,
		},
		{
			// The cross-pod circuit holds the pod's only row uplink.
			name:   "row",
			sizes:  []brick.Bytes{6 * brick.GiB, 6 * brick.GiB, 3 * brick.GiB, 3 * brick.GiB},
			ghost:  []brick.Bytes{6 * brick.GiB, 6 * brick.GiB, 3 * brick.GiB},
			atTier: (*Attachment).CrossPod,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig
			cfg.PacketFallback = true
			s := spillTraceRow(t, 2, 2, 1, 1, cfg)
			home := topo.RowBrickID{Pod: 0, Rack: 0, Brick: s.pods[0].racks[0].computeOrder[0]}
			attach := func(owner string, size brick.Bytes) *Attachment {
				t.Helper()
				a, _, err := s.AttachRemoteMemory(owner, home, size)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}

			var ghost *Attachment
			if len(tc.ghost) > 0 {
				var pre []*Attachment
				for _, size := range tc.ghost {
					pre = append(pre, attach("ghost", size))
				}
				ghost = pre[len(pre)-1]
				if !tc.atTier(ghost) {
					t.Fatalf("ghost %s did not spill", spillAttLine(ghost))
				}
				for i := len(pre) - 1; i >= 0; i-- {
					if _, err := s.DetachRemoteMemory(pre[i]); err != nil {
						t.Fatal(err)
					}
				}
			}

			var atts []*Attachment
			for _, size := range tc.sizes {
				atts = append(atts, attach("vm", size))
			}
			host, rider := atts[0], atts[len(atts)-1]
			if tc.name != "rack" {
				host = atts[len(atts)-2]
			}
			if rider.Mode != ModePacket || host.Mode != ModeCircuit || rider.Circuit != host.Circuit {
				t.Fatalf("setup: rider %s does not ride host %s", spillAttLine(rider), spillAttLine(host))
			}
			if !tc.atTier(host) || !tc.atTier(rider) {
				t.Fatalf("setup: host %s or rider %s not at the %s tier", spillAttLine(host), spillAttLine(rider), tc.name)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			before := rowFingerprint(t, s, false)

			if ghost == nil {
				ghost = &Attachment{Owner: "ghost", CPU: home.Brick}
			}
			req := EvictRequest{Owner: "vm", CPU: home.Brick, Pod: home.Pod, Rack: home.Rack,
				Atts: []*Attachment{rider, host, ghost}}
			if _, err := s.EvictBatch([]EvictRequest{req}); err == nil {
				t.Fatal("poisoned eviction committed")
			}

			if rider.Circuit != host.Circuit {
				t.Fatalf("rider %s not re-keyed onto host %s", spillAttLine(rider), spillAttLine(host))
			}
			if host.Circuit.Riders != 1 {
				t.Fatalf("host circuit carries %d riders after rollback, want 1", host.Circuit.Riders)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if after := rowFingerprint(t, s, false); after != before {
				t.Fatalf("rollback changed state:\nbefore:\n%s\nafter:\n%s", before, after)
			}
		})
	}
}
