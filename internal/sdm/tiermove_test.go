package sdm

import (
	"fmt"
	"testing"

	"repro/internal/brick"
	"repro/internal/topo"
)

// TestPodMoversRefuseForeignRacks: Repoint, Rehome and Promote refuse
// an attachment that names a rack outside the pod — with the text
// DetachRemoteMemory uses — before they index the pod's racks or count
// the request.
func TestPodMoversRefuseForeignRacks(t *testing.T) {
	s := buildBatchPod(t, 3, 1, 1, 4*brick.GiB, DefaultConfig)
	cpu := s.Rack(0).computeOrder[0]
	for _, rack := range []int{3, 4, -1} {
		ghost := &Attachment{Owner: "ghost", CPU: cpu, CPURack: rack, MemRack: 0}
		want := fmt.Sprintf("sdm: attachment names rack %d outside the pod", rack)
		for _, mv := range []struct {
			name string
			run  func() error
		}{
			{"repoint-same-rack", func() error {
				_, _, err := s.Repoint(ghost, topo.PodBrickID{Rack: rack, Brick: cpu})
				return err
			}},
			{"repoint", func() error { _, _, err := s.Repoint(ghost, topo.PodBrickID{Rack: 1, Brick: cpu}); return err }},
			{"rehome", func() error { _, err := s.Rehome(ghost, 1); return err }},
			{"promote", func() error { _, err := s.Promote(ghost); return err }},
		} {
			if err := mv.run(); err == nil || err.Error() != want {
				t.Errorf("rack %d: %s: err %v, want %q", rack, mv.name, err, want)
			}
			if req, fail, _ := s.Stats(); req != 0 || fail != 0 {
				t.Errorf("rack %d: %s: counted %d requests, %d failures", rack, mv.name, req, fail)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("rack %d: %s: %v", rack, mv.name, err)
			}
		}
	}
}

// TestPodMoversRefuseCrossPod: a pod's Rehome and Promote refuse a
// cross-pod attachment up front, as Repoint and the rack's
// ReattachRemoteMemory do, leaving the row untouched.
func TestPodMoversRefuseCrossPod(t *testing.T) {
	s := buildRowSched(t, 2, 3, 4*brick.GiB, DefaultConfig)
	home := topo.RowBrickID{Brick: s.Pod(0).Rack(0).computeOrder[0]}
	var att *Attachment
	for i := 0; i < 4; i++ {
		var err error
		if att, _, err = s.AttachRemoteMemory(fmt.Sprintf("vm%d", i), home, 3*brick.GiB); err != nil {
			t.Fatal(err)
		}
	}
	if !att.CrossPod() {
		t.Fatalf("attachment of %q stayed in pod %d", att.Owner, att.MemPod)
	}
	before := rowFingerprint(t, s, true)
	pod := s.Pod(0)
	want := fmt.Sprintf("sdm: cannot repoint cross-pod attachment of %q", att.Owner)
	for _, mv := range []struct {
		name string
		run  func() error
	}{
		{"rehome-home", func() error { _, err := pod.Rehome(att, 0); return err }},
		{"rehome-sideways", func() error { _, err := pod.Rehome(att, 1); return err }},
		{"promote", func() error { _, err := pod.Promote(att); return err }},
		{"repoint", func() error {
			_, _, err := pod.Repoint(att, topo.PodBrickID{Rack: 1, Brick: pod.Rack(1).computeOrder[0]})
			return err
		}},
		{"reattach", func() error {
			_, _, err := pod.Rack(0).ReattachRemoteMemory(att, pod.Rack(0).computeOrder[0])
			return err
		}},
	} {
		if err := mv.run(); err == nil || err.Error() != want {
			t.Errorf("%s: err %v, want %q", mv.name, err, want)
		}
		if after := rowFingerprint(t, s, true); after != before {
			t.Errorf("%s: the refusal changed the row:\n%s\nwant\n%s", mv.name, after, before)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", mv.name, err)
		}
	}
}
