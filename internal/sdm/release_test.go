package sdm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/topo"
)

// TestReleaseComputeAllOrNothing: a compute release that names more
// local memory than the VM holds must fail without returning the VM's
// cores either — at the rack, at the pod and row entry points, and
// inside a pod or row EvictBatch, whose rollback re-reserves only the
// releases that completed.
func TestReleaseComputeAllOrNothing(t *testing.T) {
	const vcpus, local, badLocal = 2, brick.GiB, 4 * brick.GiB
	wantErr := fmt.Sprintf("release of %v with %v allocated", badLocal, local)
	vm := AdmitRequest{Owner: "vm", VCPUs: vcpus, LocalMem: local}

	type rig struct {
		release func(res AdmitResult) error
		state   func() string
		check   func() error
	}
	pod := func(t *testing.T) (*PodScheduler, rig, AdmitResult) {
		s := buildBatchPod(t, 2, 1, 1, 8*brick.GiB, DefaultConfig)
		out, err := s.AdmitBatch([]AdmitRequest{vm})
		if err != nil {
			t.Fatal(err)
		}
		return s, rig{state: func() string { return podSnapshotJSON(t, s) }, check: s.CheckInvariants}, out[0]
	}
	row := func(t *testing.T) (*RowScheduler, rig, AdmitResult) {
		s := buildRowSched(t, 2, 2, 8*brick.GiB, DefaultConfig)
		out, err := s.AdmitBatch([]AdmitRequest{vm})
		if err != nil {
			t.Fatal(err)
		}
		return s, rig{state: func() string { return rowFingerprint(t, s, true) }, check: s.CheckInvariants}, out[0]
	}

	cases := []struct {
		name   string
		build  func(t *testing.T) (rig, AdmitResult)
		rolled bool
	}{
		{name: "rack", build: func(t *testing.T) (rig, AdmitResult) {
			s, r, res := pod(t)
			r.release = func(res AdmitResult) error { return s.Rack(res.Rack).ReleaseCompute(res.CPU, vcpus, badLocal) }
			return r, res
		}},
		{name: "pod", build: func(t *testing.T) (rig, AdmitResult) {
			s, r, res := pod(t)
			r.release = func(res AdmitResult) error {
				return s.ReleaseCompute(topo.PodBrickID{Rack: res.Rack, Brick: res.CPU}, vcpus, badLocal)
			}
			return r, res
		}},
		{name: "pod-batch", rolled: true, build: func(t *testing.T) (rig, AdmitResult) {
			s, r, res := pod(t)
			r.release = func(res AdmitResult) error {
				_, err := s.EvictBatch([]EvictRequest{{Owner: vm.Owner, CPU: res.CPU, Rack: res.Rack, VCPUs: vcpus, LocalMem: badLocal}})
				return err
			}
			return r, res
		}},
		{name: "row", build: func(t *testing.T) (rig, AdmitResult) {
			s, r, res := row(t)
			r.release = func(res AdmitResult) error {
				return s.ReleaseCompute(topo.RowBrickID{Pod: res.Pod, Rack: res.Rack, Brick: res.CPU}, vcpus, badLocal)
			}
			return r, res
		}},
		{name: "row-batch", rolled: true, build: func(t *testing.T) (rig, AdmitResult) {
			s, r, res := row(t)
			r.release = func(res AdmitResult) error {
				_, err := s.EvictBatch([]EvictRequest{{Owner: vm.Owner, CPU: res.CPU, Pod: res.Pod, Rack: res.Rack, VCPUs: vcpus, LocalMem: badLocal}})
				return err
			}
			return r, res
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, res := tc.build(t)
			before := r.state()
			err := r.release(res)
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("release error %v, want one naming %q", err, wantErr)
			}
			if tc.rolled && !strings.Contains(err.Error(), "rolled back at request 0") {
				t.Fatalf("batch error %v does not report the rollback", err)
			}
			if after := r.state(); after != before {
				t.Fatalf("failed release changed state:\nbefore:\n%s\nafter:\n%s", before, after)
			}
			if err := r.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
