// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index), plus the
// ablations of DESIGN.md §6. Each benchmark regenerates the artifact
// through the internal/exp experiment engine and reports the figure's
// headline quantity as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation section in one run. Benchmarks pin
// Workers to 1 so iteration timings measure the models, not the pool;
// BenchmarkAllExperiments runs the full registry the way dredbox-report
// does, with trials fanned out across all cores.
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/optical"
	"repro/internal/pktnet"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/tco"
	"repro/internal/tgl"
	"repro/internal/topo"
	"repro/internal/workload"
)

// BenchmarkFig7BER regenerates Figure 7: BER box plots of every optical
// link between dCOMPUBRICK and dMEMBRICK across 6–8 switch hops.
func BenchmarkFig7BER(b *testing.B) {
	var worstMedian float64
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig7(exp.Params{Seed: 1, Trials: 200, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		worstMedian = res.WorstMedian()
		if !res.AllBelow(1e-12) {
			b.Fatal("paper claim violated: BER >= 1e-12")
		}
	}
	b.ReportMetric(worstMedian, "worst-log10BER")
}

// BenchmarkFig8Latency regenerates Figure 8: the round-trip latency
// breakdown of a 64 B remote read over the packet-switched path.
func BenchmarkFig8Latency(b *testing.B) {
	var total, circuit sim.Duration
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig8(pktnet.DefaultProfile, 64)
		if err != nil {
			b.Fatal(err)
		}
		total = res.Packet.Total
		circuit = res.Circuit.Total
	}
	b.ReportMetric(float64(total), "packet-rtt-ns")
	b.ReportMetric(float64(circuit), "circuit-rtt-ns")
}

// BenchmarkFig10ScaleUp regenerates Figure 10: per-VM average scale-up
// delay at 32/16/8-way concurrency vs. the VM scale-out baseline.
func BenchmarkFig10ScaleUp(b *testing.B) {
	var up32, out sim.Duration
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig10(exp.Params{Seed: 1, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		up32 = sim.Duration(res.Rows[0].AvgScaleUpS * float64(sim.Second))
		out = sim.Duration(res.Rows[0].AvgScaleOutS * float64(sim.Second))
	}
	b.ReportMetric(up32.Seconds(), "scaleup32-avg-s")
	b.ReportMetric(out.Seconds(), "scaleout-avg-s")
}

// fig10PodBenchRacks is the pod size of the Fig. 10 pod placement
// benchmark — the acceptance scale of the indexed placement engine.
const fig10PodBenchRacks = 16

// benchRackSpec is the per-rack inventory of the placement benchmark:
// 24 compute and 24 memory bricks per rack (384+384 pod-wide).
var benchRackSpec = topo.BuildSpec{
	Trays: 6, ComputePerTray: 4, MemoryPerTray: 4, AccelPerTray: 0, PortsPerBrick: 16,
}

// benchBrickConfigs sizes bricks so fill rounds leave every memory
// brick fragmented: 24 GiB pools carved into 2 GiB segments.
var benchBrickConfigs = sdm.BrickConfigs{
	Compute: brick.ComputeConfig{Cores: 8, LocalMemory: 32 * brick.GiB},
	Memory:  brick.MemoryConfig{Capacity: 24 * brick.GiB},
}

// benchSDMConfig returns the scheduler config of the placement
// benchmark: the spread policy, the worst case for linear scans and the
// target of the ordered indexes.
func benchSDMConfig() sdm.Config {
	cfg := sdm.DefaultConfig
	cfg.Policy = sdm.PolicySpread
	return cfg
}

// benchRackFabric builds one rack's circuit fabric.
func benchRackFabric(b *testing.B, ports int) *optical.Fabric {
	b.Helper()
	sw, err := optical.NewSwitch(optical.SwitchConfig{
		Ports:           ports,
		InsertionLossDB: optical.Polatis48.InsertionLossDB,
		PortPowerW:      optical.Polatis48.PortPowerW,
		ReconfigTime:    optical.Polatis48.ReconfigTime,
	})
	if err != nil {
		b.Fatal(err)
	}
	return optical.NewFabric(sw)
}

// computeIDs returns a rack's compute brick IDs in controller order.
func computeIDs(rack *topo.Rack) []topo.BrickID {
	var ids []topo.BrickID
	for _, br := range rack.Bricks() {
		if br.Spec.Kind == topo.KindCompute {
			ids = append(ids, br.ID)
		}
	}
	return ids
}

// fillController fragments every memory brick of one rack controller:
// `rounds` passes, each attaching one 2 GiB segment per memory brick
// (the spread policy rotates the fills evenly). After eleven rounds
// each 24 GiB brick holds eleven segments and a 2 GiB tail gap.
func fillController(b *testing.B, c *sdm.Controller, rack *topo.Rack, rounds int, tag string) {
	b.Helper()
	cpus := computeIDs(rack)
	mems := rack.Count(topo.KindMemory)
	for round := 0; round < rounds; round++ {
		for j := 0; j < mems; j++ {
			owner := fmt.Sprintf("fill-%s-%d-%d", tag, round, j)
			if _, _, err := c.AttachRemoteMemory(owner, cpus[j%len(cpus)], 2*brick.GiB); err != nil {
				b.Fatalf("fill %s round %d brick %d: %v", tag, round, j, err)
			}
		}
	}
}

// BenchmarkFig10Pod measures the placement throughput behind the
// pod-scale Fig. 10 sweep at 16 racks on the indexed placement engine.
// (BenchmarkPickIndexedVsLinear in internal/sdm times the same picks
// against the pre-index linear scans.)
//
// The pod variant drives cross-rack spill churn — the O(racks × bricks)
// worst case the ROADMAP item calls out: every home rack is fragmented
// full, so each attach fails rack-locally and the pod tier must pick a
// spill rack. The global variant drives the same churn against one
// monolithic controller owning all 16 racks' bricks. Setup is excluded
// from the timing; the metric is placements (attach decisions) per
// wall-clock second.
func BenchmarkFig10Pod(b *testing.B) {
	const churn = 32 // attach+detach pairs per iteration

	b.Run("pod-16racks", func(b *testing.B) {
		b.Run("indexed", func(b *testing.B) {
			racks := fig10PodBenchRacks
			pod, err := topo.BuildPod(racks, benchRackSpec)
			if err != nil {
				b.Fatal(err)
			}
			fabrics := make([]*optical.Fabric, racks)
			for i := range fabrics {
				fabrics[i] = benchRackFabric(b, 768)
			}
			pf, err := optical.NewPodFabric(optical.DefaultPodProfile, fabrics)
			if err != nil {
				b.Fatal(err)
			}
			sched, err := sdm.NewPodScheduler(pod, pf, benchBrickConfigs, benchSDMConfig())
			if err != nil {
				b.Fatal(err)
			}
			sched.PowerOnAll()
			// Fragment racks 0..N-2 full (2 GiB tail gaps, too small
			// for the 3 GiB churn size); the last rack keeps room.
			for r := 0; r < racks-1; r++ {
				fillController(b, sched.Rack(r), pod.Rack(r), 11, fmt.Sprintf("r%d", r))
			}
			fillController(b, sched.Rack(racks-1), pod.Rack(racks-1), 6, "target")
			homeCPUs := make([][]topo.BrickID, racks)
			for r := range homeCPUs {
				homeCPUs[r] = computeIDs(pod.Rack(r))
			}
			owners := make([]string, churn)
			for v := range owners {
				owners[v] = fmt.Sprintf("churn%d", v)
			}
			b.ResetTimer()
			placements := 0
			for i := 0; i < b.N; i++ {
				for v := 0; v < churn; v++ {
					home := v % (racks - 1)
					cpu := topo.PodBrickID{Rack: home, Brick: homeCPUs[home][v%len(homeCPUs[home])]}
					att, _, err := sched.AttachRemoteMemory(owners[v], cpu, 3*brick.GiB)
					if err != nil {
						b.Fatal(err)
					}
					if !att.CrossRack() {
						b.Fatal("churn attachment did not spill cross-rack")
					}
					placements++
					if _, err := sched.DetachRemoteMemory(att); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(placements)/b.Elapsed().Seconds(), "placements/s")
		})
	})

	b.Run("global-sdm", func(b *testing.B) {
		b.Run("indexed", func(b *testing.B) {
			spec := benchRackSpec
			spec.Trays *= fig10PodBenchRacks
			rack, err := topo.Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			fabric := benchRackFabric(b, 768*fig10PodBenchRacks)
			ctrl, err := sdm.NewController(rack, fabric, benchBrickConfigs, benchSDMConfig())
			if err != nil {
				b.Fatal(err)
			}
			ctrl.PowerOnAll()
			fillController(b, ctrl, rack, 11, "global")
			cpus := computeIDs(rack)
			owners := make([]string, churn)
			for v := range owners {
				owners[v] = fmt.Sprintf("churn%d", v)
			}
			b.ResetTimer()
			placements := 0
			for i := 0; i < b.N; i++ {
				for v := 0; v < churn; v++ {
					att, _, err := ctrl.AttachRemoteMemory(owners[v], cpus[v%len(cpus)], 2*brick.GiB)
					if err != nil {
						b.Fatal(err)
					}
					placements++
					if _, err := ctrl.DetachRemoteMemory(att); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(placements)/b.Elapsed().Seconds(), "placements/s")
		})
	})
}

// fig10RowBenchRacks is the racks-per-pod of the row placement
// benchmark: with 8/16/32 pods the sweep covers 256, 512 and 1024
// racks — the datacenter-row acceptance scale.
const fig10RowBenchRacks = 32

// benchRowRackSpec keeps the row benchmark's racks small (two compute
// and two memory bricks each) so the swept variable is the tier
// structure, not the per-rack inventory: 1024 racks is 4096 bricks.
var benchRowRackSpec = topo.BuildSpec{
	Trays: 1, ComputePerTray: 2, MemoryPerTray: 2, AccelPerTray: 0, PortsPerBrick: 8,
}

// benchRow assembles a pods x 32-rack row under the spread policy (the
// partitioner's worst case: planned aggregates shift on every request).
func benchRow(b *testing.B, pods int) *sdm.RowScheduler {
	b.Helper()
	racks := fig10RowBenchRacks
	row, err := topo.BuildRow(pods, racks, benchRowRackSpec)
	if err != nil {
		b.Fatal(err)
	}
	podProf := optical.DefaultPodProfile
	if need := racks * podProf.UplinksPerRack; podProf.Switch.Ports < need {
		podProf.Switch.Ports = need
	}
	rowProf := optical.DefaultRowProfile
	if need := pods * rowProf.UplinksPerPod; rowProf.Switch.Ports < need {
		rowProf.Switch.Ports = need
	}
	podFabrics := make([]*optical.PodFabric, pods)
	for p := range podFabrics {
		fabrics := make([]*optical.Fabric, racks)
		for i := range fabrics {
			fabrics[i] = benchRackFabric(b, 64)
		}
		if podFabrics[p], err = optical.NewPodFabric(podProf, fabrics); err != nil {
			b.Fatal(err)
		}
	}
	rf, err := optical.NewRowFabric(rowProf, podFabrics)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := sdm.NewRowScheduler(row, rf, sdm.BrickConfigs{
		Compute: brick.ComputeConfig{Cores: 8, LocalMemory: 16 * brick.GiB},
		Memory:  brick.MemoryConfig{Capacity: 8 * brick.GiB},
	}, benchSDMConfig())
	if err != nil {
		b.Fatal(err)
	}
	sched.PowerOnAll()
	return sched
}

// BenchmarkFig10Row measures the placement throughput behind the
// row-scale Fig. 10 sweep: bursts of 256 full admissions (pod choice +
// rack choice + compute carve + remote attachment) group-committed
// against 8, 16 and 32 pods of 32 racks each — 256 to 1024 racks. Pod
// choice is O(1) arithmetic over the per-pod aggregates and the spill
// partitioner is O(pods), so placements/s must hold (>= 100k, gated by
// bench-check) as the rack count quadruples. Teardown between
// iterations runs through EvictBatch off the admission timer but on
// its own clock, so the group-commit teardown throughput is gated too.
func BenchmarkFig10Row(b *testing.B) {
	const burst = 256
	for _, pods := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("pods-%d", pods), func(b *testing.B) {
			sched := benchRow(b, pods)
			reqs := make([]sdm.AdmitRequest, burst)
			for v := range reqs {
				reqs[v] = sdm.AdmitRequest{
					Owner: fmt.Sprintf("adm%03d", v), VCPUs: 1, LocalMem: brick.GiB, Remote: 2 * brick.GiB,
				}
			}
			ereqs := make([]sdm.EvictRequest, burst)
			b.ResetTimer()
			placements := 0
			var evictNS int64
			for i := 0; i < b.N; i++ {
				out, err := sched.AdmitBatch(reqs)
				if err != nil {
					b.Fatal(err)
				}
				placements += burst
				b.StopTimer()
				for v := range out {
					ereqs[v] = sdm.EvictRequest{
						Owner: reqs[v].Owner, CPU: out[v].CPU, Rack: out[v].Rack, Pod: out[v].Pod,
						VCPUs: reqs[v].VCPUs, LocalMem: reqs[v].LocalMem,
						Atts: []*sdm.Attachment{out[v].Att},
					}
				}
				t0 := time.Now()
				if _, err := sched.EvictBatch(ereqs); err != nil {
					b.Fatal(err)
				}
				evictNS += time.Since(t0).Nanoseconds()
				b.StartTimer()
			}
			b.ReportMetric(float64(placements)/b.Elapsed().Seconds(), "placements/s")
			b.ReportMetric(float64(placements)/(float64(evictNS)/1e9), "teardowns/s")
		})
	}
}

// BenchmarkRowBatchOfOne measures the fixed cost of a row group
// commit, the cost an open loop of tenants arriving one at a time pays
// per VM: one 1-VM AdmitBatchInto plus the EvictBatchInto that retires
// it per op, on 8, 16 and 32 pods of 32 racks each (256 to 1024
// racks), reported as vms/s for the perf gate. A batch of one touches
// one rack, so the cost should barely grow with the rack count
// (DESIGN.md §17); the warmed cycle allocates nothing.
func BenchmarkRowBatchOfOne(b *testing.B) {
	for _, pods := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("pods-%d", pods), func(b *testing.B) {
			sched := benchRow(b, pods)
			reqs := []sdm.AdmitRequest{{Owner: "one", VCPUs: 1, LocalMem: brick.GiB, Remote: 2 * brick.GiB}}
			out := make([]sdm.AdmitResult, 1)
			ereqs := []sdm.EvictRequest{{Atts: make([]*sdm.Attachment, 1)}}
			eout := make([]sdm.EvictResult, 1)
			cycle := func() {
				if err := sched.AdmitBatchInto(reqs, out, 0); err != nil {
					b.Fatal(err)
				}
				ereqs[0] = sdm.EvictRequest{
					Owner: reqs[0].Owner, CPU: out[0].CPU, Rack: out[0].Rack, Pod: out[0].Pod,
					VCPUs: reqs[0].VCPUs, LocalMem: reqs[0].LocalMem, Atts: ereqs[0].Atts,
				}
				ereqs[0].Atts[0] = out[0].Att
				if err := sched.EvictBatchInto(ereqs, eout, 0); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				cycle() // warm the arenas and batch scratch
			}
			// Collect the row's construction garbage now: at a few hundred
			// microsecond-scale ops, a collection cycle still running would
			// be most of the timed work.
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "vms/s")
		})
	}
}

// BenchmarkRowSequentialCycle measures the row's sequential entry
// points, which run the group commit's bodies: one ReserveCompute,
// AttachRemoteMemory, DetachRemoteMemory and ReleaseCompute per op on
// the rows of BenchmarkRowBatchOfOne, reported as vms/s. The warmed
// cycle allocates once, the attachment a sequential detach leaves to
// its caller's handle (DESIGN.md §17).
func BenchmarkRowSequentialCycle(b *testing.B) {
	for _, pods := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("pods-%d", pods), func(b *testing.B) {
			sched := benchRow(b, pods)
			cycle := func() {
				cpu, _, err := sched.ReserveCompute("one", 1, brick.GiB)
				if err != nil {
					b.Fatal(err)
				}
				att, _, err := sched.AttachRemoteMemory("one", cpu, 2*brick.GiB)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sched.DetachRemoteMemory(att); err != nil {
					b.Fatal(err)
				}
				if err := sched.ReleaseCompute(cpu, 1, brick.GiB); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				cycle() // warm the arenas and batch scratch
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "vms/s")
		})
	}
}

// BenchmarkFacadeBurst measures the whole per-VM software stack of a
// steady-state burst train through the core facades: one op is a
// CreateVMs burst (SDM group commit, then per VM the Scale-up
// controller record, hypervisor spawn, baremetal and guest hotplug of
// the remote DIMM) and the DestroyVMs burst that retires it. row/pods-16
// drives 256-VM bursts on a 16-pod, 512-rack row, pod/racks-16 32-VM
// bursts on a 16-rack pod, both built from the Fig. 10 sweep rack;
// every VM carries 2 or 4 GiB of remote memory. pod-spill/racks-16 is
// pod/racks-16 with 12 of the 16 racks' memory pre-filled to 1 GiB short
// of full, so the 3 in 4 VMs homed on them spill cross-rack. The
// facades are warmed first, so allocs/op is the steady-state cost,
// which is zero: the VM records and the returned results are recycled.
func BenchmarkFacadeBurst(b *testing.B) {
	cases := []struct {
		name  string
		burst int
		build func() (core.PipelineTarget, error)
	}{
		{"row/pods-16", 256, func() (core.PipelineTarget, error) {
			cfg := core.DefaultRowConfig(16, 32)
			cfg.Rack = exp.Fig10PodRackSpec()
			cfg.Fabric.Switch.Ports = max(cfg.Fabric.Switch.Ports, cfg.Racks*cfg.Fabric.UplinksPerRack)
			cfg.Row.Switch.Ports = max(cfg.Row.Switch.Ports, cfg.Pods*cfg.Row.UplinksPerPod)
			row, err := core.NewRow(cfg)
			if err != nil {
				return nil, err
			}
			row.Scheduler().PowerOnAll()
			return row, nil
		}},
		{"pod/racks-16", 32, func() (core.PipelineTarget, error) {
			cfg := core.DefaultPodConfig(16)
			cfg.Rack = exp.Fig10PodRackSpec()
			cfg.Fabric.Switch.Ports = max(cfg.Fabric.Switch.Ports, cfg.Racks*cfg.Fabric.UplinksPerRack)
			pod, err := core.NewPod(cfg)
			if err != nil {
				return nil, err
			}
			pod.Scheduler().PowerOnAll()
			return pod, nil
		}},
		{"pod-spill/racks-16", 32, func() (core.PipelineTarget, error) {
			cfg := core.DefaultPodConfig(16)
			cfg.Rack = exp.Fig10PodRackSpec()
			cfg.Fabric.Switch.Ports = max(cfg.Fabric.Switch.Ports, cfg.Racks*cfg.Fabric.UplinksPerRack)
			pod, err := core.NewPod(cfg)
			if err != nil {
				return nil, err
			}
			sched := pod.Scheduler()
			sched.PowerOnAll()
			for r := 0; r < cfg.Racks; r++ {
				if r%4 == 0 {
					continue
				}
				rack := pod.Topology().Rack(r)
				cpus := rack.BricksOfKind(topo.KindCompute)
				for k := 0; k < rack.Count(topo.KindMemory); k++ {
					cpu := topo.PodBrickID{Rack: r, Brick: cpus[k%len(cpus)].ID}
					if _, _, err := sched.AttachRemoteMemory(fmt.Sprintf("ballast-%d-%d", r, k), cpu, 63*brick.GiB); err != nil {
						return nil, err
					}
				}
			}
			return pod, nil
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			target, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]core.VMCreate, tc.burst)
			ids := make([]string, tc.burst)
			for v := range reqs {
				ids[v] = fmt.Sprintf("vm%03d", v)
				reqs[v] = core.VMCreate{
					ID: ids[v], VCPUs: 1 + v%4,
					Memory: brick.Bytes(1+v%3) * brick.GiB,
					Remote: brick.Bytes(2<<(v%2)) * brick.GiB,
				}
			}
			cycle := func() {
				if _, err := target.CreateVMs(reqs, 0); err != nil {
					b.Fatal(err)
				}
				if _, err := target.DestroyVMs(ids, 0); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.ReportMetric(float64(b.N*tc.burst)/b.Elapsed().Seconds(), "vms/s")
		})
	}
}

// batchAdmitPod assembles the 16-rack pod of the batch-admission
// benchmark under one policy: per-rack fills leave every rack with a
// mix of exhausted and free memory bricks, so picks are non-trivial
// but the burst still places rack-locally.
func batchAdmitPod(b *testing.B, policy sdm.Policy) *sdm.PodScheduler {
	b.Helper()
	racks := fig10PodBenchRacks
	pod, err := topo.BuildPod(racks, benchRackSpec)
	if err != nil {
		b.Fatal(err)
	}
	fabrics := make([]*optical.Fabric, racks)
	for i := range fabrics {
		fabrics[i] = benchRackFabric(b, 768)
	}
	pf, err := optical.NewPodFabric(optical.DefaultPodProfile, fabrics)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchSDMConfig()
	cfg.Policy = policy
	sched, err := sdm.NewPodScheduler(pod, pf, benchBrickConfigs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sched.PowerOnAll()
	for r := 0; r < racks; r++ {
		fillController(b, sched.Rack(r), pod.Rack(r), 6, fmt.Sprintf("r%d", r))
	}
	return sched
}

// BenchmarkBatchAdmit pins the batched group-commit admission speedup:
// a burst of 128 full admissions (compute pick + local carve + remote
// attachment) against a 16-rack pod, served through AdmitBatch versus
// the per-request indexed path (ReserveCompute + AttachRemoteMemory
// per request). The batch path amortizes what the per-request path
// repays per call — policy descents (pick caching under the packing
// policies), index-leaf refreshes (one per touched brick per batch
// instead of one per op), rack choice (one planned-aggregate partition
// pass instead of a per-request rack scan) and the per-op closure plan
// machinery. The acceptance bar is batch >= 2x per-request placements/s at 16
// racks; teardown between iterations is excluded from the timing.
//
// Iterations churn: teardown is a batched evict whose epilogue drains
// the retired attachments, circuits and segments into the per-rack
// arenas, so the timed admissions run in the steady-state regime the
// dense-ID data plane targets — popping recycled objects instead of
// allocating. The reused result buffers (AdmitBatchInto/EvictBatchInto)
// close the loop; allocs/op measures what the hot path still allocates.
func BenchmarkBatchAdmit(b *testing.B) {
	const burst = 128
	mkReqs := func() []sdm.AdmitRequest {
		reqs := make([]sdm.AdmitRequest, burst)
		for v := range reqs {
			reqs[v] = sdm.AdmitRequest{
				Owner: fmt.Sprintf("adm%03d", v), VCPUs: 1, LocalMem: brick.GiB, Remote: 2 * brick.GiB,
			}
		}
		return reqs
	}
	mkTeardown := func() func(*testing.B, *sdm.PodScheduler, []sdm.AdmitRequest, []sdm.AdmitResult) {
		atts := make([]*sdm.Attachment, burst)
		ereqs := make([]sdm.EvictRequest, burst)
		eout := make([]sdm.EvictResult, burst)
		return func(b *testing.B, sched *sdm.PodScheduler, reqs []sdm.AdmitRequest, out []sdm.AdmitResult) {
			b.Helper()
			for v := range out {
				atts[v] = out[v].Att
				ereqs[v] = sdm.EvictRequest{
					Owner: reqs[v].Owner, CPU: out[v].CPU, Rack: out[v].Rack,
					VCPUs: reqs[v].VCPUs, LocalMem: reqs[v].LocalMem,
					Atts: atts[v : v+1 : v+1],
				}
			}
			if err := sched.EvictBatchInto(ereqs, eout, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, policy := range []sdm.Policy{sdm.PolicyPowerAware, sdm.PolicySpread} {
		b.Run(policy.String(), func(b *testing.B) {
			b.Run("batch", func(b *testing.B) {
				sched := batchAdmitPod(b, policy)
				reqs := mkReqs()
				out := make([]sdm.AdmitResult, burst)
				teardown := mkTeardown()
				b.ResetTimer()
				placements := 0
				for i := 0; i < b.N; i++ {
					if err := sched.AdmitBatchInto(reqs, out, 0); err != nil {
						b.Fatal(err)
					}
					placements += burst
					b.StopTimer()
					teardown(b, sched, reqs, out)
					b.StartTimer()
				}
				b.ReportMetric(float64(placements)/b.Elapsed().Seconds(), "placements/s")
			})
			b.Run("per-request", func(b *testing.B) {
				sched := batchAdmitPod(b, policy)
				reqs := mkReqs()
				out := make([]sdm.AdmitResult, burst)
				teardown := mkTeardown()
				b.ResetTimer()
				placements := 0
				for i := 0; i < b.N; i++ {
					for v := range reqs {
						id, lat, err := sched.ReserveCompute(reqs[v].Owner, reqs[v].VCPUs, reqs[v].LocalMem)
						if err != nil {
							b.Fatal(err)
						}
						att, alat, err := sched.AttachRemoteMemory(reqs[v].Owner, id, reqs[v].Remote)
						if err != nil {
							b.Fatal(err)
						}
						out[v] = sdm.AdmitResult{CPU: id.Brick, Rack: id.Rack, Att: att, ComputeLat: lat, AttachLat: alat}
					}
					placements += burst
					b.StopTimer()
					teardown(b, sched, reqs, out)
					b.StartTimer()
				}
				b.ReportMetric(float64(placements)/b.Elapsed().Seconds(), "placements/s")
			})
		})
	}
}

// BenchmarkEvictBatch pins the batched group-commit teardown speedup —
// the admission benchmark's inverse: a burst of 128 full retirements
// (remote detach + compute release) against the same 16-rack pod,
// served through EvictBatch versus the per-request path
// (DetachRemoteMemory + ReleaseCompute per request). The batch path
// amortizes the per-op index-leaf refreshes into one deferred refresh
// per touched brick; the acceptance bar is batch >= 2x per-request
// teardowns/s at 16 racks. Re-admission between iterations is excluded
// from the timing.
func BenchmarkEvictBatch(b *testing.B) {
	const burst = 128
	mkReqs := func() []sdm.AdmitRequest {
		reqs := make([]sdm.AdmitRequest, burst)
		for v := range reqs {
			reqs[v] = sdm.AdmitRequest{
				Owner: fmt.Sprintf("evc%03d", v), VCPUs: 1, LocalMem: brick.GiB, Remote: 2 * brick.GiB,
			}
		}
		return reqs
	}
	mkAdmit := func() func(*testing.B, *sdm.PodScheduler, []sdm.AdmitRequest, []sdm.EvictRequest) {
		aout := make([]sdm.AdmitResult, burst)
		atts := make([]*sdm.Attachment, burst)
		return func(b *testing.B, sched *sdm.PodScheduler, reqs []sdm.AdmitRequest, ereqs []sdm.EvictRequest) {
			b.Helper()
			if err := sched.AdmitBatchInto(reqs, aout, 0); err != nil {
				b.Fatal(err)
			}
			for i := range reqs {
				atts[i] = aout[i].Att
				ereqs[i] = sdm.EvictRequest{
					Owner: reqs[i].Owner, CPU: aout[i].CPU, Rack: aout[i].Rack,
					VCPUs: reqs[i].VCPUs, LocalMem: reqs[i].LocalMem,
					Atts: atts[i : i+1 : i+1],
				}
			}
		}
	}
	for _, policy := range []sdm.Policy{sdm.PolicyPowerAware, sdm.PolicySpread} {
		b.Run(policy.String(), func(b *testing.B) {
			b.Run("batch", func(b *testing.B) {
				sched := batchAdmitPod(b, policy)
				reqs := mkReqs()
				ereqs := make([]sdm.EvictRequest, burst)
				eout := make([]sdm.EvictResult, burst)
				admit := mkAdmit()
				b.ResetTimer()
				teardowns := 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					admit(b, sched, reqs, ereqs)
					b.StartTimer()
					if err := sched.EvictBatchInto(ereqs, eout, 0); err != nil {
						b.Fatal(err)
					}
					teardowns += burst
				}
				b.ReportMetric(float64(teardowns)/b.Elapsed().Seconds(), "teardowns/s")
			})
			b.Run("per-request", func(b *testing.B) {
				sched := batchAdmitPod(b, policy)
				reqs := mkReqs()
				ereqs := make([]sdm.EvictRequest, burst)
				admit := mkAdmit()
				b.ResetTimer()
				teardowns := 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					admit(b, sched, reqs, ereqs)
					b.StartTimer()
					for v := range ereqs {
						if _, err := sched.DetachRemoteMemory(ereqs[v].Atts[0]); err != nil {
							b.Fatal(err)
						}
						if err := sched.ReleaseCompute(topo.PodBrickID{Rack: ereqs[v].Rack, Brick: ereqs[v].CPU}, ereqs[v].VCPUs, ereqs[v].LocalMem); err != nil {
							b.Fatal(err)
						}
					}
					teardowns += burst
				}
				b.ReportMetric(float64(teardowns)/b.Elapsed().Seconds(), "teardowns/s")
			})
		})
	}
}

// BenchmarkChurn runs the sustained-churn scenario end to end at the
// 16-rack acceptance scale: batched arrivals and departures, the
// rebalancer every round, consolidation and rack power-down every
// third. The run must leave at least one rack fully dark. The reported
// placements/s and teardowns/s are the scenario's virtual-time
// throughputs — deterministic for the seed, so the bench-check gate
// holds them exactly rather than within a wall-clock noise band.
//
// The pipeline variant serves the same schedule through a
// core.BatchPipeline deep enough that no burst ever stalls on the
// depth bound: burst k+1's planning overlaps burst k's boots, so the
// virtual placement throughput counts controller busy time instead of
// boot waits. Placement state (frag, dark racks, moves) is identical
// to the batch run; the acceptance bar is pipeline >= 1.5x the batch
// side's vplacements/s.
func BenchmarkChurn(b *testing.B) {
	for _, mode := range []struct {
		name     string
		pipeline int
	}{{"batch", 0}, {"pipeline", 16}} {
		b.Run(mode.name, func(b *testing.B) {
			var res exp.ChurnResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = exp.RunChurn(exp.Params{Seed: 1, Workers: 1, Batch: true, Pipeline: mode.pipeline})
				if err != nil {
					b.Fatal(err)
				}
				if res.DarkFinal < 1 {
					b.Fatal("churn run left no rack powered down")
				}
			}
			b.ReportMetric(res.PlacementsPerS, "vplacements/s")
			b.ReportMetric(res.TeardownsPerS, "vteardowns/s")
		})
	}
}

// BenchmarkAttachmentQueries pins the allocation profile of the
// attachment query path: the append-into-dst variants allocate nothing
// per call (allocs/op is the metric to watch).
func BenchmarkAttachmentQueries(b *testing.B) {
	sched := batchAdmitPod(b, sdm.PolicyPowerAware)
	id, _, err := sched.ReserveCompute("vm", 1, brick.GiB)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := sched.AttachRemoteMemory("vm", id, 2*brick.GiB); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]*sdm.Attachment, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = sched.AppendAttachments(dst[:0], "vm")
		if len(dst) != 4 {
			b.Fatal("lost attachments")
		}
	}
}

// BenchmarkTable1Workloads regenerates Table I: the six VM workload
// class generators.
func BenchmarkTable1Workloads(b *testing.B) {
	gens := make([]*workload.Generator, 0, 6)
	for _, class := range workload.Classes() {
		g, err := workload.NewGenerator(class, 1)
		if err != nil {
			b.Fatal(err)
		}
		gens = append(gens, g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := gens[i%len(gens)].Next()
		if r.VCPUs == 0 {
			b.Fatal("degenerate request")
		}
	}
}

// BenchmarkFig12PowerOff regenerates Figure 12: the fraction of
// individually powered units that can be switched off per workload class.
func BenchmarkFig12PowerOff(b *testing.B) {
	var maxKindOff, convOff float64
	for i := 0; i < b.N; i++ {
		results, err := exp.RunTCO(tco.DefaultConfig, 1)
		if err != nil {
			b.Fatal(err)
		}
		maxKindOff, convOff = 0, 0
		for _, r := range results {
			if r.MaxKindOffFrac > maxKindOff {
				maxKindOff = r.MaxKindOffFrac
			}
			if r.ConvOffFrac > convOff {
				convOff = r.ConvOffFrac
			}
		}
	}
	b.ReportMetric(100*maxKindOff, "best-brick-off-%")
	b.ReportMetric(100*convOff, "best-host-off-%")
}

// BenchmarkFig13Power regenerates Figure 13: power normalized to the
// conventional datacenter.
func BenchmarkFig13Power(b *testing.B) {
	var bestSavings float64
	for i := 0; i < b.N; i++ {
		results, err := exp.RunTCO(tco.DefaultConfig, 1)
		if err != nil {
			b.Fatal(err)
		}
		bestSavings = 0
		for _, r := range results {
			if r.SavingsFrac > bestSavings {
				bestSavings = r.SavingsFrac
			}
		}
	}
	b.ReportMetric(100*bestSavings, "best-savings-%")
}

// BenchmarkAllExperiments runs the entire registered evaluation the way
// dredbox-report does — every experiment in registry order, trials
// fanned out across all cores — in fast (smoke) mode.
func BenchmarkAllExperiments(b *testing.B) {
	runner := exp.Runner{}
	for i := 0; i < b.N; i++ {
		outs, err := runner.Run(exp.Params{Seed: 1, Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(outs) != len(exp.All()) {
			b.Fatalf("ran %d of %d experiments", len(outs), len(exp.All()))
		}
	}
	b.ReportMetric(float64(len(exp.All())), "experiments")
}

// BenchmarkAblationRMST compares the paper's fully associative RMST
// against a direct-mapped variant: lookup cost and install success under
// a segment-heavy layout (DESIGN.md §6).
func BenchmarkAblationRMST(b *testing.B) {
	dst := topo.BrickID{Tray: 1, Slot: 0}
	port := topo.PortID{Brick: topo.BrickID{}, Port: 0}
	mkEntries := func(n int) []tgl.Entry {
		es := make([]tgl.Entry, n)
		for i := range es {
			es[i] = tgl.Entry{
				Base: uint64(i) * (1 << 30), Size: 1 << 30,
				Dest: dst, DestOffset: uint64(i) << 30, Port: port,
			}
		}
		return es
	}
	b.Run("fully-associative", func(b *testing.B) {
		rm, _ := tgl.NewRMST(32)
		for _, e := range mkEntries(32) {
			if err := rm.Install(e); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := rm.Lookup(uint64(i%32)<<30 + 4096); !ok {
				b.Fatal("miss on installed segment")
			}
		}
	})
	b.Run("direct-mapped", func(b *testing.B) {
		dm, _ := tgl.NewDirectRMST(32, 1<<30)
		installed := 0
		for _, e := range mkEntries(32) {
			if dm.Install(e) == nil {
				installed++
			}
		}
		b.ReportMetric(float64(installed), "installed-of-32")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dm.Lookup(uint64(i%32)<<30 + 4096)
		}
	})
}

// BenchmarkAblationCircuitVsPacket quantifies the latency cost of
// packet-mode interconnection against dedicated circuits (DESIGN.md §6).
func BenchmarkAblationCircuitVsPacket(b *testing.B) {
	b.Run("circuit", func(b *testing.B) {
		ctrl, _ := mem.NewDDR(mem.DDR4_2400)
		var total sim.Duration
		for i := 0; i < b.N; i++ {
			bd, err := pktnet.CircuitRoundTrip(pktnet.DefaultProfile, ctrl, mem.Request{Op: mem.OpRead, Addr: uint64(i) * 64, Size: 64})
			if err != nil {
				b.Fatal(err)
			}
			total = bd.Total
		}
		b.ReportMetric(float64(total), "rtt-ns")
	})
	b.Run("packet", func(b *testing.B) {
		ctrl, _ := mem.NewDDR(mem.DDR4_2400)
		var total sim.Duration
		for i := 0; i < b.N; i++ {
			bd, err := pktnet.RoundTrip(pktnet.DefaultProfile, ctrl, mem.Request{Op: mem.OpRead, Addr: uint64(i) * 64, Size: 64})
			if err != nil {
				b.Fatal(err)
			}
			total = bd.Total
		}
		b.ReportMetric(float64(total), "rtt-ns")
	})
}

// BenchmarkAblationPlacement compares power-aware packing against
// bandwidth spreading in the SDM Controller (DESIGN.md §6).
func BenchmarkAblationPlacement(b *testing.B) {
	var pa, spread int
	for i := 0; i < b.N; i++ {
		var err error
		pa, spread, err = exp.AblationPlacement(1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pa), "poweraware-bricks-off")
	b.ReportMetric(float64(spread), "spread-bricks-off")
}

// BenchmarkAblationPortPressure quantifies the circuit→packet fallback
// under port pressure: 12 attachments on an 8-port brick.
func BenchmarkAblationPortPressure(b *testing.B) {
	var circuitRTT, packetRTT sim.Duration
	for i := 0; i < b.N; i++ {
		r, err := exp.RunPortPressure(12)
		if err != nil {
			b.Fatal(err)
		}
		circuitRTT, packetRTT = r.AvgCircuitRTT, r.AvgPacketRTT
	}
	b.ReportMetric(float64(circuitRTT), "circuit-rtt-ns")
	b.ReportMetric(float64(packetRTT), "packet-rtt-ns")
}

// BenchmarkMigration measures disaggregated VM migration: downtime
// against the conventional full-memory-copy baseline for a VM whose
// footprint is mostly remote.
func BenchmarkMigration(b *testing.B) {
	var downtime, fullCopy sim.Duration
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		dc, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dc.CreateVM("mv", 2, 2*brick.GiB); err != nil {
			b.Fatal(err)
		}
		dc.SDM().PowerOnAll()
		if _, err := dc.ScaleUpVM("mv", 16*brick.GiB); err != nil {
			b.Fatal(err)
		}
		res, err := dc.MigrateVM("mv")
		if err != nil {
			b.Fatal(err)
		}
		downtime, fullCopy = res.Downtime, res.FullCopyBaseline
	}
	b.ReportMetric(downtime.Seconds()*1e3, "downtime-ms")
	b.ReportMetric(fullCopy.Seconds()*1e3, "fullcopy-ms")
}

// BenchmarkRebalance measures the online rebalancer at pod scale: a
// 4-rack pod with three cross-rack spills per sweep, promoted home
// once the hog frees the rack. The pod is built once and its state
// fully reset between b.N iterations — hog re-fills, app re-spills,
// promoted attachments release — so every timed sweep promotes against
// the same spilled state instead of an already-promoted pod. The
// batch-sweep side runs the group-committed RebalanceBatch over the
// identical state; the metric is engine promotions per wall-clock
// second.
func BenchmarkRebalance(b *testing.B) {
	const spills = 3
	for _, mode := range []struct {
		name  string
		sweep func(pod *core.Pod) sdm.RebalanceReport
	}{
		{"sweep", func(pod *core.Pod) sdm.RebalanceReport { return pod.Rebalance() }},
		{"batch-sweep", func(pod *core.Pod) sdm.RebalanceReport { return pod.RebalanceBatch() }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.DefaultPodConfig(4)
			cfg.Rack.Topology = topo.BuildSpec{
				Trays: 1, ComputePerTray: 1, MemoryPerTray: 1, AccelPerTray: 0, PortsPerBrick: 8,
			}
			cfg.Rack.Switch.Ports = 16
			cfg.Rack.Bricks.Memory.Capacity = 8 * brick.GiB
			pod, err := core.NewPod(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pod.CreateVM("app", 1, brick.GiB); err != nil {
				b.Fatal(err)
			}
			if _, err := pod.CreateVM("hog", 1, brick.GiB); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var promoted int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := pod.ScaleUpVM("hog", 8*brick.GiB); err != nil {
					b.Fatal(err)
				}
				for s := 0; s < spills; s++ {
					if _, err := pod.ScaleUpVM("app", brick.GiB); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := pod.ScaleDownVM("hog", 8*brick.GiB); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep := mode.sweep(pod)
				if rep.Promoted != spills {
					b.Fatalf("promoted %d of %d spills", rep.Promoted, spills)
				}
				promoted += rep.Promoted
				b.StopTimer()
				// Release the promoted attachments so the next iteration
				// spills from the pristine fill again.
				for s := 0; s < spills; s++ {
					if _, err := pod.ScaleDownVM("app", brick.GiB); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(promoted)/b.Elapsed().Seconds(), "promotions/s")
		})
	}
}

// BenchmarkExtensionSlowdown runs the AMAT-based application slowdown
// sweep (remote fraction 0..1, circuit vs packet paths).
func BenchmarkExtensionSlowdown(b *testing.B) {
	var max float64
	for i := 0; i < b.N; i++ {
		s, err := exp.RunSlowdownSweep(0.3, 11)
		if err != nil {
			b.Fatal(err)
		}
		max = s.MaxSlowdown()
	}
	b.ReportMetric(max, "all-remote-slowdown-x")
}

// BenchmarkExtensionFillSweep runs the TCO fill-sensitivity sweep.
func BenchmarkExtensionFillSweep(b *testing.B) {
	var peakSavings float64
	for i := 0; i < b.N; i++ {
		points, err := exp.RunTCOFillSweep(tco.DefaultConfig, 1)
		if err != nil {
			b.Fatal(err)
		}
		peakSavings = 0
		for _, p := range points {
			if p.SavingsFrac > peakSavings {
				peakSavings = p.SavingsFrac
			}
		}
	}
	b.ReportMetric(100*peakSavings, "peak-savings-%")
}

// BenchmarkAblationBalloon compares balloon-assisted memory reclaim with
// full DIMM detach for elastic scale-down (DESIGN.md §6).
func BenchmarkAblationBalloon(b *testing.B) {
	setup := func(b *testing.B) (*hypervisor.Hypervisor, *hypervisor.VM) {
		b.Helper()
		hv, err := hypervisor.New(hypervisor.DefaultConfig)
		if err != nil {
			b.Fatal(err)
		}
		vm := new(hypervisor.VM)
		if _, err := hv.Spawn(vm, "vm", hypervisor.VMSpec{VCPUs: 1, Memory: 2 * brick.GiB}); err != nil {
			b.Fatal(err)
		}
		return hv, vm
	}
	b.Run("balloon", func(b *testing.B) {
		hv, vm := setup(b)
		var lat sim.Duration
		for i := 0; i < b.N; i++ {
			l1, err := hv.BalloonInflate(vm, brick.GiB)
			if err != nil {
				b.Fatal(err)
			}
			l2, err := hv.BalloonDeflate(vm, brick.GiB)
			if err != nil {
				b.Fatal(err)
			}
			lat = l1 + l2
		}
		b.ReportMetric(float64(lat), "reclaim+return-ns")
	})
	b.Run("detach", func(b *testing.B) {
		hv, vm := setup(b)
		var lat sim.Duration
		for i := 0; i < b.N; i++ {
			d, l1, err := hv.AttachDIMM(vm, brick.GiB)
			if err != nil {
				b.Fatal(err)
			}
			l2, err := hv.DetachDIMM(vm, d.ID)
			if err != nil {
				b.Fatal(err)
			}
			lat = l1 + l2
		}
		b.ReportMetric(float64(lat), "attach+detach-ns")
	})
}
