package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/sim"
	wl "repro/internal/workload"
)

// vmShape is one VM request: vCPUs and whole GiB of brick-local and
// remote memory.
type vmShape struct{ vcpus, local, remote uint8 }

func (s vmShape) create(id string) core.VMCreate {
	return core.VMCreate{
		ID:     id,
		VCPUs:  int(s.vcpus),
		Memory: brick.Bytes(s.local) * brick.GiB,
		Remote: brick.Bytes(s.remote) * brick.GiB,
	}
}

// Open-loop shape of row-poisson.
const (
	poissonRate     = 10000 // VM arrivals per second
	poissonLifetime = 40 * time.Millisecond
	// poissonNames bounds the live population; running out means the
	// engine fell so far behind that departures could not keep up.
	poissonNames = 8192
)

// inputs is everything a run feeds the engine, generated from the seed
// before any timing starts.
type inputs struct {
	// shapes are the VM requests in admission order, cycled once a run
	// has used them all.
	shapes []vmShape
	// due are the open loop's arrival times, from the start of the run.
	due []time.Duration
	// targets are the live population each pod-churn round's teardown
	// leaves behind, cycled like shapes.
	targets []int
	// hot are the pre-filled racks of pod-spill.
	hot []int
	// names is the VM name pool. Names are recycled once their VM is
	// gone, as a tenant reuses instance names: the controllers intern
	// every owner name they ever see and never free the entry, so unique
	// names would make heap size a function of run length.
	names []string
}

func (in *inputs) shape(i int) vmShape { return in.shapes[i%len(in.shapes)] }

func (in *inputs) target(round int) int { return in.targets[round%len(in.targets)] }

// genInputs draws a workload's inputs: w.pool steps of them for a
// closed loop, and arrivals over horizon for the open loop.
func genInputs(w *workload, seed uint64, horizon time.Duration) (*inputs, error) {
	rng := sim.NewRand(seed)
	in := &inputs{}
	steps := w.pool
	switch w.name {
	case "row-steady":
		in.shapes = make([]vmShape, steps*w.burst)
		for i := range in.shapes {
			in.shapes[i] = rowShape(rng)
		}
		// Four bursts stay live and the fifth is being admitted, so five
		// bursts' worth of names suffice.
		in.names = nameRange(5 * w.burst)
	case "pod-spill":
		in.shapes = []vmShape{{vcpus: 1, local: 1, remote: 4}}
		in.hot = rng.Perm(w.racks)[:w.hot]
		slices.Sort(in.hot)
		in.names = nameRange(w.burst)
	case "pod-churn":
		src, err := wl.NewBurstSource(wl.Random, seed, w.burst, 0)
		if err != nil {
			return nil, err
		}
		in.shapes = make([]vmShape, 0, steps*w.burst)
		in.targets = make([]int, steps)
		for r := range in.targets {
			b, err := src.Next(0)
			if err != nil {
				return nil, err
			}
			for _, q := range b.Reqs {
				in.shapes = append(in.shapes, churnShape(q))
			}
			in.targets[r] = 2*w.burst - w.burst/2 + rng.Intn(w.burst+1)
		}
		// The population peaks at the largest target plus one burst.
		in.names = nameRange(4 * w.burst)
	case "row-poisson":
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() / poissonRate * float64(time.Second))
			if t >= horizon {
				break
			}
			in.due = append(in.due, t)
			in.shapes = append(in.shapes, rowShape(rng))
		}
		in.names = nameRange(poissonNames)
	default:
		return nil, fmt.Errorf("no input generator for workload %q", w.name)
	}
	return in, nil
}

// rowShape draws a row workload's VM: 1–4 vCPUs, 1–3 GiB local, 2 or
// 4 GiB remote.
func rowShape(rng *sim.Rand) vmShape {
	return vmShape{
		vcpus:  uint8(rng.IntBetween(1, 4)),
		local:  uint8(rng.IntBetween(1, 3)),
		remote: uint8(2 << rng.Intn(2)),
	}
}

// churnShape maps a Table I request onto the churn pod's brick grid,
// exactly as the churn experiment does: whole GiB so the TGL window
// space never fragments below the kernel's 1 GiB hotplug alignment.
func churnShape(r wl.VMRequest) vmShape {
	return vmShape{
		vcpus:  uint8(1 + r.VCPUs%4),
		local:  uint8(1 + r.RAMGiB%3),
		remote: uint8(r.RAMGiB % 3),
	}
}

func nameRange(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("vm-%05d", i)
	}
	return names
}
