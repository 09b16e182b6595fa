package exp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Churn: sustained arrivals and departures against a pod, the workload
// the batched teardown engine exists for. Every round admits a burst of
// VMs (workload.BurstSource shapes), retires a burst (newest first, so
// packet riders precede the circuits they ride), and runs one
// rebalancing sweep; every third round a consolidation pass re-packs
// VMs off sparse trailing racks and drains the remote memory parked
// there so whole racks power down. After the churn phase the arrival
// stream stops and the pod decays, shrinking onto its leading racks.
//
// Reported: placement and teardown throughput over virtual time,
// steady-state fragmentation of the pooled memory, and how many racks
// are fully dark after each consolidation. With Params.Batch the
// admissions and teardowns go through the group-commit engines
// (CreateVMs / DestroyVMs) in chunks of Params.BatchSize; without it,
// every VM boots, scales up and retires through the per-request facade.
// At BatchSize 1 the two paths are byte-identical — the CI determinism
// matrix holds the artifacts to that.

// defaultChurnRacks sizes the pod when Params.Racks is zero.
const defaultChurnRacks = 16

// churnRounds / churnDecayRounds / churnBurst are the full-size shape;
// Fast mode halves the grid without changing the structure.
const (
	churnRounds      = 9
	churnDecayRounds = 3
	churnBurst       = 12
)

// ChurnRound is one round's row in the artifact.
type ChurnRound struct {
	Round     int
	Phase     string // "churn" or "decay"
	Created   int
	Destroyed int
	Live      int
	// Frag is the pooled-memory fragmentation after the round: the mean,
	// over racks holding remote segments, of 1 - (largest contiguous
	// free extent / memory brick capacity). 0 = every active rack still
	// has a whole brick's span free somewhere.
	Frag float64
	// Dark counts racks with every brick powered off after the round.
	Dark int
	// Moved / Promoted are the round's consolidation counts: VMs
	// migrated off sparse racks and segments re-homed rack-local.
	Moved    int
	Promoted int
}

// ChurnResult holds the sustained-churn run.
type ChurnResult struct {
	Racks     int
	Batch     bool
	BatchSize int
	Pipeline  int
	Rounds    []ChurnRound

	// PlacementsPerS / TeardownsPerS are VMs admitted and retired per
	// second of virtual orchestration time spent in those phases.
	PlacementsPerS float64
	TeardownsPerS  float64
	// FragMean / FragPeak summarize the churn-phase fragmentation;
	// FragFinal is the last churn round's (the steady-state endpoint).
	FragMean  float64
	FragPeak  float64
	FragFinal float64
	// DarkPeak / DarkFinal count fully powered-off racks: the best
	// consolidation result during churn, and the count after decay.
	DarkPeak  int
	DarkFinal int
	// VMsMoved / Promoted total the consolidation work across the run.
	VMsMoved int
	Promoted int
	// LiveFinal is the VM population left after decay.
	LiveFinal int
}

// churnShape maps one workload.VMRequest onto the churn pod's brick
// grid, keeping every size a whole GiB so the TGL window space never
// fragments below the kernel's 1 GiB hotplug alignment.
func churnShape(r workload.VMRequest, id string) core.VMCreate {
	return core.VMCreate{
		ID:     id,
		VCPUs:  1 + r.VCPUs%4,
		Memory: brick.Bytes(1+r.RAMGiB%3) * brick.GiB,
		Remote: brick.Bytes(r.RAMGiB%3) * brick.GiB,
	}
}

// RunChurn runs the sustained-churn scenario — the ROADMAP "churn"
// item. Arrivals, departure sizes and request shapes derive from
// Params.Seed alone, so the artifacts are byte-identical at any
// trial-level worker count.
func RunChurn(p Params) (ChurnResult, error) {
	racks := p.Racks
	if racks == 0 {
		racks = defaultChurnRacks
	}
	if racks < 2 {
		return ChurnResult{}, fmt.Errorf("churn needs at least 2 racks, got %d", racks)
	}
	rounds, decay, burst := churnRounds, churnDecayRounds, churnBurst
	if p.Fast {
		rounds, decay, burst = 4, 2, 6
	}

	cfg := fig10PodConfig(p.Seed, racks)
	pod, err := core.NewPod(cfg)
	if err != nil {
		return ChurnResult{}, err
	}
	memCap := cfg.Rack.Bricks.Memory.Capacity
	pristine := make([]brick.Bytes, pod.Racks())
	for i := range pristine {
		pristine[i] = pod.Scheduler().Rack(i).FreeMemory()
	}
	frag := func() float64 {
		sum, active := 0.0, 0
		for i := 0; i < pod.Racks(); i++ {
			c := pod.Scheduler().Rack(i)
			if c.FreeMemory() == pristine[i] {
				continue
			}
			active++
			sum += 1 - float64(c.MaxMemoryGap())/float64(memCap)
		}
		if active == 0 {
			return 0
		}
		return sum / float64(active)
	}

	src, err := workload.NewBurstSource(workload.Random, TrialSeed(p.Seed, 1), burst, 0)
	if err != nil {
		return ChurnResult{}, err
	}
	rng := newChurnRand(TrialSeed(p.Seed, 2))

	// Pipeline mode (implies batch): bursts go through a BatchPipeline
	// so burst k+1's planning overlaps burst k's boots. Placement is
	// byte-identical to the batch path; only the virtual timeline — and
	// with it the throughput accounting — changes. Throughput divides by
	// controller busy time (pipeline clock minus join stalls): a stall
	// waiting out a boot is pipeline idleness, not scheduling work.
	batch := p.Batch || p.Pipeline > 1
	var pipe *core.BatchPipeline
	if p.Pipeline > 1 {
		if pipe, err = core.NewBatchPipeline(pod, p.Pipeline); err != nil {
			return ChurnResult{}, err
		}
	}
	mark := func() (sim.Time, sim.Duration) {
		if pipe != nil {
			return pipe.Now(), pipe.Stalled()
		}
		return pod.Now(), 0
	}
	busySince := func(t0 sim.Time, s0 sim.Duration) float64 {
		t1, s1 := mark()
		return (t1.Sub(t0) - (s1 - s0)).Seconds()
	}

	res := ChurnResult{Racks: racks, Batch: p.Batch, BatchSize: p.BatchSize, Pipeline: p.Pipeline}
	var live []string // creation order
	nextID := 0
	var placed, torn int
	var placeTime, tearTime float64

	create := func(reqs []core.VMCreate) error {
		before, stall := mark()
		if batch {
			chunk := len(reqs)
			if p.BatchSize > 0 {
				chunk = p.BatchSize
			}
			for lo := 0; lo < len(reqs); lo += chunk {
				hi := lo + chunk
				if hi > len(reqs) {
					hi = len(reqs)
				}
				if pipe != nil {
					if _, err := pipe.CreateVMs(reqs[lo:hi]); err != nil {
						return fmt.Errorf("churn admission: %w", err)
					}
				} else if _, err := pod.CreateVMs(reqs[lo:hi], 0); err != nil {
					return fmt.Errorf("churn admission: %w", err)
				}
			}
		} else {
			for _, r := range reqs {
				if _, err := pod.CreateVM(r.ID, r.VCPUs, r.Memory); err != nil {
					return fmt.Errorf("churn boot %s: %w", r.ID, err)
				}
				if r.Remote > 0 {
					if _, err := pod.ScaleUpVM(r.ID, r.Remote); err != nil {
						return fmt.Errorf("churn scale-up %s: %w", r.ID, err)
					}
				}
			}
		}
		for _, r := range reqs {
			live = append(live, r.ID)
		}
		placed += len(reqs)
		placeTime += busySince(before, stall)
		return nil
	}
	// destroy retires the newest n VMs, newest first — the LIFO order
	// under which packet riders always precede their host circuits.
	destroy := func(n int) error {
		if n > len(live) {
			n = len(live)
		}
		if n == 0 {
			return nil
		}
		ids := make([]string, 0, n)
		for i := len(live) - 1; i >= len(live)-n; i-- {
			ids = append(ids, live[i])
		}
		before, stall := mark()
		if batch {
			chunk := len(ids)
			if p.BatchSize > 0 {
				chunk = p.BatchSize
			}
			for lo := 0; lo < len(ids); lo += chunk {
				hi := lo + chunk
				if hi > len(ids) {
					hi = len(ids)
				}
				if pipe != nil {
					if _, err := pipe.DestroyVMs(ids[lo:hi]); err != nil {
						return fmt.Errorf("churn teardown: %w", err)
					}
				} else if _, err := pod.DestroyVMs(ids[lo:hi], 0); err != nil {
					return fmt.Errorf("churn teardown: %w", err)
				}
			}
		} else {
			for _, id := range ids {
				if _, err := pod.DestroyVM(id); err != nil {
					return fmt.Errorf("churn teardown %s: %w", id, err)
				}
			}
		}
		live = live[:len(live)-n]
		torn += n
		tearTime += busySince(before, stall)
		return nil
	}

	for round := 0; round < rounds+decay; round++ {
		row := ChurnRound{Round: round, Phase: "churn"}
		if round < rounds {
			b, err := src.Next(pod.Now())
			if err != nil {
				return ChurnResult{}, err
			}
			reqs := make([]core.VMCreate, b.Size())
			for i, r := range b.Reqs {
				reqs[i] = churnShape(r, fmt.Sprintf("vm-%04d", nextID+i))
			}
			nextID += b.Size()
			if err := create(reqs); err != nil {
				return ChurnResult{}, err
			}
			row.Created = b.Size()
			// Departures hold the population near two bursts once warm.
			if round >= 2 {
				k := burst/2 + int(rng.next()%uint64(burst))
				if floor := len(live) - burst; k > floor {
					k = floor
				}
				if err := destroy(k); err != nil {
					return ChurnResult{}, err
				}
				row.Destroyed = k
			}
		} else {
			row.Phase = "decay"
			k := (len(live) + 1) / 2
			if err := destroy(k); err != nil {
				return ChurnResult{}, err
			}
			row.Destroyed = k
		}

		if batch {
			rb := pod.RebalanceBatch()
			if pipe != nil {
				pipe.Advance(rb.Latency)
			}
		} else {
			pod.Rebalance()
		}
		if row.Phase == "decay" || round%3 == 2 {
			if pipe != nil {
				// Consolidation migrates VMs, so every boot still in
				// flight must land first.
				pipe.Drain()
			}
			rep := pod.Consolidate()
			if pipe != nil {
				pipe.Advance(rep.Latency + rep.MoveDowntime)
			}
			row.Moved = rep.VMsMoved
			row.Promoted = rep.Promoted + rep.Rehomed
			res.VMsMoved += rep.VMsMoved
			res.Promoted += rep.Promoted + rep.Rehomed
		}
		row.Live = len(live)
		row.Frag = frag()
		row.Dark = pod.Scheduler().DarkRacks()
		res.Rounds = append(res.Rounds, row)

		if round < rounds {
			res.FragMean += row.Frag
			if row.Frag > res.FragPeak {
				res.FragPeak = row.Frag
			}
			res.FragFinal = row.Frag
			if row.Dark > res.DarkPeak {
				res.DarkPeak = row.Dark
			}
		}
	}
	if pipe != nil {
		pipe.Drain()
	}
	res.FragMean /= float64(rounds)
	res.DarkFinal = pod.Scheduler().DarkRacks()
	res.LiveFinal = len(live)
	if placeTime > 0 {
		res.PlacementsPerS = float64(placed) / placeTime
	}
	if tearTime > 0 {
		res.TeardownsPerS = float64(torn) / tearTime
	}
	return res, nil
}

// churnRand is a tiny splitmix64 stream for departure sizes — the
// workload package's generators stay dedicated to request shapes.
type churnRand struct{ s uint64 }

func newChurnRand(seed uint64) *churnRand { return &churnRand{s: seed} }

func (r *churnRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

// Format renders the run as text.
func (r ChurnResult) Format() string {
	// The admission/teardown mode (per-request vs group-commit) stays
	// out of the text on purpose: the two paths must produce the same
	// science, and the CI churn determinism step cmp's the batch-size-1
	// report against the sequential one byte for byte.
	var b strings.Builder
	fmt.Fprintf(&b, "Sustained churn — %d racks (placements/s and teardowns/s higher, frag lower, dark racks higher is better)\n\n",
		r.Racks)
	t := stats.NewTable("round", "phase", "created", "destroyed", "live", "frag", "dark racks", "VMs moved", "segs re-homed")
	for _, row := range r.Rounds {
		t.AddRowf("%d|%s|%d|%d|%d|%.3f|%d|%d|%d",
			row.Round, row.Phase, row.Created, row.Destroyed, row.Live,
			row.Frag, row.Dark, row.Moved, row.Promoted)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nthroughput: %.1f placements/s, %.1f teardowns/s; fragmentation mean %.3f / peak %.3f / final %.3f; dark racks peak %d / final %d; %d VMs re-packed, %d segments re-homed, %d VMs still live.\n",
		r.PlacementsPerS, r.TeardownsPerS, r.FragMean, r.FragPeak, r.FragFinal,
		r.DarkPeak, r.DarkFinal, r.VMsMoved, r.Promoted, r.LiveFinal)
	b.WriteString("shape: group-commit teardown keeps departures as cheap as arrivals, the rebalancer undoes spills, and the consolidation passes let trailing racks go fully dark — the TCO study's power-off story under a live, churning population.\n")
	return b.String()
}

// artifact packages the typed result for the registry.
func (r ChurnResult) artifact() Result {
	csv := make([][]string, 0, 1+len(r.Rounds))
	csv = append(csv, []string{"racks", "round", "phase", "created", "destroyed", "live", "frag", "dark_racks", "vms_moved", "segs_rehomed"})
	for _, row := range r.Rounds {
		csv = append(csv, []string{
			strconv.Itoa(r.Racks),
			strconv.Itoa(row.Round), row.Phase,
			strconv.Itoa(row.Created), strconv.Itoa(row.Destroyed), strconv.Itoa(row.Live),
			fmtF(row.Frag), strconv.Itoa(row.Dark),
			strconv.Itoa(row.Moved), strconv.Itoa(row.Promoted),
		})
	}
	metrics := []Metric{
		{Name: "racks", Value: float64(r.Racks)},
		{Name: "placements/s", Value: r.PlacementsPerS},
		{Name: "teardowns/s", Value: r.TeardownsPerS},
		{Name: "frag-mean", Value: r.FragMean},
		{Name: "frag-peak", Value: r.FragPeak},
		{Name: "frag-final", Value: r.FragFinal},
		{Name: "dark-racks-peak", Value: float64(r.DarkPeak)},
		{Name: "dark-racks-final", Value: float64(r.DarkFinal)},
		{Name: "vms-moved", Value: float64(r.VMsMoved)},
		{Name: "segs-rehomed", Value: float64(r.Promoted)},
		{Name: "live-final", Value: float64(r.LiveFinal)},
	}
	if r.Pipeline > 1 {
		metrics = append(metrics, Metric{Name: "pipeline-depth", Value: float64(r.Pipeline)})
	}
	return Result{Text: r.Format(), Metrics: metrics, CSV: csv}
}
