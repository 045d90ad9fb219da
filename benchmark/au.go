package main

import (
	"context"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/graph"
)

// auD is the diameter bound of every AU workload's graphs, and so (the
// family's diameter being known) the algorithm parameter of its runs.
const auD = 4

// auShape is one AlgAU workload: bounded-diameter graphs of n nodes under
// one scheduler and fault model, many trials in one Runner.Run.
type auShape struct {
	n      int
	sched  campaign.SchedulerSpec
	faults campaign.FaultSpec
}

// auSync: a dense step where every node fires; graph build and sim.New are
// a visible share of each scenario.
func auSync(sz sizes) auShape {
	return auShape{sz.SyncN, campaign.Synchronous, campaign.FaultSpec{Count: 16, Bursts: 2}}
}

// auRoundRobin: one node per step, so per-step fixed cost and the monitor
// verdict sit on the critical path.
func auRoundRobin(sz sizes) auShape {
	return auShape{sz.RRN, campaign.RoundRobin, campaign.FaultSpec{Count: 16, Bursts: 2}}
}

// auStraggler: the scale-sweep straggler matrix, the quiescent regime where
// frontier skipping carries the run.
func auStraggler(sz sizes) auShape {
	return auShape{
		sz.StragglerN,
		campaign.SchedulerSpec{Kind: "laggard", Victim: 0, Period: 128},
		campaign.FaultSpec{Count: 16, Bursts: 2, SoakRounds: 8},
	}
}

func (s auShape) scenarios(seed int64, trials int) []campaign.Scenario {
	return campaign.Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD},
		Sizes:          []int{s.n},
		DiameterBounds: []int{auD},
		Schedulers:     []campaign.SchedulerSpec{s.sched},
		Algorithms:     []campaign.Algorithm{campaign.AlgAU},
		Faults:         []campaign.FaultSpec{s.faults},
		Trials:         trials,
	}.Expand(seed)
}

// runAU returns the workload for one AU shape, a closed loop: one
// Runner.Run over a long trial list, cut at the first completed scenario
// after the measured time (scenarios in flight at the cut are cancelled and
// not counted). Set-up expands the list and builds one engine of the shape,
// as every scenario does first.
func runAU(shape func(sizes) auShape) func(*bench) error {
	return func(b *bench) error {
		sh := shape(b.sz)
		var scs []campaign.Scenario
		release, err := b.setup(func() (func(), error) {
			scs = sh.scenarios(b.seed, b.sz.MaxTrials)
			eng, _, _, err := buildAU(nil, scs[0], auD, intraParallelism(scs[0], b.workers, len(scs)), nil)
			if err != nil {
				return nil, err
			}
			return eng.Close, nil
		})
		release()
		if err != nil {
			return err
		}

		var (
			done       []campaign.Record
			scenarioMS = samples{unit: unitMS}
			perRun     []float64 // activations per second of each scenario
			activated  float64
			busyMS     float64
		)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var start time.Time
		r := campaign.Runner{
			Workers: b.workers, Timing: true, EngineMetrics: true,
			OnRecord: func(rec campaign.Record) {
				if rec.Cancelled() {
					return
				}
				// The first record after the measured time ends the run,
				// so a run always counts at least one scenario.
				if time.Since(start) >= b.seconds {
					cancel()
				}
				b.op(rec.OK, "scenario %d: %s", rec.Scenario, rec.Err)
				scenarioMS.xs = append(scenarioMS.xs, rec.WallMS)
				busyMS += rec.WallMS
				if rec.Engine != nil && rec.WallMS > 0 {
					activated += float64(rec.Engine.Activated)
					perRun = append(perRun, float64(rec.Engine.Activated)/rec.WallMS*1000)
				}
				if b.tr != nil {
					done = append(done, rec)
				}
			},
		}
		start = time.Now()
		_, _ = r.Run(ctx, scs) // ends with the cancellation's error by design
		wall := time.Since(start)

		n := len(scenarioMS.xs)
		perRunRate := samples{unit: unitPerS, xs: perRun}
		b.e2e = append(b.e2e,
			perRunRate.pct("throughput_per_s", 50),
			scenarioMS.pct("latency_ms_p50", 50),
		)
		b.extra = append(b.extra,
			rate("activations_per_s", activated, wall, n),
			scenarioMS.pct("scenario_ms_p90", 90),
			scenarioMS.pct("scenario_ms_p99", 99),
		)
		if b.tr == nil {
			return nil
		}

		b.layer = append(b.layer, value("campaign.worker_idle_share", unitRatio,
			1-busyMS/(inUnit(wall, unitMS)*float64(b.workers)), n))
		items := make([]replayItem, len(done))
		for i, rec := range done {
			items[i] = replayItem{sc: scs[rec.Scenario], want: rec, listLen: len(scs)}
		}
		res := replay(b.tr, b.workers, items, b.seconds/2)
		b.replayChecks(res)
		b.layerMetrics(res.engine, overheadRatio(res))
		return nil
	}
}
