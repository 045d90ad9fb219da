package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"thinunison/internal/budget"
	"thinunison/internal/campaign"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sim"
)

// outcome is the part of a record the traced AU driver must reproduce.
type outcome struct {
	Rounds, Steps, RecoveryRounds int
	OK                            bool
}

func outcomeOf(r campaign.Record) outcome {
	return outcome{Rounds: r.Rounds, Steps: r.Steps, RecoveryRounds: r.RecoveryRounds, OK: r.OK}
}

// intraParallelism mirrors the Runner's intra-run parallelism for a
// scenario dispatched in a list of listLen scenarios on workers workers, so
// a replay runs the engine mode its record was produced in.
func intraParallelism(sc campaign.Scenario, workers, listLen int) int {
	switch {
	case sc.Parallelism > 0:
		return sc.Parallelism
	case sc.Parallelism < 0 || sc.N < campaign.ShardThreshold:
		return 0
	}
	p := 1
	if listLen > 0 && workers > listLen {
		p = workers / listLen
	}
	return min(p, 8)
}

// buildAU builds an AlgAU scenario's graph, AU, scheduler, engine and
// GoodMonitor through the public API, in the order and with the rng draws
// of campaign.Execute, timing each on lane l. d is the algorithm parameter
// (the record's D). The caller closes the engine.
func buildAU(l *lane, sc campaign.Scenario, d, parallelism int, mx *obs.Metrics) (*sim.Engine, *core.AU, *core.GoodMonitor, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	l.begin("graph.build")
	g, err := graph.FromFamily(sc.Family, sc.N, sc.D, rng)
	l.end()
	if err != nil {
		return nil, nil, nil, err
	}
	var churn *sim.ChurnSpec
	if sc.Churn.Name() != "" {
		churn = &sim.ChurnSpec{
			Period: sc.Churn.Period, Flips: sc.Churn.Flips, Crashes: sc.Churn.Crash,
			MaxEvents: sc.Churn.Events, Seed: rng.Int63(),
			KeepConnected: true, MaxDiameterUpper: d,
		}
	}
	l.begin("core.new_au")
	au, err := core.NewAU(d)
	l.end()
	if err != nil {
		return nil, nil, nil, err
	}
	l.begin("sched.build")
	scheduler, err := sc.Scheduler.Build(rng.Int63())
	l.end()
	if err != nil {
		return nil, nil, nil, err
	}
	l.begin("sim.new")
	eng, err := sim.New(g, au, sim.Options{
		Scheduler:    scheduler,
		Seed:         rng.Int63(),
		Parallelism:  parallelism,
		Frontier:     sc.Frontier >= 0,
		WordParallel: sc.WordParallel,
		Churn:        churn,
		Metrics:      mx,
	})
	l.end()
	if err != nil {
		return nil, nil, nil, err
	}
	l.begin("core.monitor_new")
	mon := core.NewGoodMonitor(au, g, eng.Config())
	mon.Instrument(mx)
	eng.Observe(mon)
	l.end()
	return eng, au, mon, nil
}

// replayAU re-executes an AlgAU scenario as campaign.Execute does, with
// each layer call timed on lane l: buildAU, then stabilization, soak and
// fault bursts. Steps and verdicts are timed by lane.timedCond, which splits
// the run loop between sim and core.
func replayAU(l *lane, sc campaign.Scenario, d, parallelism int, mx *obs.Metrics) (outcome, error) {
	var out outcome
	eng, au, mon, err := buildAU(l, sc, d, parallelism, mx)
	if err != nil {
		return out, err
	}
	defer eng.Close()
	roundBudget := budget.AU(au.K())
	run := func(name string, verdict func() bool, rounds int) (int, error) {
		l.begin(name)
		defer l.end()
		return eng.RunUntil(l.timedCond(verdict), rounds)
	}
	soak := func() error {
		if sc.Faults.SoakRounds <= 0 {
			return nil
		}
		_, err := run("sim.soak", nil, sc.Faults.SoakRounds)
		if !errors.Is(err, sim.ErrBudgetExhausted) {
			return fmt.Errorf("soak ended early: %v", err)
		}
		return nil
	}

	out.Rounds, err = run("sim.stabilize", mon.Good, roundBudget)
	out.Steps = eng.StepCount()
	if err != nil {
		return out, nil
	}
	out.OK = true
	if err := soak(); err != nil {
		out.OK = false
		return out, err
	}
	bursts := sc.Faults.Bursts
	if sc.Faults.Count > 0 && bursts <= 0 {
		bursts = 1
	}
	for burst := 0; sc.Faults.Count > 0 && burst < bursts; burst++ {
		l.begin("sim.inject_faults")
		eng.InjectFaults(sc.Faults.Count)
		l.end()
		rec, err := run("sim.recover", mon.Good, roundBudget)
		out.Steps = eng.StepCount()
		out.RecoveryRounds = max(out.RecoveryRounds, rec)
		if err != nil {
			out.OK = false
			return out, nil
		}
		if err := soak(); err != nil {
			out.OK = false
			return out, err
		}
	}
	out.Steps = eng.StepCount()
	return out, nil
}

// replayItem is one scenario of a traced replay with the record its
// untraced run produced.
type replayItem struct {
	sc      campaign.Scenario
	want    campaign.Record
	listLen int // length of the scenario list it was dispatched in
}

// replayResult sums a traced replay.
type replayResult struct {
	items      int
	traced     time.Duration // Σ traced per-scenario time
	untraced   time.Duration // Σ untraced WallMS of the same scenarios
	engine     obs.Snapshot  // Σ engine counters of the AU replays
	mismatches []string
}

// replay re-runs items on workers goroutines under the tracer until budget
// has elapsed (at least one item per worker runs), last item first: the
// untraced run's first scenarios paid its heap growth, its last ones ran
// warm like the replay. AU scenarios go through replayAU and must
// reproduce their records' Rounds, Steps and RecoveryRounds exactly; other
// algorithms run through campaign.Execute inside one opaque span. Every
// record is also encoded, as the Runner's stream does.
func replay(tr *tracer, workers int, items []replayItem, budget time.Duration) replayResult {
	items = slices.Clone(items)
	slices.Reverse(items)
	var (
		mu   sync.Mutex
		res  replayResult
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	take := func(started int) (replayItem, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(items) || (started > 0 && time.Since(start) >= budget) {
			return replayItem{}, false
		}
		next++
		return items[next-1], true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			l := tr.lane(0)
			defer l.close()
			for n := 0; ; n++ {
				it, ok := take(n)
				if !ok {
					return
				}
				l.run = int64(it.sc.Index)
				mx := &obs.Metrics{}
				t := time.Now()
				l.begin("campaign.scenario")
				var got outcome
				var err error
				rec := it.want
				if it.sc.Algorithm == campaign.AlgAU {
					got, err = replayAU(l, it.sc, it.want.D, intraParallelism(it.sc, workers, it.listLen), mx)
				} else {
					l.begin("campaign.execute")
					rec = campaign.Execute(context.Background(), it.sc)
					l.end()
					got = outcomeOf(rec)
				}
				l.begin("campaign.encode")
				var buf bytes.Buffer
				encErr := campaign.AppendJSONL(&buf, rec)
				l.end()
				l.end()
				d := time.Since(t)

				mu.Lock()
				res.items++
				res.traced += d
				res.untraced += time.Duration(it.want.WallMS * float64(time.Millisecond))
				addSnapshot(&res.engine, mx.Snapshot())
				switch {
				case err != nil:
					res.mismatches = append(res.mismatches, fmt.Sprintf("scenario %d: replay: %v", it.sc.Index, err))
				case encErr != nil:
					res.mismatches = append(res.mismatches, fmt.Sprintf("scenario %d: encode: %v", it.sc.Index, encErr))
				case got != outcomeOf(it.want):
					res.mismatches = append(res.mismatches, fmt.Sprintf("scenario %d: traced replay %+v, untraced record %+v", it.sc.Index, got, outcomeOf(it.want)))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// addSnapshot accumulates s into acc.
func addSnapshot(acc *obs.Snapshot, s obs.Snapshot) {
	var m obs.Metrics
	m.Add(*acc)
	m.Add(s)
	*acc = m.Snapshot()
}
