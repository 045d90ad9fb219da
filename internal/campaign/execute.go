package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"thinunison/internal/asyncsim"
	"thinunison/internal/budget"
	"thinunison/internal/core"
	"thinunison/internal/failpoint"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mis"
	"thinunison/internal/obs"
	"thinunison/internal/restart"
	"thinunison/internal/sim"
	"thinunison/internal/stats"
	"thinunison/internal/synchronizer"
	"thinunison/internal/syncsim"
)

// errCancelled marks runs aborted by context cancellation.
var errCancelled = errors.New("campaign: run cancelled")

// errStalled is the cancellation cause installed by the per-scenario
// watchdog; errScenarioTimeout the cause installed by Scenario.Timeout.
// Execute rewrites the generic cancellation error into the specific failure
// when one of these is the cause.
var (
	errStalled         = errors.New("campaign: watchdog stall")
	errScenarioTimeout = errors.New("campaign: scenario timeout")
)

// exactDiameterLimit is the largest node count for which Execute falls back
// to the exact (quadratic) diameter computation when the family's diameter is
// not analytically known; larger graphs use the O(n+m) double-sweep bounds.
const exactDiameterLimit = 512

// Execute runs one scenario to completion and returns its record. It is safe
// to call concurrently for distinct scenarios: every run builds its own
// graph, engine, scheduler and rng from the scenario seed.
//
// Each run executes on one goroutine; parallelism comes from the runner's
// run-level fan-out. Scenario.Parallelism picks only the coin source of the
// MIS/LE engines (per-node streams at or above ShardThreshold nodes by
// default); the AU engine and the synchronized sync-mis/sync-le drivers
// always draw from one shared stream.
//
// AU engines additionally run frontier-sparse by default (settled nodes are
// skipped until their neighborhood changes; see sim.Options.Frontier),
// opted out per scenario via Scenario.Frontier < 0. The mode is
// byte-transparent to records. The MIS/LE drivers stay dense: those
// programs redraw coins every round, so their frontier would never empty.
//
// Execute layers the robustness harness on top of the run itself: a
// per-scenario timeout and watchdog (Scenario.Timeout / Scenario.Watchdog).
// An engine error fails the run. Panic isolation lives one level up, in
// ExecuteIsolated.
func Execute(ctx context.Context, sc Scenario) Record {
	mx := &obs.Metrics{}
	if sc.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, sc.Timeout, errScenarioTimeout)
		defer cancel()
	}
	if sc.Watchdog > 0 {
		wctx, cancel := context.WithCancelCause(ctx)
		defer cancel(nil)
		stop := watchProgress(wctx, cancel, mx, sc.Watchdog)
		defer stop()
		ctx = wctx
	}
	rec := executeOnce(ctx, sc, mx)
	// The run loop only sees a generic cancellation; rewrite it into the
	// specific failure when this guard installed the cause.
	if !rec.OK && rec.Err == errCancelled.Error() {
		switch cause := context.Cause(ctx); {
		case errors.Is(cause, errStalled):
			rec.Err = fmt.Sprintf("%sno step progress within %v", watchdogPrefix, sc.Watchdog)
			if rec.Engine != nil {
				rec.Engine.WatchdogStalls++
			}
		case errors.Is(cause, errScenarioTimeout):
			rec.Err = fmt.Sprintf("campaign: scenario timeout after %v", sc.Timeout)
		}
	}
	return rec
}

// watchProgress starts the stall watchdog: a goroutine sampling the metric
// set every interval and cancelling the run (cause errStalled) after two
// consecutive intervals without step progress — two, so a scenario caught
// mid-setup (graph build, first step) gets a full interval of grace. The
// returned stop func must be called when the run finishes.
func watchProgress(ctx context.Context, cancel context.CancelCauseFunc, mx *obs.Metrics, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		var last uint64
		stale := 0
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				// Any of these advancing means the run is alive: async
				// engines bump Steps, sync engines Steps+Evaluated, fault
				// injection Faults.
				cur := mx.Steps.Load() + mx.Evaluated.Load() + mx.Faults.Load()
				if cur != last {
					last, stale = cur, 0
					continue
				}
				if stale++; stale >= 2 {
					mx.WatchdogStalls.Add(1)
					cancel(errStalled)
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// newRecord stamps a record with the scenario's identity fields; Execute and
// the panic quarantine path both start from it.
func newRecord(sc Scenario) Record {
	return Record{
		Scenario:    sc.Index,
		Family:      string(sc.Family),
		Scheduler:   sc.Scheduler.Name(),
		Algorithm:   string(sc.Algorithm),
		Trial:       sc.Trial,
		Seed:        sc.Seed,
		FaultCount:  sc.Faults.Count,
		FaultBursts: faultBursts(sc.Faults),
		Churn:       sc.Churn.Name(),
		Diameter:    -1,
	}
}

// executeOnce runs the scenario exactly once into mx, with no harness
// wrapping (no timeout, no watchdog, no panic isolation).
func executeOnce(ctx context.Context, sc Scenario, mx *obs.Metrics) Record {
	start := time.Now()
	rec := newRecord(sc)
	if sc.Churn.active() && sc.Algorithm != AlgAU {
		rec.fail(fmt.Errorf("campaign: topology churn requires algorithm %q, got %q", AlgAU, sc.Algorithm))
		return rec
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	g, err := graph.FromFamily(sc.Family, sc.N, sc.D, rng)
	if err != nil {
		rec.fail(fmt.Errorf("build graph: %w", err))
		return rec
	}
	rec.N, rec.M = g.N(), g.M()

	d, diam := diameterParam(sc, g)
	rec.D, rec.Diameter = d, diam

	// Engine telemetry: every run records into the caller's metric set
	// (snapshotted into the record; the Runner strips it unless
	// EngineMetrics — the watchdog also samples it for step progress) and,
	// when the scenario carries an ObsSpec, a sampled step tracer / flight
	// recorder.
	var tracer *obs.Tracer
	if o := sc.Obs; o != nil {
		tracer = obs.NewTracer(o.FlightRing, o.TraceEvery, o.Sink)
		tracer.Tag = int64(sc.Index)
	}

	switch sc.Algorithm {
	case AlgAU:
		runAU(ctx, sc, g, d, rng, &rec, mx, tracer)
	case AlgMIS:
		runSyncTask(ctx, sc, g, d, rng, &rec, misTask(d, &rec), mx, tracer)
	case AlgLE:
		runSyncTask(ctx, sc, g, d, rng, &rec, leTask(d, &rec), mx, tracer)
	case AlgSyncMIS:
		runAsyncTask(ctx, sc, g, d, rng, &rec, misTask(d, &rec), mx, tracer)
	case AlgSyncLE:
		runAsyncTask(ctx, sc, g, d, rng, &rec, leTask(d, &rec), mx, tracer)
	default:
		rec.fail(fmt.Errorf("campaign: unknown algorithm %q", sc.Algorithm))
	}
	snap := mx.Snapshot()
	rec.Engine = &snap
	if o := sc.Obs; o != nil && o.Flight != nil && tracer != nil && (o.FlightAlways || !rec.OK) {
		reason := rec.Err
		if reason == "" {
			reason = "ok"
		}
		_ = tracer.Dump(o.Flight, fmt.Sprintf(
			"scenario=%d algorithm=%s family=%s n=%d seed=%d: %s",
			sc.Index, rec.Algorithm, rec.Family, rec.N, sc.Seed, reason))
	}
	rec.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if rec.Budget > 0 {
		rec.Headroom = float64(rec.Budget-rec.Rounds) / float64(rec.Budget)
	}
	return rec
}

// diameterParam resolves the algorithm's diameter parameter D (which must
// dominate the graph's diameter) and the recorded diameter (-1 when only
// bounds are known). Analytically known family diameters keep 10^5-node
// scenarios free of the quadratic all-pairs computation.
func diameterParam(sc Scenario, g *graph.Graph) (d, diam int) {
	if known, ok := graph.KnownDiameter(sc.Family, g.N(), sc.D); ok {
		diam = known
	} else if g.N() <= exactDiameterLimit {
		diam = g.Diameter()
	} else {
		_, upper := g.DiameterBounds()
		d = upper
		diam = -1
	}
	if diam > d {
		d = diam
	}
	if sc.D > d {
		d = sc.D
	}
	if d < 1 {
		d = 1
	}
	return d, diam
}

func faultBursts(f FaultSpec) int {
	if f.Count <= 0 {
		return 0
	}
	if f.Bursts <= 0 {
		return 1
	}
	return f.Bursts
}

// pollStride is the node count above which pollingCond checks the context on
// every poll instead of every 128th. The cond is evaluated once per engine
// step, so the stride converts directly into cancel latency in steps: at
// n = 1e5 a 128-step stride is ~10^7 node updates of dead work after a
// daemon cancel, while the ctx.Err() load is noise next to a single large-n
// step. Small scenarios keep the sparse check — there a step costs tens of
// nanoseconds and 128 steps of latency is still instant.
const pollStride = 4096

// pollingCond wraps a stabilization predicate with a periodic context check,
// so long runs abort promptly on cancellation: within one step boundary for
// scenarios of pollStride nodes or more, within 128 steps below. The flag
// records whether the wrapped predicate fired because of cancellation rather
// than stabilization. n is the scenario's node count.
//
// The campaign/poll failpoint site lives here rather than inside the engine
// step: the poll layer has the run context, so an injected stall blocks
// interruptibly and the watchdog (or a timeout) can cut it short.
func pollingCond(ctx context.Context, cancelled *bool, n int, inner func() bool) func() bool {
	mask := 127
	if n >= pollStride {
		mask = 0
	}
	calls := 0
	return func() bool {
		calls++
		if calls&mask == 0 && ctx.Err() != nil {
			*cancelled = true
			return true
		}
		if failpoint.Armed() {
			if f := failpoint.Eval(failpoint.CampaignPoll); f.Kind == failpoint.FailStall {
				f.Wait(ctx)
				if ctx.Err() != nil {
					*cancelled = true
					return true
				}
			}
		}
		return inner()
	}
}

// asyncTaskBudget adds the synchronizer's stabilization allowance to the
// synchronous task budget.
func asyncTaskBudget(d, n int) int {
	return stats.SatAdd(budget.Task(d, n), budget.Synchronizer(d))
}

// churnDiameterMargin sizes the AU clock of a churn scenario: the algorithm
// parameter is doubled so the guarded topology drift (the double-sweep
// upper bound is held within 2d, and the double sweep never under-reports
// the true diameter) stays inside the graph class the clock is built for —
// Theorem 1.1 needs k >= 3·diam + 2 at every point of the run.
func churnDiameterMargin(d int) int { return 2 * d }

// runAU drives AlgAU (the pulse clock itself) under the scenario's scheduler
// and optional topology churn, then injects and recovers from fault bursts.
func runAU(ctx context.Context, sc Scenario, g *graph.Graph, d int, rng *rand.Rand, rec *Record, mx *obs.Metrics, tracer *obs.Tracer) {
	var churn *sim.ChurnSpec
	if sc.Churn.active() {
		d = churnDiameterMargin(d)
		rec.D = d
		churn = &sim.ChurnSpec{
			Period:           sc.Churn.Period,
			Flips:            sc.Churn.Flips,
			Crashes:          sc.Churn.Crash,
			MaxEvents:        sc.Churn.Events,
			Seed:             rng.Int63(),
			KeepConnected:    true,
			MaxDiameterUpper: d,
		}
	}
	au, err := core.NewAU(d)
	if err != nil {
		rec.fail(err)
		return
	}
	scheduler, err := sc.Scheduler.Build(rng.Int63())
	if err != nil {
		rec.fail(err)
		return
	}
	eng, err := sim.New(g, au, sim.Options{
		Scheduler:    scheduler,
		Seed:         rng.Int63(),
		Frontier:     sc.frontierEnabled(),
		WordParallel: sc.WordParallel,
		Churn:        churn,
		Metrics:      mx,
		Trace:        tracer,
	})
	if err != nil {
		rec.fail(err)
		return
	}
	roundBudget := budget.AU(au.K())
	rec.Budget = roundBudget
	defer func() {
		rec.ChurnOps, rec.ChurnSkipped = eng.ChurnOps(), eng.ChurnSkipped()
	}()

	// Incremental stabilization check: the engine streams node state changes
	// (steps and fault injections alike) into the monitor, so the per-step
	// predicate is O(1) instead of a full O(n·Δ) GraphGood rescan.
	mon := core.NewGoodMonitor(au, g, eng.Config())
	mon.Instrument(mx)
	eng.Observe(mon)
	if tracer != nil {
		// Enrichment runs only on sink-sampled steps: BadNodesFast is O(P)
		// once the monitor has left its deferred regime (-1 before that),
		// and the clock-spread scan is O(n) but amortized by the sampling
		// interval.
		tracer.Enrich = func(s obs.Sample) obs.Sample {
			s.Violations = int64(mon.BadNodesFast())
			s.ClockSpread = int64(au.ClockSpread(eng.Config()))
			return s
		}
	}
	cancelled := false
	oracleBad := false
	verdict := mon.Good
	if sc.MonitorOracle {
		// Differential-guard mode: every poll cross-checks the incremental
		// verdict against the full scan; a divergence aborts the run loudly.
		verdict = func() bool {
			got := mon.Good()
			if got != au.GraphGood(g, eng.Config()) {
				oracleBad = true
				return true
			}
			return got
		}
	}
	good := pollingCond(ctx, &cancelled, sc.N, verdict)
	failOracle := func() bool {
		if oracleBad {
			rec.OK = false
			rec.fail(errors.New("campaign: GoodMonitor verdict diverged from the full-scan oracle"))
		}
		return oracleBad
	}
	// soakAbort ends a steady-state stretch early: on cancellation, or — in
	// oracle mode — on a monitor/full-scan divergence, so churn events that
	// land inside a soak are cross-checked too, not just the polls of the
	// stabilization and recovery phases.
	soakAbort := func() bool {
		if sc.MonitorOracle && mon.Good() != au.GraphGood(g, eng.Config()) {
			oracleBad = true
			return true
		}
		return false
	}
	// soak runs the scenario's steady-state stretch (FaultSpec.SoakRounds):
	// quiescent rounds between fault events, abortable via the polling
	// cancellation cond. ErrBudgetExhausted is the normal outcome — the
	// "budget" here is exactly the stretch length.
	abort := pollingCond(ctx, &cancelled, sc.N, soakAbort)
	var soakErr error
	soak := func() bool {
		if sc.Faults.SoakRounds <= 0 {
			return true
		}
		_, err := eng.RunUntil(func(*sim.Engine) bool { return abort() }, sc.Faults.SoakRounds)
		rec.Steps = eng.StepCount()
		if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
			// A real engine failure inside the soak (churn, hook, injected
			// fault) must surface as itself, not as a cancellation.
			soakErr = err
			return false
		}
		return errors.Is(err, sim.ErrBudgetExhausted) && !cancelled && !oracleBad
	}
	failSoak := func() {
		if soakErr != nil {
			rec.fail(soakErr)
		} else {
			rec.fail(errCancelled)
		}
	}
	rounds, err := eng.RunUntil(func(*sim.Engine) bool { return good() }, roundBudget)
	rec.Rounds, rec.Steps = rounds, eng.StepCount()
	if failOracle() {
		return
	}
	if cancelled {
		rec.fail(errCancelled)
		return
	}
	if err != nil {
		if errors.Is(err, sim.ErrBudgetExhausted) {
			err = fmt.Errorf("AU did not stabilize within %d rounds", roundBudget)
		}
		rec.fail(err)
		return
	}
	rec.OK = true
	if !soak() {
		if failOracle() {
			return
		}
		failSoak()
		return
	}

	for burst := 0; burst < faultBursts(sc.Faults); burst++ {
		eng.InjectFaults(sc.Faults.Count)
		recovery, err := eng.RunUntil(func(*sim.Engine) bool { return good() }, roundBudget)
		rec.Steps = eng.StepCount()
		if recovery > rec.RecoveryRounds {
			rec.RecoveryRounds = recovery
		}
		if failOracle() {
			return
		}
		if cancelled {
			rec.fail(errCancelled)
			return
		}
		if err != nil {
			if errors.Is(err, sim.ErrBudgetExhausted) {
				err = fmt.Errorf("AU did not recover from burst %d within %d rounds", burst, roundBudget)
			}
			rec.fail(err)
			return
		}
		if !soak() {
			if failOracle() {
				return
			}
			failSoak()
			return
		}
	}
}

// task bundles the algorithm-specific pieces of a synchronous stone age
// program (AlgMIS/AlgLE) so the synchronous and synchronized drivers can be
// written once. Stability is phrased incrementally: eval is the node-local
// condition (plus weight) fed to a dirty-set syncsim.Checker, and stable the
// O(1) verdict over the checker.
type task[S comparable] struct {
	step   syncsim.StepFunc[restart.State[S]]
	random func(*rand.Rand) restart.State[S]
	eval   func(g *graph.Graph, states []restart.State[S], v int) (ok bool, weight int)
	stable func(c *syncsim.Checker) bool
}

func misTask(d int, rec *Record) task[mis.State] {
	alg, err := mis.New(mis.Params{D: d})
	if err != nil {
		rec.fail(err)
		return task[mis.State]{}
	}
	return task[mis.State]{
		step:   alg.Step,
		random: alg.RandomState,
		eval: func(g *graph.Graph, states []restart.State[mis.State], v int) (bool, int) {
			return mis.LocalStable(g, states, v), 0
		},
		stable: func(c *syncsim.Checker) bool { return c.AllOK() },
	}
}

func leTask(d int, rec *Record) task[le.State] {
	alg, err := le.New(le.Params{D: d})
	if err != nil {
		rec.fail(err)
		return task[le.State]{}
	}
	return task[le.State]{
		step:   alg.Step,
		random: alg.RandomState,
		eval: func(_ *graph.Graph, states []restart.State[le.State], v int) (bool, int) {
			ok, leader := le.LocalStable(states[v])
			w := 0
			if leader {
				w = 1
			}
			return ok, w
		},
		stable: func(c *syncsim.Checker) bool { return c.AllOK() && c.Sum() == 1 },
	}
}

// runSyncTask drives a synchronous program (plain AlgMIS/AlgLE) under the
// synchronous schedule, with the scenario's coin source (Scenario.Parallelism).
func runSyncTask[S comparable](ctx context.Context, sc Scenario, g *graph.Graph, d int, rng *rand.Rand, rec *Record, t task[S], mx *obs.Metrics, tracer *obs.Tracer) {
	if t.step == nil {
		return // constructor already failed the record
	}
	if !sc.Scheduler.IsSynchronous() {
		rec.fail(fmt.Errorf("campaign: algorithm %q requires the synchronous scheduler (use the sync-* variant)", sc.Algorithm))
		return
	}
	initial := make([]restart.State[S], g.N())
	for v := range initial {
		initial[v] = t.random(rng)
	}
	eng, err := asyncsim.NewParallel(g, t.step, initial, nil, rng.Int63(), sc.coinSource())
	if err != nil {
		rec.fail(err)
		return
	}
	// Dirty-set stability: after each round only the changed nodes and their
	// neighbors are rechecked; the verdict itself is O(1). The engine's View
	// avoids the per-check configuration copy.
	chk := syncsim.NewChecker(g, func(v int) (bool, int) {
		return t.eval(g, eng.View(), v)
	})
	driveTask(ctx, sc, rec, eng, mx, tracer, budget.Task(d, g.N()),
		chk.Recheck, func() bool { return t.stable(chk) }, t.random)
}

// runAsyncTask drives a synchronous program through the Corollary 1.2
// synchronizer under the scenario's (arbitrary) scheduler.
func runAsyncTask[S comparable](ctx context.Context, sc Scenario, g *graph.Graph, d int, rng *rand.Rand, rec *Record, t task[S], mx *obs.Metrics, tracer *obs.Tracer) {
	if t.step == nil {
		return // constructor already failed the record
	}
	sy, err := synchronizer.New[restart.State[S]](d, t.step)
	if err != nil {
		rec.fail(err)
		return
	}
	scheduler, err := sc.Scheduler.Build(rng.Int63())
	if err != nil {
		rec.fail(err)
		return
	}
	randomState := func(rng *rand.Rand) synchronizer.State[restart.State[S]] {
		return synchronizer.State[restart.State[S]]{
			Cur:  t.random(rng),
			Prev: t.random(rng),
			Turn: rng.Intn(sy.AU().NumStates()),
		}
	}
	initial := make([]synchronizer.State[restart.State[S]], g.N())
	for v := range initial {
		initial[v] = randomState(rng)
	}
	eng, err := asyncsim.New(g, sy.Step, initial, scheduler, rng.Int63())
	if err != nil {
		rec.fail(err)
		return
	}
	// Dirty-set stability over the π(Cur) projection of the synchronizer
	// product states; only changed nodes are re-projected and rechecked, so
	// the per-step check allocates nothing.
	prj := syncsim.NewProjected(g, eng.View,
		func(st synchronizer.State[restart.State[S]]) restart.State[S] { return st.Cur },
		func(pi []restart.State[S], v int) (bool, int) { return t.eval(g, pi, v) })
	driveTask(ctx, sc, rec, eng, mx, tracer, asyncTaskBudget(d, g.N()),
		prj.Update, func() bool { return t.stable(prj.Checker()) }, randomState)
}

// driveTask is the loop both task drivers share: step eng until the task is
// stable, then through each of the scenario's fault bursts until it is
// stable again, each phase within roundBudget rounds. recheck feeds a dirty
// set to the stability state — the engine's Changed after a step, the
// victims after a burst — and stable reads its O(1) verdict; random draws
// a corrupted state.
func driveTask[S comparable](ctx context.Context, sc Scenario, rec *Record, eng *asyncsim.Engine[S], mx *obs.Metrics, tracer *obs.Tracer,
	roundBudget int, recheck func(changed []int), stable func() bool, random func(*rand.Rand) S) {
	eng.Instrument(mx)
	eng.Trace(tracer)
	// Sink errors in the engine are sticky, not propagated through the run
	// loop; surface the first one on the record at exit.
	defer func() {
		if err := eng.TraceErr(); err != nil {
			rec.fail(err)
		}
	}()
	rec.Budget = roundBudget
	cancelled := false
	poll := pollingCond(ctx, &cancelled, sc.N, func() bool {
		recheck(eng.Changed())
		return stable()
	})
	until := func(*asyncsim.Engine[S]) bool { return poll() }
	rounds, ok := eng.RunUntil(until, roundBudget)
	rec.Rounds, rec.Steps = rounds, eng.Steps()
	if cancelled {
		rec.fail(errCancelled)
		return
	}
	if !ok {
		rec.fail(fmt.Errorf("%s did not stabilize within %d rounds", sc.Algorithm, roundBudget))
		return
	}
	rec.OK = true

	for burst := 0; burst < faultBursts(sc.Faults); burst++ {
		recheck(eng.InjectFaults(sc.Faults.Count, random))
		recovery, ok := eng.RunUntil(until, roundBudget)
		rec.Steps = eng.Steps()
		if recovery > rec.RecoveryRounds {
			rec.RecoveryRounds = recovery
		}
		if cancelled {
			rec.fail(errCancelled)
			return
		}
		if !ok {
			rec.fail(fmt.Errorf("%s did not recover from burst %d within %d rounds", sc.Algorithm, burst, roundBudget))
			return
		}
	}
}
