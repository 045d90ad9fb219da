package campaign

import (
	"math/rand"

	"thinunison/internal/asyncsim"
	"thinunison/internal/budget"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mis"
	"thinunison/internal/obs"
	"thinunison/internal/restart"
	"thinunison/internal/sched"
	"thinunison/internal/stats"
	"thinunison/internal/synchronizer"
	"thinunison/internal/syncsim"
)

// Task is one of the synchronous stone age programs of Sec. 3, AlgMIS
// (Theorem 1.4) or AlgLE (Theorem 1.3), for diameter bound D. Stability is
// phrased incrementally: eval is the node-local condition (plus weight) fed
// to a dirty-set syncsim.Checker, and stable the O(1) verdict over the
// checker. Campaign scenarios, the root facade's solvers and experiment E4
// all run MIS and LE through a Task's Sync or Synchronized runs.
type Task[S comparable] struct {
	d      int
	step   syncsim.StepFunc[restart.State[S]]
	random func(*rand.Rand) restart.State[S]
	eval   func(g *graph.Graph, states []restart.State[S], v int) (ok bool, weight int)
	stable func(c *syncsim.Checker) bool
}

// MISTask returns AlgMIS for diameter bound d: stable once every node is
// decided, no IN node has an IN neighbor and every OUT node has one.
func MISTask(d int) (Task[mis.State], error) {
	alg, err := mis.New(mis.Params{D: d})
	if err != nil {
		return Task[mis.State]{}, err
	}
	return Task[mis.State]{
		d:      d,
		step:   alg.Step,
		random: alg.RandomState,
		eval: func(g *graph.Graph, states []restart.State[mis.State], v int) (bool, int) {
			return mis.LocalStable(g, states, v), 0
		},
		stable: func(c *syncsim.Checker) bool { return c.AllOK() },
	}, nil
}

// LETask returns AlgLE for diameter bound d: stable once every node has
// left Restart for the verification stage and exactly one is the leader.
func LETask(d int) (Task[le.State], error) {
	alg, err := le.New(le.Params{D: d})
	if err != nil {
		return Task[le.State]{}, err
	}
	return Task[le.State]{
		d:      d,
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
	}, nil
}

// Sync builds a run of the program under the synchronous schedule, on an
// engine with coin source p (see asyncsim.NewParallel). It draws the initial
// states from rng, then the engine seed from seed. The run's budget is
// budget.Task. Its checker reads the engine's View, sparing a copy per check.
func (t Task[S]) Sync(g *graph.Graph, rng *rand.Rand, seed func() int64, p int) (*TaskRun[S], error) {
	initial := make([]restart.State[S], g.N())
	for v := range initial {
		initial[v] = t.random(rng)
	}
	eng, err := asyncsim.NewParallel(g, t.step, initial, nil, seed(), p)
	if err != nil {
		return nil, err
	}
	chk := syncsim.NewChecker(g, func(v int) (bool, int) {
		return t.eval(g, eng.View(), v)
	})
	return newTaskRun(eng, budget.Task(t.d, g.N()), t.random, chk.Recheck,
		func() bool { return t.stable(chk) }, eng.View), nil
}

// Synchronized builds a run of the program through the Corollary 1.2
// synchronizer under scheduler s (nil means synchronous), drawing every
// coin from the engine's one stream. It draws each node's (Cur, Prev, Turn)
// from rng, then the engine seed from seed. The run's budget is budget.Task
// plus budget.Synchronizer. Stability is checked over the π(Cur) projection
// of the product states, re-projecting only changed nodes.
func (t Task[S]) Synchronized(g *graph.Graph, s sched.Scheduler, rng *rand.Rand, seed func() int64) (*TaskRun[S], error) {
	sy, err := synchronizer.New[restart.State[S]](t.d, t.step)
	if err != nil {
		return nil, err
	}
	random := func(rng *rand.Rand) synchronizer.State[restart.State[S]] {
		return synchronizer.State[restart.State[S]]{
			Cur:  t.random(rng),
			Prev: t.random(rng),
			Turn: rng.Intn(sy.AU().NumStates()),
		}
	}
	initial := make([]synchronizer.State[restart.State[S]], g.N())
	for v := range initial {
		initial[v] = random(rng)
	}
	eng, err := asyncsim.New(g, sy.Step, initial, s, seed())
	if err != nil {
		return nil, err
	}
	prj := syncsim.NewProjected(g, eng.View,
		func(st synchronizer.State[restart.State[S]]) restart.State[S] { return st.Cur },
		func(pi []restart.State[S], v int) (bool, int) { return t.eval(g, pi, v) })
	roundBudget := stats.SatAdd(budget.Task(t.d, g.N()), budget.Synchronizer(t.d))
	return newTaskRun(eng, roundBudget, random, prj.Update,
		func() bool { return t.stable(prj.Checker()) }, prj.States), nil
}

// taskEngine is what a TaskRun reaches of its engine without knowing the
// engine's node-state type.
type taskEngine interface {
	Instrument(mx *obs.Metrics)
	Trace(t *obs.Tracer)
	TraceErr() error
	Steps() int
	Changed() []int
}

// TaskRun is one run of a Task on its own engine, with its round budget and
// its incremental stability check.
type TaskRun[S comparable] struct {
	eng      taskEngine
	budget   int
	runUntil func(cond func() bool, maxRounds int) (int, bool)
	inject   func(count int) []int
	recheck  func(changed []int)
	stable   func() bool
	states   func() []restart.State[S]
}

func newTaskRun[S, E comparable](eng *asyncsim.Engine[E], roundBudget int, random func(*rand.Rand) E,
	recheck func(changed []int), stable func() bool, states func() []restart.State[S]) *TaskRun[S] {
	return &TaskRun[S]{
		eng:    eng,
		budget: roundBudget,
		runUntil: func(cond func() bool, maxRounds int) (int, bool) {
			return eng.RunUntil(func(*asyncsim.Engine[E]) bool { return cond() }, maxRounds)
		},
		inject:  func(count int) []int { return eng.InjectFaults(count, random) },
		recheck: recheck,
		stable:  stable,
		states:  states,
	}
}

// Budget returns the run's round budget for each stabilization phase.
func (r *TaskRun[S]) Budget() int { return r.budget }

// Stable rechecks the nodes the last step changed, with their neighbors,
// and reports whether the task's output is stable.
func (r *TaskRun[S]) Stable() bool {
	r.recheck(r.eng.Changed())
	return r.stable()
}

// RunUntilStable steps the run until Stable holds or the budget is spent,
// returning the rounds taken and whether the output stabilized.
func (r *TaskRun[S]) RunUntilStable() (int, bool) { return r.runUntil(r.Stable, r.budget) }

// States returns the task's node states, the π(Cur) projection when the
// run is synchronized. The slice belongs to the run and is valid until the
// next step.
func (r *TaskRun[S]) States() []restart.State[S] { return r.states() }
