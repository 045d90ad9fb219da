package sim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/randx"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// refStepper is the dense scalar reference: the paper's step rule written
// out directly, sharing no code with the engine's step loop. One rng draws
// the initial configuration and then every coin, in ascending node order —
// or, with per-node coins, node v's coins at step t come from a stream
// seeded by randx.NodeSeed(seed, t, v); signals come straight from
// g.Neighbors; all updates apply after every activated node has read C_t,
// in ascending order.
type refStepper struct {
	g       *graph.Graph
	alg     sa.Algorithm
	sched   sched.Scheduler
	rng     *rand.Rand
	seed    int64
	seq     *randx.Seq // per-node coin stream; nil draws from rng
	cfg     sa.Config
	step    int
	rounds  int
	seen    []bool // nodes activated in the current round
	unseen  int
	applied []int // every node whose state changed, in delivery order
}

func newRefStepper(g *graph.Graph, alg sa.Algorithm, s sched.Scheduler, seed int64) *refStepper {
	r := &refStepper{g: g, alg: alg, sched: s, rng: rand.New(rand.NewSource(seed)), seed: seed,
		cfg: make(sa.Config, g.N()), seen: make([]bool, g.N()), unseen: g.N()}
	for v := range r.cfg {
		r.cfg[v] = r.rng.Intn(alg.NumStates())
	}
	return r
}

func (r *refStepper) Step() {
	n := r.g.N()
	active := make([]bool, n)
	for _, v := range r.sched.Activations(r.step, n) {
		active[v] = true
	}
	next := r.cfg.Clone()
	for v := 0; v < n; v++ {
		if !active[v] {
			continue
		}
		sig := sa.NewSignal(r.alg.NumStates())
		sig.Set(r.cfg[v])
		for _, u := range r.g.Neighbors(v) {
			sig.Set(r.cfg[u])
		}
		rng := r.rng
		if r.seq != nil {
			r.seq.Reseed(randx.NodeSeed(r.seed, r.step, v))
			rng = rand.New(r.seq)
		}
		next[v] = r.alg.Transition(r.cfg[v], sig, rng)
		if !r.seen[v] {
			r.seen[v], r.unseen = true, r.unseen-1
		}
	}
	for v := 0; v < n; v++ {
		if next[v] != r.cfg[v] {
			r.cfg[v] = next[v]
			r.applied = append(r.applied, v)
		}
	}
	if r.unseen == 0 { // every node activated since the round began: ϱ reached
		r.rounds++
		r.seen, r.unseen = make([]bool, n), n
	}
	r.step++
}

// SetState mirrors Engine.SetState: a transient fault, delivered in call order.
func (r *refStepper) SetState(v int, q sa.State) {
	r.cfg[v] = q
	r.applied = append(r.applied, v)
}

// refSchedulers are the lattice's schedulers, fresh per call and seeded
// identically so the reference and every engine see the same A_t stream.
func refSchedulers() map[string]func() sched.Scheduler {
	return map[string]func() sched.Scheduler{
		"synchronous":   func() sched.Scheduler { return sched.NewSynchronous() },
		"round-robin":   func() sched.Scheduler { return sched.NewRoundRobin() },
		"laggard":       func() sched.Scheduler { return sched.NewLaggard(1, 3) },
		"random-subset": func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.4, 8, 17) },
	}
}

// latticeFaults is the mid-run fault burst every run suffers: fixed
// (node, state) pairs applied through SetState on both sides.
func latticeFaults(n, numStates int) [][2]int {
	rng := rand.New(rand.NewSource(5))
	out := make([][2]int, 4)
	for i := range out {
		out[i] = [2]int{rng.Intn(n), rng.Intn(numStates)}
	}
	return out
}

// cellTrace is what a lattice run is compared on: per-step configuration
// and round count, plus the observer's delivery sequence.
type cellTrace struct {
	steps   []string
	applied []int
}

// traceEngine drives an engine for steps steps with the fault burst at the
// halfway point, recording its trajectory and (when rec is non-nil) the
// deliveries of its plain observer.
func traceEngine(t *testing.T, e *sim.Engine, rec *applyRecorder, steps int) cellTrace {
	t.Helper()
	var tr cellTrace
	for i := 0; i < steps; i++ {
		if i == steps/2 {
			for _, f := range latticeFaults(e.Graph().N(), e.Algorithm().NumStates()) {
				if err := e.SetState(f[0], f[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		tr.steps = append(tr.steps, fmt.Sprintf("%v r%d", e.Config(), e.Rounds()))
	}
	if rec != nil {
		tr.applied = rec.applies
	}
	return tr
}

func traceRef(r *refStepper, steps int) cellTrace {
	var tr cellTrace
	for i := 0; i < steps; i++ {
		if i == steps/2 {
			for _, f := range latticeFaults(r.g.N(), r.alg.NumStates()) {
				r.SetState(f[0], f[1])
			}
		}
		r.Step()
		tr.steps = append(tr.steps, fmt.Sprintf("%v r%d", r.cfg, r.rounds))
	}
	tr.applied = r.applied
	return tr
}

// compareTraces fails on the first step (or delivery) where got leaves want.
func compareTraces(t *testing.T, name string, want, got cellTrace, deliveries bool) {
	t.Helper()
	for i := range want.steps {
		if want.steps[i] != got.steps[i] {
			t.Fatalf("%s: step %d diverged from the reference:\nwant %s\ngot  %s", name, i, want.steps[i], got.steps[i])
		}
	}
	if deliveries && fmt.Sprint(want.applied) != fmt.Sprint(got.applied) {
		t.Fatalf("%s: observer deliveries diverged from the reference:\nwant %v\ngot  %v", name, want.applied, got.applied)
	}
}

// latticeGraphs are the lattice's topologies: a small-diameter random graph
// and a grid.
func latticeGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	bounded, err := graph.BoundedDiameter(48, 3, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.Grid(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"bounded": bounded, "grid": grid}
}

// TestLatticeMatchesReference runs the step loop in every cell of
// {P ∈ 0,1,8} × {dense, frontier} × {scalar, word} × {synchronous,
// round-robin, laggard, seeded random-subset} against the reference stepper:
// per-step configurations and round counts must match, and a plain
// observer's delivery sequence must too. AlgAU draws no coins, so every
// coin source matches the one reference. Each cell runs three times — with
// no observer, with a plain recording observer, and with a core.GoodMonitor
// (on word cells, batched applies), whose verdict is checked against a
// rescan.
func TestLatticeMatchesReference(t *testing.T) {
	const steps, seed = 60, 31
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for gname, g := range latticeGraphs(t) {
		for sname, mk := range refSchedulers() {
			sname := gname + "/" + sname
			want := traceRef(newRefStepper(g, au, mk(), seed), steps)
			for _, p := range []int{0, 1, 8} {
				for _, front := range []bool{false, true} {
					for _, word := range []bool{false, true} {
						for _, observer := range []string{"none", "plain", "monitor"} {
							name := fmt.Sprintf("%s/p=%d/frontier=%v/word=%v/obs=%s", sname, p, front, word, observer)
							e, err := sim.New(g, au, sim.Options{Scheduler: mk(), Seed: seed,
								Parallelism: p, Frontier: front, WordParallel: word})
							if err != nil {
								t.Fatal(err)
							}
							var rec *applyRecorder
							var mon *core.GoodMonitor
							switch observer {
							case "plain":
								rec = &applyRecorder{}
								e.Observe(rec)
							case "monitor":
								mon = core.NewGoodMonitor(au, g, e.Config())
								e.Observe(mon)
							}
							got := traceEngine(t, e, rec, steps)
							if mon != nil && mon.Good() != au.GraphGood(g, e.Config()) {
								t.Fatalf("%s: monitor verdict %v disagrees with a rescan", name, mon.Good())
							}
							compareTraces(t, name, want, got, rec != nil)
						}
					}
				}
			}
		}
	}
}

// TestRandomizedMatchesReference scores the coin-source plug over its whole
// axis: a coin-hungry algorithm draws from the shared rng in ascending
// activation order at P = 0 and from per-(step, node) streams at P = 1 and
// P = 8, exactly as the reference with the matching source does, in every
// mode the algorithm admits (it has neither a self-loop certificate nor a
// word kernel, so frontier and word requests fall back to the dense scalar
// evaluator).
func TestRandomizedMatchesReference(t *testing.T) {
	const steps, seed = 60, 23
	g, err := graph.BoundedDiameter(40, 3, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	alg := randomizedAlg{}
	for sname, mk := range refSchedulers() {
		for _, p := range []int{0, 1, 8} {
			ref := newRefStepper(g, alg, mk(), seed)
			if p >= 1 {
				ref.seq = &randx.Seq{}
			}
			want := traceRef(ref, steps)
			for _, front := range []bool{false, true} {
				for _, word := range []bool{false, true} {
					name := fmt.Sprintf("%s/p=%d/frontier=%v/word=%v", sname, p, front, word)
					e, err := sim.New(g, alg, sim.Options{Scheduler: mk(), Seed: seed, Parallelism: p,
						Frontier: front, WordParallel: word})
					if err != nil {
						t.Fatal(err)
					}
					rec := &applyRecorder{}
					e.Observe(rec)
					compareTraces(t, name, want, traceEngine(t, e, rec, steps), true)
				}
			}
		}
	}
}

// TestChurnLatticeMatchesDenseScalar extends the lattice to topology churn,
// which the reference does not model: every cell runs the same stochastic
// churn process and must match the churn-enabled P = 0 dense scalar cell of
// the same seed step for step — configurations, rounds and the churned edge
// count.
func TestChurnLatticeMatchesDenseScalar(t *testing.T) {
	const steps, seed = 60, 29
	g0, err := graph.BoundedDiameter(48, 3, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	spec := &sim.ChurnSpec{Period: 4, Flips: 3, Crashes: 1, MaxEvents: 10, Seed: 7,
		KeepConnected: true, MaxDiameterUpper: 3}
	run := func(mk func() sched.Scheduler, p int, front, word bool) cellTrace {
		g, err := graph.New(g0.N(), g0.Edges()) // churn mutates its own copy
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(g, au, sim.Options{Scheduler: mk(), Seed: seed, Parallelism: p,
			Frontier: front, WordParallel: word, Churn: spec})
		if err != nil {
			t.Fatal(err)
		}
		tr := traceEngine(t, e, nil, steps)
		tr.steps = append(tr.steps, fmt.Sprintf("m=%d churn=%d", g.M(), e.ChurnOps()))
		return tr
	}
	for sname, mk := range refSchedulers() {
		want := run(mk, 0, false, false)
		if last := want.steps[len(want.steps)-1]; strings.HasSuffix(last, " churn=0") {
			t.Fatalf("%s: the reference churn cell never churned (%s)", sname, last)
		}
		for _, p := range []int{0, 1, 8} {
			for _, front := range []bool{false, true} {
				for _, word := range []bool{false, true} {
					name := fmt.Sprintf("churn/%s/p=%d/frontier=%v/word=%v", sname, p, front, word)
					compareTraces(t, name, want, run(mk, p, front, word), false)
				}
			}
		}
	}
}
