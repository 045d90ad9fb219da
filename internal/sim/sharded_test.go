package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// shardedSchedulers returns fresh scheduler instances per call (schedulers
// are stateful), each built from the same seed so two engines see identical
// activation streams.
func shardedSchedulers(seed int64) map[string]func() sched.Scheduler {
	return map[string]func() sched.Scheduler{
		"synchronous":   func() sched.Scheduler { return sched.NewSynchronous() },
		"round-robin":   func() sched.Scheduler { return sched.NewRoundRobin() },
		"random-subset": func() sched.Scheduler { return sched.NewRandomSubset(0.4, 8, rand.New(rand.NewSource(seed))) },
		"laggard":       func() sched.Scheduler { return sched.NewLaggard(1, 3) },
		"permuted":      func() sched.Scheduler { return sched.NewPermutedSeeded(seed) },
	}
}

func shardedTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	gs := map[string]*graph.Graph{}
	var err error
	if gs["cycle"], err = graph.Cycle(40); err != nil {
		t.Fatal(err)
	}
	if gs["star"], err = graph.Star(33); err != nil {
		t.Fatal(err)
	}
	if gs["grid"], err = graph.Grid(6, 6); err != nil {
		t.Fatal(err)
	}
	if gs["boundedD"], err = graph.BoundedDiameter(80, 3, rng); err != nil {
		t.Fatal(err)
	}
	return gs
}

// TestShardedAUMatchesSequential pins that Parallelism is ignored for
// AlgAU: for every graph family and scheduler, an engine built with
// P ∈ {1, 2, 3, 8} must track the P = 0 engine configuration-for-
// configuration through steps and fault bursts.
func TestShardedAUMatchesSequential(t *testing.T) {
	const seed = 42
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for gname, g := range shardedTestGraphs(t) {
		for sname, mk := range shardedSchedulers(seed) {
			ref, err := sim.New(g, au, sim.Options{Scheduler: mk(), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			engines := []*sim.Engine{ref}
			for _, p := range []int{1, 2, 3, 8} {
				e, err := sim.New(g, au, sim.Options{Scheduler: mk(), Seed: seed, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, e)
			}
			steps := 6 * g.N()
			for i := 0; i < steps; i++ {
				if i == steps/2 {
					for _, e := range engines {
						e.InjectFaults(5)
					}
				}
				for _, e := range engines {
					if err := e.Step(); err != nil {
						t.Fatalf("%s/%s: step %d: %v", gname, sname, i, err)
					}
				}
				for j, e := range engines[1:] {
					if !ref.Config().Equal(e.Config()) {
						t.Fatalf("%s/%s: step %d: P=%d diverged from P=0", gname, sname, i, []int{1, 2, 3, 8}[j])
					}
					if ref.Rounds() != e.Rounds() || ref.StepCount() != e.StepCount() {
						t.Fatalf("%s/%s: step %d: round/step counts diverged", gname, sname, i)
					}
				}
			}
		}
	}
}

// randomizedAlg is a test algorithm that draws from rng on every transition,
// so it exposes any change in which stream its coins come from or in what
// order they are drawn: nodes flip between states based on a coin and their
// signal.
type randomizedAlg struct{}

func (randomizedAlg) NumStates() int           { return 4 }
func (randomizedAlg) IsOutput(q sa.State) bool { return true }
func (randomizedAlg) Output(q sa.State) int    { return q }
func (randomizedAlg) Transition(q sa.State, sig sa.Signal, rng *rand.Rand) sa.State {
	next := rng.Intn(4)
	if sig.Has(next) && rng.Intn(2) == 0 {
		next = (next + 1) % 4
	}
	return next
}

// TestShardedRandomizedByteIdentical pins, on an rng-hungry algorithm, that
// the engine has one coin source: equal seeds give byte-identical
// configurations at every P >= 1 and at P = 0.
func TestShardedRandomizedByteIdentical(t *testing.T) {
	const seed = 99
	alg := randomizedAlg{}
	for gname, g := range shardedTestGraphs(t) {
		for sname, mk := range shardedSchedulers(seed) {
			ref, err := sim.New(g, alg, sim.Options{Scheduler: mk(), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			engines := []*sim.Engine{}
			ps := []int{1, 2, 3, 8}
			for _, p := range ps {
				e, err := sim.New(g, alg, sim.Options{Scheduler: mk(), Seed: seed, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, e)
			}
			for i := 0; i < 3*g.N(); i++ {
				if i == g.N() {
					ref.InjectFaults(7)
					for _, e := range engines {
						e.InjectFaults(7)
					}
				}
				if err := ref.Step(); err != nil {
					t.Fatal(err)
				}
				for j, e := range engines {
					if err := e.Step(); err != nil {
						t.Fatal(err)
					}
					if !ref.Config().Equal(e.Config()) {
						t.Fatalf("%s/%s: step %d: P=%d diverged from P=0", gname, sname, i, ps[j])
					}
				}
			}
		}
	}
}

// TestShardedGoodMonitorParity checks the monitor's O(1) not-good count
// at every P: the verdict and BadNodes must agree with the oracle GraphGood
// rescan after every step and fault burst.
func TestShardedGoodMonitorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := graph.BoundedDiameter(120, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 1, 8} {
		eng, err := sim.New(g, au, sim.Options{Seed: 21, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		mon := core.NewGoodMonitor(au, g, eng.Config())
		eng.Observe(mon)
		for i := 0; i < 300; i++ {
			if i%97 == 31 {
				eng.InjectFaults(9)
			}
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			if got, want := mon.Good(), au.GraphGood(g, eng.Config()); got != want {
				t.Fatalf("P=%d step %d: monitor Good() = %v, GraphGood = %v", p, i, got, want)
			}
			bad := 0
			for v := 0; v < g.N(); v++ {
				if !au.NodeGood(g, eng.Config(), v) {
					bad++
				}
			}
			if mon.BadNodes() != bad {
				t.Fatalf("P=%d step %d: BadNodes() = %d, want %d", p, i, mon.BadNodes(), bad)
			}
		}
	}
}

// applyRecorder records observer deliveries for the ordering-contract test.
type applyRecorder struct {
	applies []int
}

func (r *applyRecorder) Apply(v int, q sa.State) { r.applies = append(r.applies, v) }

// TestObserverCanonicalOrder is the regression test for the ConfigObserver
// ordering contract: PR 2's engine fed observers in raw activation-list
// order, so a scripted scheduler emitting an unsorted or duplicated list
// leaked that order — and double-applied duplicated nodes' transitions —
// into observer deliveries. The engine now canonicalizes A_t (ascending,
// deduplicated) before staging, at every P.
func TestObserverCanonicalOrder(t *testing.T) {
	g, err := graph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(2)
	if err != nil {
		t.Fatal(err)
	}
	// Unsorted, duplicated script vs its canonical form: both runs must be
	// indistinguishable — same configurations, same observer deliveries.
	messy := [][]int{{5, 1, 3, 1, 5}, {7, 0, 2, 2}, {6, 6, 4}, {0, 1, 2, 3, 4, 5, 6, 7}}
	canon := [][]int{{1, 3, 5}, {0, 2, 7}, {4, 6}, {0, 1, 2, 3, 4, 5, 6, 7}}
	for _, par := range []int{0, 2} {
		var recs [2]*applyRecorder
		var cfgs [2]sa.Config
		for i, script := range [][][]int{messy, canon} {
			eng, err := sim.New(g, au, sim.Options{
				Scheduler:   sched.NewScripted(script, true),
				Seed:        3,
				Parallelism: par,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := &applyRecorder{}
			eng.Observe(rec)
			for s := 0; s < 24; s++ {
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			recs[i] = rec
			cfgs[i] = eng.Config().Clone()
		}
		if !cfgs[0].Equal(cfgs[1]) {
			t.Fatalf("par=%d: messy and canonical scripts diverged", par)
		}
		if fmt.Sprint(recs[0].applies) != fmt.Sprint(recs[1].applies) {
			t.Fatalf("par=%d: observer deliveries differ:\nmessy: %v\ncanon: %v", par, recs[0].applies, recs[1].applies)
		}
	}
}

// stepRecorder records per-step deliveries to assert the ascending/at-most-
// once guarantee directly.
type stepRecorder struct {
	t       *testing.T
	current []int
}

func (r *stepRecorder) Apply(v int, q sa.State) { r.current = append(r.current, v) }

func (r *stepRecorder) checkStep() {
	seen := map[int]bool{}
	last := -1
	for _, v := range r.current {
		if seen[v] {
			r.t.Fatalf("node %d delivered twice in one step: %v", v, r.current)
		}
		seen[v] = true
		if v <= last {
			r.t.Fatalf("deliveries not ascending: %v", r.current)
		}
		last = v
	}
	r.current = r.current[:0]
}

func TestObserverAscendingWithinStep(t *testing.T) {
	g, err := graph.Cycle(10)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(2)
	if err != nil {
		t.Fatal(err)
	}
	script := [][]int{{9, 3, 7, 3}, {8, 8, 1, 0}, {2, 5, 4, 9, 0}}
	for _, par := range []int{0, 3} {
		eng, err := sim.New(g, au, sim.Options{
			Scheduler:   sched.NewScripted(script, true),
			Seed:        13,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := &stepRecorder{t: t}
		eng.Observe(rec)
		for s := 0; s < 30; s++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			rec.checkStep()
		}
	}
}
