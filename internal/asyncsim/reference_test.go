package asyncsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mis"
	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/sched"
	"thinunison/internal/syncsim"
)

// refEngine is the reference stepper: the synchronous round body every node
// program was first written against — each node senses C_t, the whole next
// configuration is staged, then swapped in — generalized to a scheduler's
// A_t (a node outside A_t keeps its state) and to a coin source passed in
// as a parameter. It shares no loop code with the engine: activations are a
// membership mask, so order and duplicates in the scheduler's list cannot
// matter, and nodes are visited in ascending order.
type refEngine[S comparable] struct {
	g       *graph.Graph
	step    syncsim.StepFunc[S]
	sch     sched.Scheduler
	coins   coinSource
	states  []S
	next    []S
	t       int
	rounds  int
	seen    []bool // nodes activated in the current round
	unseen  int
	changed []int
	faults  []int
	mx      obs.Metrics
}

// coinSource hands out the rng node v draws from at step t, and tallies the
// draws taken from it.
type coinSource struct {
	shared *rand.Rand      // the run's shared stream: faults, and coins when seq is nil
	tally  *randx.Counting // over the shared stream
	seed   int64
	seq    *randx.Seq // per-(step, node) streams, or nil
	node   *rand.Rand
	ntally *randx.Counting
}

// sharedCoins draws every coin from the shared stream of seed.
func sharedCoins(seed int64) coinSource {
	tally := randx.NewCounting(rand.NewSource(seed).(rand.Source64))
	return coinSource{shared: rand.New(tally), tally: tally, seed: seed}
}

// nodeSeedCoins reseeds a stream per (step, node) from seed; faults still
// draw from the shared stream.
func nodeSeedCoins(seed int64) coinSource {
	c := sharedCoins(seed)
	c.seq = &randx.Seq{}
	c.ntally = randx.NewCounting(c.seq)
	c.node = rand.New(c.ntally)
	return c
}

func (c *coinSource) rng(t, v int) *rand.Rand {
	if c.seq == nil {
		return c.shared
	}
	c.seq.Reseed(randx.NodeSeed(c.seed, t, v))
	return c.node
}

func (c *coinSource) take() uint64 {
	n := c.tally.Take()
	if c.ntally != nil {
		n += c.ntally.Take()
	}
	return n
}

func newRefEngine[S comparable](g *graph.Graph, step syncsim.StepFunc[S], s sched.Scheduler, initial []S, coins coinSource) *refEngine[S] {
	if s == nil { // the engine's default: A_t = V
		s = sched.NewSynchronous()
	}
	return &refEngine[S]{g: g, step: step, sch: s, coins: coins, states: slices.Clone(initial),
		next: make([]S, g.N()), seen: make([]bool, g.N()), unseen: g.N()}
}

func (r *refEngine[S]) Step() {
	n := r.g.N()
	active := make([]bool, n)
	for _, v := range r.sch.Activations(r.t, n) {
		active[v] = true
	}
	activated := 0
	r.changed = r.changed[:0]
	for v := 0; v < n; v++ {
		r.next[v] = r.states[v]
		if !active[v] {
			continue
		}
		activated++
		var sensed []S
		for _, u := range append([]int{v}, r.g.Neighbors(v)...) {
			if !slices.Contains(sensed, r.states[u]) {
				sensed = append(sensed, r.states[u])
			}
		}
		r.next[v] = r.step(r.states[v], sensed, r.coins.rng(r.t, v))
		if r.next[v] != r.states[v] {
			r.changed = append(r.changed, v)
		}
		if !r.seen[v] {
			r.seen[v], r.unseen = true, r.unseen-1
		}
	}
	r.states, r.next = r.next, r.states
	if r.unseen == 0 { // every node activated since the round began: ϱ reached
		r.rounds++
		r.seen, r.unseen = make([]bool, n), n
	}
	r.t++
	r.mx.Steps.Add(1)
	r.mx.Rounds.Store(uint64(r.rounds))
	r.mx.Activated.Add(uint64(activated))
	r.mx.Evaluated.Add(uint64(activated))
	r.mx.Changes.Add(uint64(len(r.changed)))
	r.mx.CoinDraws.Add(r.coins.take())
}

// InjectFaults corrupts count distinct nodes drawn from the shared stream,
// the way Engine.InjectFaults is specified to.
func (r *refEngine[S]) InjectFaults(count int, random func(*rand.Rand) S) []int {
	hit := randx.PartialShuffle(&r.faults, r.g.N(), count, r.coins.shared)
	for _, v := range hit {
		r.states[v] = random(r.coins.shared)
	}
	r.mx.Faults.Add(uint64(len(hit)))
	r.mx.CoinDraws.Add(r.coins.take())
	return hit
}

// jitterStep consumes rng on every activation, so every coin source is
// exercised on every step.
func jitterStep(self int, sensed []int, rng *rand.Rand) int {
	return (syncsim.MinSensed(sensed, func(v int) int { return v }) + 1 + rng.Intn(3)) % 512
}

// refSchedulers are the lattice's schedulers, fresh per call and seeded
// identically so the reference and every engine see the same A_t stream.
func refSchedulers() map[string]func() sched.Scheduler {
	return map[string]func() sched.Scheduler{
		"synchronous":   func() sched.Scheduler { return nil },
		"round-robin":   func() sched.Scheduler { return sched.NewRoundRobin() },
		"laggard":       func() sched.Scheduler { return sched.NewLaggard(1, 3) },
		"random-subset": func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.4, 8, 17) },
	}
}

// TestLatticeMatchesReference runs the engine in every cell of
// {p ∈ 0,1,8} × {synchronous, round-robin, laggard, seeded random-subset}
// × {AlgMIS, AlgLE, jitterStep} against the reference stepper with
// the matching coin source (the shared stream at p = 0, per-(step, node)
// streams at p >= 1; p = 8 pins that positive values are interchangeable).
// After every step the configuration, Changed, Rounds, Steps and the metric
// snapshot must match; one fault burst falls mid-run.
func TestLatticeMatchesReference(t *testing.T) {
	g, err := graph.BoundedDiameter(40, 3, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	misAlg, err := mis.New(mis.Params{D: g.Diameter()})
	if err != nil {
		t.Fatal(err)
	}
	leAlg, err := le.New(le.Params{D: g.Diameter()})
	if err != nil {
		t.Fatal(err)
	}
	latticeProgram(t, "mis", g, misAlg.Step, misAlg.RandomState)
	latticeProgram(t, "le", g, leAlg.Step, leAlg.RandomState)
	latticeProgram(t, "jitter", g, jitterStep, func(rng *rand.Rand) int { return rng.Intn(512) })
}

func latticeProgram[S comparable](t *testing.T, prog string, g *graph.Graph, step syncsim.StepFunc[S], random func(*rand.Rand) S) {
	t.Helper()
	const steps, seed, burst = 60, 31, 5
	initRNG := rand.New(rand.NewSource(seed))
	initial := make([]S, g.N())
	for v := range initial {
		initial[v] = random(initRNG)
	}
	for sname, mk := range refSchedulers() {
		for _, p := range []int{0, 1, 8} {
			name := fmt.Sprintf("%s/%s/p=%d", prog, sname, p)
			coins := sharedCoins(seed)
			if p >= 1 {
				coins = nodeSeedCoins(seed)
			}
			ref := newRefEngine(g, step, mk(), initial, coins)
			e, err := asyncsim.NewParallel(g, step, initial, mk(), seed, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < steps; i++ {
				if i == steps/3 {
					want := append([]int(nil), ref.InjectFaults(burst, random)...)
					if got := e.InjectFaults(burst, random); !slices.Equal(got, want) {
						t.Fatalf("%s: fault victims %v, reference %v", name, got, want)
					}
				}
				ref.Step()
				e.Step()
				switch {
				case !slices.Equal(e.View(), ref.states):
					t.Fatalf("%s: step %d: configuration diverged from the reference", name, i)
				case !slices.Equal(e.Changed(), ref.changed):
					t.Fatalf("%s: step %d: Changed %v, reference %v", name, i, e.Changed(), ref.changed)
				case e.Rounds() != ref.rounds || e.Steps() != ref.t:
					t.Fatalf("%s: step %d: (rounds, steps) = (%d, %d), reference (%d, %d)",
						name, i, e.Rounds(), e.Steps(), ref.rounds, ref.t)
				case e.Metrics().Snapshot() != ref.mx.Snapshot():
					t.Fatalf("%s: step %d: metrics %+v, reference %+v", name, i, e.Metrics().Snapshot(), ref.mx.Snapshot())
				}
			}
		}
	}
}
