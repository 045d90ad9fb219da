package core_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// TestGoodMonitorMatchesGraphGood cross-checks the incremental stabilization
// monitor against the full-scan predicate after every engine step, transient
// fault burst, and single-node corruption, across graph families, schedulers
// and diameter bounds D ∈ {1, 4, 6} (|Q| = 18, 54, 78: the monitor's
// per-state tables below and above 64 states, and adjacency across the seam
// of the φ-cycle at every k). This is the correctness anchor of the
// O(|A_t|·Δ) hot path.
func TestGoodMonitorMatchesGraphGood(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	graphs := map[string]*graph.Graph{}
	if g, err := graph.Star(9); err == nil {
		graphs["star"] = g
	}
	if g, err := graph.Cycle(8); err == nil {
		graphs["cycle"] = g
	}
	if g, err := graph.RandomConnected(12, 0.3, rng); err == nil {
		graphs["random"] = g
	}
	if g, err := graph.BoundedDiameter(14, 3, rng); err == nil {
		graphs["boundedD"] = g
	}
	for name, g := range graphs {
		for _, mk := range []func() sched.Scheduler{
			func() sched.Scheduler { return sched.NewSynchronous() },
			func() sched.Scheduler { return sched.NewRoundRobin() },
			func() sched.Scheduler {
				return sched.NewRandomSubset(0.4, 8, rand.New(rand.NewSource(5)))
			},
		} {
			t.Run(name+"/"+mk().Name(), func(t *testing.T) {
				for _, d := range []int{1, 4, 6} {
					au, err := core.NewAU(d)
					if err != nil {
						t.Fatal(err)
					}
					eng, err := sim.New(g, au, sim.Options{Scheduler: mk(), Seed: 77})
					if err != nil {
						t.Fatal(err)
					}
					mon := core.NewGoodMonitor(au, g, eng.Config())
					eng.Observe(mon)
					check := func(at string) {
						t.Helper()
						if got, want := mon.Good(), au.GraphGood(g, eng.Config()); got != want {
							t.Fatalf("D=%d %s: monitor Good()=%v, GraphGood=%v (bad=%d)",
								d, at, got, want, mon.BadNodes())
						}
					}
					check("initial")
					for i := 0; i < 400; i++ {
						if err := eng.Step(); err != nil {
							t.Fatal(err)
						}
						check("step")
						switch i {
						case 150:
							eng.InjectFaults(3)
							check("burst")
						case 250:
							if err := eng.SetState(0, au.MustState(core.Turn{Level: 2, Faulty: true})); err != nil {
								t.Fatal(err)
							}
							check("set-state")
						}
					}
				}
			})
		}
	}
}

// TestGoodMonitorReset pins Reset against a wholesale configuration rewrite.
func TestGoodMonitorReset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := graph.RandomConnected(10, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(g, au, sim.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewGoodMonitor(au, g, eng.Config())
	cfg := eng.Config().Clone()
	for v := range cfg {
		cfg[v] = rng.Intn(au.NumStates())
	}
	mon.Reset(cfg)
	if got, want := mon.Good(), au.GraphGood(g, cfg); got != want {
		t.Fatalf("after Reset: Good()=%v, GraphGood=%v", got, want)
	}
	// A uniformly level-1 configuration is good: Reset must agree.
	for v := range cfg {
		cfg[v] = au.MustState(core.Turn{Level: 1})
	}
	mon.Reset(cfg)
	if !mon.Good() || mon.BadNodes() != 0 {
		t.Fatalf("uniform able configuration should be good (bad=%d)", mon.BadNodes())
	}
}

// TestGoodMonitorAdaptiveRegimes pins the deferred→incremental life cycle:
// the monitor starts deferred (witness scans), promotes on the first good
// verdict — the clean scan itself, with no recount — and must stay exact:
// against the full scan after every step of the deferred phase, and across
// every interleaving of verdicts and changes around the promotion point, in
// particular a fault burst landing right after it.
func TestGoodMonitorAdaptiveRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, err := graph.BoundedDiameter(40, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(g, au, sim.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewGoodMonitor(au, g, eng.Config())
	eng.Observe(mon)

	// Run to the first good verdict (deferred regime throughout).
	good := mon.Good()
	if good {
		t.Fatal("random initial configuration is already good; pick another seed")
	}
	if got := mon.BadNodesFast(); got != -1 {
		t.Fatalf("deferred monitor BadNodesFast() = %d, want -1", got)
	}
	for i := 0; i < 10_000 && !good; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		good = mon.Good()
		if want := au.GraphGood(g, eng.Config()); good != want {
			t.Fatalf("deferred step %d: Good()=%v, GraphGood=%v", i, good, want)
		}
	}
	if !good {
		t.Fatal("did not stabilize")
	}
	// Promotion is immediate: the verdict that first returned true left the
	// counters live (and all zero).
	if got := mon.BadNodesFast(); got != 0 {
		t.Fatalf("BadNodesFast() right after the first good verdict = %d, want 0", got)
	}

	// Corrupt right after the promotion: the next verdict must see the
	// faults through the counters alone.
	eng.InjectFaults(6)
	if got, want := mon.Good(), au.GraphGood(g, eng.Config()); got != want {
		t.Fatalf("promotion-point fault burst: Good()=%v, GraphGood=%v", got, want)
	}

	// Recover under the incremental monitor; verdicts stay exact.
	for i := 0; i < 10_000; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		if got, want := mon.Good(), au.GraphGood(g, eng.Config()); got != want {
			t.Fatalf("recovery step %d: Good()=%v, GraphGood=%v", i, got, want)
		}
		if mon.Good() {
			break
		}
	}
	if !mon.Good() {
		t.Fatal("did not recover")
	}
	if got, want := mon.BadNodes(), 0; got != want {
		t.Fatalf("BadNodes after recovery = %d", got)
	}
}

// toggleEdges stages ops random edge toggles on the delta (insert if absent,
// delete if present), commits them in ONE batch, and fans the committed
// changes out to the monitors exactly the way sim.ApplyDelta does: the graph
// mutates first, then each RewireEdge is delivered.
func toggleEdges(t *testing.T, g *graph.Graph, rng *rand.Rand, ops int, mons ...*core.GoodMonitor) {
	t.Helper()
	delta := graph.NewDelta(g)
	for i := 0; i < ops; i++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v {
			continue
		}
		var err error
		if delta.HasEdge(u, v) {
			err = delta.DeleteEdge(u, v)
		} else {
			err = delta.InsertEdge(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	changes, _ := delta.Apply()
	for _, c := range changes {
		for _, mon := range mons {
			mon.RewireEdge(c.U, c.V, c.Added)
		}
	}
}
