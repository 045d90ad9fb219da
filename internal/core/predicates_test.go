package core_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sim"
)

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func cfgOf(t *testing.T, au *core.AU, turns ...core.Turn) sa.Config {
	t.Helper()
	cfg := make(sa.Config, len(turns))
	for i, tt := range turns {
		q, err := au.State(tt)
		if err != nil {
			t.Fatalf("State(%v): %v", tt, err)
		}
		cfg[i] = q
	}
	return cfg
}

func TestEdgeProtected(t *testing.T) {
	au := mustAU(t, 1)
	cases := []struct {
		a, b core.Level
		want bool
	}{
		{1, 1, true},
		{1, 2, true},
		{2, 1, true},
		{-1, 1, true}, // φ(-1) = 1
		{1, 3, false},
		{-2, 2, false},
		{core.Level(au.K()), core.Level(-au.K()), true}, // φ(k) = -k
		{2, -2, false},
	}
	for _, c := range cases {
		cfg := cfgOf(t, au, core.Turn{Level: c.a}, core.Turn{Level: c.b})
		if got := au.EdgeProtected(cfg, 0, 1); got != c.want {
			t.Errorf("EdgeProtected(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestNodeGood(t *testing.T) {
	g := pathGraph(t, 3)
	au := mustAU(t, 2)
	// Middle node protected and no faulty neighbors: good.
	cfg := cfgOf(t, au,
		core.Turn{Level: 1}, core.Turn{Level: 2}, core.Turn{Level: 3})
	if !au.NodeGood(g, cfg, 1) {
		t.Error("node 1 should be good")
	}
	// A faulty neighbor destroys goodness but not protection.
	cfg = cfgOf(t, au,
		core.Turn{Level: 2, Faulty: true}, core.Turn{Level: 2}, core.Turn{Level: 3})
	if au.NodeGood(g, cfg, 1) {
		t.Error("node 1 should not be good with a faulty neighbor")
	}
	if !au.NodeProtected(g, cfg, 1) {
		t.Error("node 1 should still be protected")
	}
	// A faulty node itself is never good.
	cfg = cfgOf(t, au,
		core.Turn{Level: 2}, core.Turn{Level: 2, Faulty: true}, core.Turn{Level: 3})
	if au.NodeGood(g, cfg, 1) {
		t.Error("a faulty node cannot be good")
	}
}

// TestGraphGoodMatchesNodeGood: the per-node test from per-state tables,
// which GraphGood and a deferred GoodMonitor's scans share, agrees with
// NodeGood for D = 1 … 12 — GraphGood with NodeGood over every node, and a
// deferred monitor's BadNodes count with NodeGood's — on configurations that
// are good or one corrupted node away from good (so both verdicts occur,
// across the seam of the φ-cycle too), including a churned graph whose
// crashed nodes are isolated.
func TestGraphGoodMatchesNodeGood(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cycle, err := graph.Cycle(10)
	if err != nil {
		t.Fatal(err)
	}
	random, err := graph.RandomConnected(20, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	base, err := graph.BoundedDiameter(30, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	delta := graph.NewDelta(base)
	for _, v := range []int{0, 7, 19} {
		if err := delta.Crash(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := delta.InsertEdge(3, 25); err != nil {
		t.Fatal(err)
	}
	delta.Apply()
	churned := delta.Graph()
	if churned.Degree(7) != 0 {
		t.Fatalf("crashed node 7 keeps degree %d", churned.Degree(7))
	}
	graphs := map[string]*graph.Graph{"cycle": cycle, "random": random, "churned": churned}
	for d := 1; d <= maxClassifyD; d++ {
		au := mustAU(t, d)
		ls := au.Levels()
		for name, g := range graphs {
			verdicts := map[bool]int{}
			cfg := make(sa.Config, g.N())
			for range 200 {
				p := rng.Intn(ls.Order())
				for v := range cfg {
					cfg[v] = au.MustState(core.Turn{Level: ls.FromIndex(p + rng.Intn(2))})
				}
				if rng.Intn(4) != 0 {
					cfg[rng.Intn(g.N())] = rng.Intn(au.NumStates())
				}
				bad := 0
				for v := range g.N() {
					if !au.NodeGood(g, cfg, v) {
						bad++
					}
				}
				got := au.GraphGood(g, cfg)
				if want := bad == 0; got != want {
					t.Fatalf("D=%d %s: GraphGood %v, NodeGood over every node %v", d, name, got, want)
				}
				if n := core.NewGoodMonitor(au, g, cfg).BadNodes(); n != bad {
					t.Fatalf("D=%d %s: deferred monitor counts %d bad nodes, NodeGood %d", d, name, n, bad)
				}
				verdicts[got]++
			}
			if len(verdicts) != 2 {
				t.Fatalf("D=%d %s: verdicts %v, want both", d, name, verdicts)
			}
		}
	}
}

func TestOutProtected(t *testing.T) {
	g := pathGraph(t, 2)
	au := mustAU(t, 2)
	k := au.K()
	cases := []struct {
		a, b core.Level
		want bool // node 0 out-protected?
	}{
		{1, 3, false},                // 3 ∈ Ψ≫(1)
		{1, 2, true},                 // ψ+1 is excluded from Ψ≫
		{1, -3, true},                // different sign
		{2, core.Level(k), false},    // far outwards
		{core.Level(k), 1, true},     // level k is vacuously out-protected
		{core.Level(k - 1), 1, true}, // k-1 too (ψ+1 = k excluded, nothing beyond)
		{-1, -3, false},              // negative side symmetric
		{-2, -1, true},               // inwards neighbor is fine
	}
	for _, c := range cases {
		cfg := cfgOf(t, au, core.Turn{Level: c.a}, core.Turn{Level: c.b})
		if got := au.NodeOutProtected(g, cfg, 0); got != c.want {
			t.Errorf("OutProtected(λ0=%d, λ1=%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLOutProtected(t *testing.T) {
	g := pathGraph(t, 3)
	au := mustAU(t, 1)
	// λ = (1, 3, 5): node 0 at level 1 sees 3 ∈ Ψ≫(1): not out-protected.
	cfg := cfgOf(t, au, core.Turn{Level: 1}, core.Turn{Level: 3}, core.Turn{Level: 5})
	if au.LOutProtected(g, cfg, 1) {
		t.Error("graph should not be 1-out-protected")
	}
	// But it is 3-out-protected: nodes at levels in Ψ≥(3) = {3,4,5} are
	// nodes 1 (sees 1, 5: 5 ∈ Ψ≫(3)? node 1 at level 3 senses node 2 at
	// level 5, and 5 is strictly outwards of 3) -> actually not.
	if au.LOutProtected(g, cfg, 3) {
		t.Error("node at level 3 sensing level 5 is not out-protected")
	}
	// 4-out-protected: nodes with level in Ψ≥(4) = {4,5} is node 2 (level
	// 5), which is vacuously out-protected.
	if !au.LOutProtected(g, cfg, 4) {
		t.Error("graph should be 4-out-protected")
	}
}

func TestJustifiablyFaulty(t *testing.T) {
	g := pathGraph(t, 2)
	au := mustAU(t, 2)
	// Faulty and not protected: justified.
	cfg := cfgOf(t, au, core.Turn{Level: 3, Faulty: true}, core.Turn{Level: -3})
	if !au.JustifiablyFaulty(g, cfg, 0) {
		t.Error("unprotected faulty node should be justified")
	}
	// Faulty, protected, neighbor faulty one unit inwards: justified.
	cfg = cfgOf(t, au, core.Turn{Level: 3, Faulty: true}, core.Turn{Level: 2, Faulty: true})
	if !au.JustifiablyFaulty(g, cfg, 0) {
		t.Error("faulty with inwards-faulty neighbor should be justified")
	}
	// Faulty, protected, neighbor able: unjustified.
	cfg = cfgOf(t, au, core.Turn{Level: 3, Faulty: true}, core.Turn{Level: 2})
	if au.JustifiablyFaulty(g, cfg, 0) {
		t.Error("faulty with only able adjacent neighbors should be unjustified")
	}
	if au.GraphJustified(g, cfg) {
		t.Error("graph with an unjustified node is not justified")
	}
	// Able node: not "justifiably faulty" by definition.
	cfg = cfgOf(t, au, core.Turn{Level: 3}, core.Turn{Level: 2})
	if au.JustifiablyFaulty(g, cfg, 0) {
		t.Error("able node is not justifiably faulty")
	}
	if !au.GraphJustified(g, cfg) {
		t.Error("all-able graph is justified")
	}
}

func TestGrounded(t *testing.T) {
	au := mustAU(t, 4)
	g := pathGraph(t, 5)
	// Node 0 at level 1; chain of protected edges: everyone grounded.
	cfg := cfgOf(t, au,
		core.Turn{Level: 1}, core.Turn{Level: 2}, core.Turn{Level: 3},
		core.Turn{Level: 4}, core.Turn{Level: 5})
	for v := 0; v < 5; v++ {
		if !au.Grounded(g, cfg, v) {
			t.Errorf("node %d should be grounded", v)
		}
	}
	// Break the chain: nodes beyond the break are not grounded.
	cfg = cfgOf(t, au,
		core.Turn{Level: 1}, core.Turn{Level: 2}, core.Turn{Level: 5},
		core.Turn{Level: 6}, core.Turn{Level: 7})
	if au.Grounded(g, cfg, 3) {
		t.Error("node 3 behind a non-protected edge should not be grounded")
	}
	if !au.Grounded(g, cfg, 0) {
		t.Error("node 0 at level 1 should be grounded")
	}
	// Node 1 is not protected (edge to node 2 has dist(2,5) > 1).
	if au.Grounded(g, cfg, 1) {
		t.Error("node 1 is not protected, hence not grounded")
	}
}

func TestSafetyHolds(t *testing.T) {
	g := pathGraph(t, 3)
	au := mustAU(t, 2)
	ok := cfgOf(t, au, core.Turn{Level: 1}, core.Turn{Level: 2}, core.Turn{Level: 2})
	if !au.SafetyHolds(g, ok) {
		t.Error("adjacent clocks should satisfy safety")
	}
	bad := cfgOf(t, au, core.Turn{Level: 1}, core.Turn{Level: 3}, core.Turn{Level: 3})
	if au.SafetyHolds(g, bad) {
		t.Error("clock gap of 2 should violate safety")
	}
	faulty := cfgOf(t, au, core.Turn{Level: 1}, core.Turn{Level: 2, Faulty: true}, core.Turn{Level: 2})
	if au.SafetyHolds(g, faulty) {
		t.Error("faulty turn should violate safety (not an output configuration)")
	}
}

// TestMonotoneInvariantsRandomRuns is the property-test form of
// Obs. 2.1-2.6: on random graphs, random initial configurations and a random
// scheduler, the monitor (which enforces the monotone invariants) never
// trips during long executions.
func TestMonotoneInvariantsRandomRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(10)
		g, err := graph.RandomConnected(n, 0.3, rng)
		if err != nil {
			t.Fatal(err)
		}
		au := mustAU(t, g.Diameter())
		eng, err := sim.New(g, au, sim.Options{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		mon := core.NewMonitor(au, g)
		eng.AddHook(func(e *sim.Engine) error { return mon.Check(e.Config()) })
		if err := eng.RunRounds(150); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
	}
}

// TestGoodClosureExhaustive exhaustively checks Lem. 2.10 on tiny instances:
// for every good configuration of a 3-path, one synchronous step keeps the
// graph good.
func TestGoodClosureExhaustive(t *testing.T) {
	g := pathGraph(t, 3)
	au := mustAU(t, 2)
	var cfgs []sa.Config
	for a := 0; a < au.NumStates(); a++ {
		for b := 0; b < au.NumStates(); b++ {
			for c := 0; c < au.NumStates(); c++ {
				cfg := sa.Config{a, b, c}
				if au.GraphGood(g, cfg) {
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	if len(cfgs) == 0 {
		t.Fatal("no good configurations found")
	}
	for _, cfg := range cfgs {
		eng, err := sim.New(g, au, sim.Options{Initial: cfg, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		if !au.GraphGood(g, eng.Config()) {
			t.Fatalf("good configuration %v became non-good: %v",
				cfg.String(au), eng.Config().String(au))
		}
	}
}
