package sim_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// cloneGraph rebuilds an independent copy of g: churn mutates graphs in
// place, so every engine of a differential pair needs its own instance.
func cloneGraph(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	c, err := graph.New(g.N(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// churnSpec is the stochastic spec shared by the differential tests:
// aggressive enough to force edge inserts and guarded deletes.
func churnSpec() *sim.ChurnSpec {
	return &sim.ChurnSpec{
		Period:        3,
		Flips:         4,
		Seed:          99,
		KeepConnected: true,
	}
}

// TestChurnDifferential is the churn half of the differential harness: under
// mid-run topology churn, every execution mode — dense, frontier-sparse,
// either at per-node coin streams (P ∈ {1, 2, 3, 8}), and word-parallel
// dense or frontier at P ∈ {0, 1, 3} — must walk the configuration
// trajectory of the shared-stream dense engine byte for byte, while the
// GoodMonitor verdict matches the full-scan GraphGood oracle at every step.
// The word cells feed the monitor certified batches interleaved with churn
// rewires and the fault burst. AlgAU ignores rng, so both coin sources
// coincide exactly; churn draws from its own stream, so it cannot skew any
// of them.
func TestChurnDifferential(t *testing.T) {
	const seed = 7
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	base, err := graph.RandomConnected(48, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
	for sname, mk := range shardedSchedulers(seed) {
		t.Run(sname, func(t *testing.T) {
			type mode struct {
				name     string
				par      int
				frontier bool
				word     bool
			}
			modes := []mode{
				{"dense", 0, false, false},
				{"frontier", 0, true, false},
				{"p1", 1, false, false},
				{"p3", 3, false, false},
				{"frontier-p2", 2, true, false},
				{"frontier-p8", 8, true, false},
				{"word", 0, false, true},
				{"word-frontier", 0, true, true},
				{"word-p1", 1, false, true},
				{"word-frontier-p3", 3, true, true},
			}
			engines := make([]*sim.Engine, len(modes))
			monitors := make([]*core.GoodMonitor, len(modes))
			graphs := make([]*graph.Graph, len(modes))
			for i, m := range modes {
				g := cloneGraph(t, base)
				e, err := sim.New(g, au, sim.Options{
					Scheduler:    mk(),
					Seed:         seed,
					Parallelism:  m.par,
					Frontier:     m.frontier,
					WordParallel: m.word,
					Churn:        churnSpec(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if e.WordActive() != m.word {
					t.Fatalf("%s: WordActive()=%v", m.name, e.WordActive())
				}
				mon := core.NewGoodMonitor(au, g, e.Config())
				e.Observe(mon)
				engines[i], monitors[i], graphs[i] = e, mon, g
			}
			ref := engines[0]
			for step := 0; step < 150; step++ {
				if step == 60 {
					for _, e := range engines {
						e.InjectFaults(6)
					}
				}
				for i, e := range engines {
					if err := e.Step(); err != nil {
						t.Fatalf("%s: step %d: %v", modes[i].name, step, err)
					}
				}
				refCfg := ref.Config()
				refM := graphs[0].M()
				for i := 1; i < len(engines); i++ {
					if graphs[i].M() != refM {
						t.Fatalf("step %d: %s mutated to m=%d, dense reference m=%d",
							step, modes[i].name, graphs[i].M(), refM)
					}
					if !engines[i].Config().Equal(refCfg) {
						t.Fatalf("step %d: %s diverged from the dense reference", step, modes[i].name)
					}
				}
				for i, mon := range monitors {
					if got, want := mon.Good(), au.GraphGood(graphs[i], engines[i].Config()); got != want {
						t.Fatalf("step %d: %s GoodMonitor=%v, full scan=%v", step, modes[i].name, got, want)
					}
				}
				if ref.ChurnOps() != engines[1].ChurnOps() || ref.ChurnSkipped() != engines[1].ChurnSkipped() {
					t.Fatalf("step %d: churn op counts diverged", step)
				}
			}
			if ref.ChurnOps() == 0 {
				t.Fatal("differential ran without committing any churn")
			}
		})
	}
}

// TestScriptedChurnEvents pins the scripted path: events fire at their step
// boundary (before the step executes), crash/revive round-trips restore the
// topology, and ChurnOps counts committed mutations.
func TestScriptedChurnEvents(t *testing.T) {
	g, err := graph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	spec := &sim.ChurnSpec{
		Events: []sim.ChurnEvent{
			{Step: 1, Ops: []sim.ChurnOp{{Kind: sim.ChurnInsert, U: 0, V: 4}}},
			{Step: 3, Ops: []sim.ChurnOp{{Kind: sim.ChurnCrash, U: 2}}},
			{Step: 5, Ops: []sim.ChurnOp{{Kind: sim.ChurnRevive, U: 2}}},
			{Step: 7, Ops: []sim.ChurnOp{{Kind: sim.ChurnFlip, U: 0, V: 4}}},
		},
	}
	e, err := sim.New(g, au, sim.Options{Seed: 3, Churn: spec})
	if err != nil {
		t.Fatal(err)
	}
	wantM := []int{8, 9, 9, 7, 7, 9, 9, 8} // m after step i (crash of 2 drops two cycle edges)
	for i := 0; i < len(wantM); i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if g.M() != wantM[i] {
			t.Fatalf("after step %d: m=%d, want %d", i, g.M(), wantM[i])
		}
	}
	// insert + crash(2 edges) + revive(2 edges) + flip-delete = 6 ops.
	if got := e.ChurnOps(); got != 6 {
		t.Fatalf("ChurnOps = %d, want 6", got)
	}
	if got := e.ChurnSkipped(); got != 0 {
		t.Fatalf("ChurnSkipped = %d, want 0", got)
	}
}

// TestChurnGuards pins the admissibility guards: on a tree with
// KeepConnected every deletion is a bridge and must be cancelled, and a
// small MaxDiameterUpper cancels deletions that would stretch the graph.
func TestChurnGuards(t *testing.T) {
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("keep-connected", func(t *testing.T) {
		g, err := graph.Star(8) // every edge is a bridge
		if err != nil {
			t.Fatal(err)
		}
		spec := &sim.ChurnSpec{
			Events: []sim.ChurnEvent{
				{Step: 0, Ops: []sim.ChurnOp{{Kind: sim.ChurnDelete, U: 0, V: 3}}},
				{Step: 1, Ops: []sim.ChurnOp{{Kind: sim.ChurnCrash, U: 0}}}, // crashing the hub isolates everyone
			},
			KeepConnected: true,
		}
		e, err := sim.New(g, au, sim.Options{Seed: 1, Churn: spec})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if g.M() != 7 || e.ChurnOps() != 0 {
			t.Fatalf("guarded ops committed: m=%d, ops=%d", g.M(), e.ChurnOps())
		}
		if e.ChurnSkipped() != 2 {
			t.Fatalf("ChurnSkipped = %d, want 2", e.ChurnSkipped())
		}
	})
	t.Run("max-diameter", func(t *testing.T) {
		g, err := graph.Cycle(12) // deleting any edge doubles the diameter
		if err != nil {
			t.Fatal(err)
		}
		spec := &sim.ChurnSpec{
			Events: []sim.ChurnEvent{
				{Step: 0, Ops: []sim.ChurnOp{{Kind: sim.ChurnDelete, U: 0, V: 1}}},
			},
			KeepConnected:    true,
			MaxDiameterUpper: 6, // cycle's own double-sweep bound stays within 2·6
		}
		e, err := sim.New(g, au, sim.Options{Seed: 1, Churn: spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if g.M() != 12 || e.ChurnSkipped() != 1 {
			t.Fatalf("diameter guard failed: m=%d, skipped=%d", g.M(), e.ChurnSkipped())
		}
	})
}

// TestApplyDeltaMonitorRepair drives ApplyDelta directly against a promoted
// (incremental-regime) GoodMonitor: after edge rewires the O(1)-patched
// verdict and BadNodes must match the full-scan oracle, through re-
// stabilization and further churn.
func TestApplyDeltaMonitorRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, err := graph.RandomConnected(32, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(g, au, sim.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewGoodMonitor(au, g, e.Config())
	e.Observe(mon)
	if _, err := e.RunUntil(func(*sim.Engine) bool { return mon.Good() }, 10_000); err != nil {
		t.Fatal(err)
	}
	if mon.BadNodesFast() != 0 { // the first good verdict promoted the monitor
		t.Fatal("stabilized monitor did not switch to its counters")
	}
	check := func(ctx string) {
		t.Helper()
		if got, want := mon.Good(), au.GraphGood(g, e.Config()); got != want {
			t.Fatalf("%s: monitor Good=%v, full scan=%v", ctx, got, want)
		}
		want := 0
		for v := 0; v < g.N(); v++ {
			if !au.NodeGood(g, e.Config(), v) {
				want++
			}
		}
		if got := mon.BadNodes(); got != want {
			t.Fatalf("%s: monitor BadNodes=%d, oracle=%d", ctx, got, want)
		}
	}
	d := graph.NewDelta(g)
	for round := 0; round < 30; round++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N()-1)
		if v >= u {
			v++
		}
		if d.HasEdge(u, v) {
			if err := d.DeleteEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if !d.Connected() {
				if err := d.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := d.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		check("post-churn")
		for i := 0; i < 4; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			check("post-step")
		}
	}
}

// TestApplyDeltaRejections pins the refusal paths: a delta over a foreign
// graph, and an observer that cannot survive churn.
func TestApplyDeltaRejections(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	other, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(g, au, sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyDelta(graph.NewDelta(other)); err == nil {
		t.Fatal("delta over a foreign graph must be rejected")
	}
	e.Observe(plainObserver{})
	d := graph.NewDelta(g)
	if err := d.InsertEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyDelta(d); err == nil {
		t.Fatal("churn against a topology-unaware observer must be rejected")
	}
	// An empty batch is fine even with a plain observer.
	if changes, err := e.ApplyDelta(graph.NewDelta(g)); err == nil || changes != nil {
		// The observer check fires before Apply, so even an empty batch is
		// rejected — pin that the rejection is loud, not silent.
		if err == nil {
			t.Fatal("expected rejection")
		}
	}
}

// plainObserver implements ConfigObserver but not TopologyObserver.
type plainObserver struct{}

func (plainObserver) Apply(v int, q sa.State) {}

// TestChurnStabilizesAfterFlips is the end-to-end sanity run: AU under
// sustained guarded churn keeps re-stabilizing (the paper's Theorem 1.1
// from *any* configuration — including one produced by an edge flip).
func TestChurnStabilizesAfterFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, err := graph.RandomConnected(40, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, upper := g.DiameterBounds()
	d := 2 * upper
	au, err := core.NewAU(d)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(g, au, sim.Options{
		Seed:     6,
		Frontier: true,
		Churn: &sim.ChurnSpec{
			Period:           16,
			Flips:            2,
			Seed:             31,
			KeepConnected:    true,
			MaxDiameterUpper: d,
		},
		Scheduler: sched.NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewGoodMonitor(au, g, e.Config())
	e.Observe(mon)
	good := func(*sim.Engine) bool { return mon.Good() }
	for burst := 0; burst < 5; burst++ {
		if _, err := e.RunUntil(good, 200_000); err != nil {
			t.Fatalf("burst %d: did not re-stabilize under churn: %v", burst, err)
		}
		e.InjectFaults(4)
	}
	if e.ChurnOps() == 0 {
		t.Fatal("sanity run committed no churn")
	}
}
