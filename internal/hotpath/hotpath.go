// Package hotpath defines the hot-path benchmark scenarios shared by the
// go-test benchmarks (BenchmarkHotPath* at the repository root) and the
// BENCH_hotpath.json generator (cmd/hotpathbench). Each builder returns a
// ready-to-run benchmark closure over a scale-sweep-sized AlgAU instance, so
// the same measurement runs under `go test -bench` and under
// testing.Benchmark in the artifact tool.
//
// The scenarios pin the tentpole properties of the simulation hot path: the
// steady step loop is allocation-free, the incremental stabilization monitor
// (core.GoodMonitor) replaces the O(n·Δ) per-step GraphGood rescan with
// O(|A_t|·Δ) bookkeeping — the full-scan variants exist solely to measure
// that speedup — the frontier-sparse mode (sim.Options.Frontier) makes
// near-quiescent steps O(|frontier|) instead of Θ(n), measured by the
// QuiescentSteadyStep and FrontierRecovery dense/frontier pairs, and the
// word-parallel mode (sim.Options.WordParallel) evaluates dense steps in
// batches, measured by the WordSteadyStep scalar/word pair.
package hotpath

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"thinunison/internal/budget"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// Mode selects how a scenario checks the stabilization predicate.
type Mode int

const (
	// Incremental uses core.GoodMonitor fed by the engine's observer hook:
	// O(1) per check, O(deg v) per changed node.
	Incremental Mode = iota
	// FullScan re-evaluates au.GraphGood over the whole graph after every
	// step — the pre-incremental behavior, kept for comparison.
	FullScan
)

// String implements fmt.Stringer (used in benchmark sub-names).
func (m Mode) String() string {
	if m == FullScan {
		return "fullscan"
	}
	return "incremental"
}

// The scale-sweep-shaped instance: the bounded-diameter family with D=4,
// matching the campaign preset's `bounded` matrix.
const diameterBound = 4

func buildInstance(n int, seed int64) (*graph.Graph, *core.AU, error) {
	rng := rand.New(randx.NewSource(seed))
	g, err := graph.BoundedDiameter(n, diameterBound, rng)
	if err != nil {
		return nil, nil, err
	}
	au, err := core.NewAU(diameterBound)
	if err != nil {
		return nil, nil, err
	}
	return g, au, nil
}

// goodCond returns the stabilization condition for the mode, attaching a
// monitor to the engine when incremental.
func goodCond(mode Mode, au *core.AU, g *graph.Graph, eng *sim.Engine) func(*sim.Engine) bool {
	if mode == FullScan {
		return func(e *sim.Engine) bool { return au.GraphGood(g, e.Config()) }
	}
	mon := core.NewGoodMonitor(au, g, eng.Config())
	eng.Observe(mon)
	return func(*sim.Engine) bool { return mon.Good() }
}

// SteadyStep measures one engine step plus stabilization check on an
// already-stabilized n-node instance under the synchronous scheduler — the
// steady-state inner loop of every campaign run. It reports allocations;
// the hot path must show 0 allocs/op.
func SteadyStep(n int) func(b *testing.B) {
	return func(b *testing.B) {
		g, au, err := buildInstance(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := sim.New(g, au, sim.Options{Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		cond := goodCond(Incremental, au, g, eng)
		if _, err := eng.RunUntil(cond, budget.AU(au.K())); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Step(); err != nil {
				b.Fatal(err)
			}
			if !cond(eng) {
				b.Fatal("stabilized instance left the good set")
			}
		}
	}
}

// SteadyStepTraced measures the fully-instrumented steady step: engine
// counters are always on (SteadyStep measures them too — they are not
// optional), and this variant additionally attaches a transition-classifying
// GoodMonitor, a flight-recorder ring and a sampled JSONL sink emitting
// every 64th step to io.Discard with monitor enrichment. The
// (SteadyStep, SteadyStepTraced) pair is the obs series of
// BENCH_hotpath.json: full tracing must stay 0 allocs/op and within noise
// of the untraced step (cmd/hotpathbench -obs-gate enforces both).
func SteadyStepTraced(n int) func(b *testing.B) {
	return func(b *testing.B) {
		g, au, err := buildInstance(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		mx := &obs.Metrics{}
		tracer := obs.NewTracer(0, 64, obs.NewJSONL(io.Discard))
		eng, err := sim.New(g, au, sim.Options{Seed: 2, Metrics: mx, Trace: tracer})
		if err != nil {
			b.Fatal(err)
		}
		mon := core.NewGoodMonitor(au, g, eng.Config())
		mon.Instrument(mx)
		eng.Observe(mon)
		tracer.Enrich = func(s obs.Sample) obs.Sample {
			s.Violations = int64(mon.BadNodesFast())
			return s
		}
		cond := func(*sim.Engine) bool { return mon.Good() }
		if _, err := eng.RunUntil(cond, budget.AU(au.K())); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Step(); err != nil {
				b.Fatal(err)
			}
			if !cond(eng) {
				b.Fatal("stabilized instance left the good set")
			}
		}
	}
}

// Recovery measures one fault-storm recovery: an n-node instance is
// stabilized once, then each iteration injects faults random corruptions and
// runs back to stabilization under the round-robin scheduler (n steps per
// round — the regime where a per-step full-graph rescan is quadratic and
// the incremental monitor is not).
func Recovery(n, faults int, mode Mode) func(b *testing.B) {
	return func(b *testing.B) {
		g, au, err := buildInstance(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := sim.New(g, au, sim.Options{Seed: 3, Scheduler: sched.NewRoundRobin()})
		if err != nil {
			b.Fatal(err)
		}
		roundBudget := budget.AU(au.K())
		cond := goodCond(mode, au, g, eng)
		if _, err := eng.RunUntil(cond, roundBudget); err != nil {
			b.Fatal(err)
		}
		total := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.InjectFaults(faults)
			r, err := eng.RunUntil(cond, roundBudget)
			if err != nil {
				b.Fatal(err)
			}
			total += r
		}
		b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
	}
}

// Name returns the canonical benchmark name of a scenario, mirrored by the
// BenchmarkHotPath* sub-benchmarks and the JSON artifact.
func Name(scenario string, n int, mode Mode) string {
	return fmt.Sprintf("%s/n=%d/%s", scenario, n, mode)
}

// FrontierName returns the canonical name of a frontier-series scenario.
func FrontierName(scenario string, n int, frontier bool) string {
	m := "dense"
	if frontier {
		m = "frontier"
	}
	return fmt.Sprintf("%s/n=%d/%s", scenario, n, m)
}

// quiescentPeriod starves the laggard victim essentially forever, pinning
// the benchmark in the pure quiescent regime: after the initial wave stalls,
// every step activates n-1 settled nodes and changes nothing.
const quiescentPeriod = 1 << 20

// stabilizedConfig runs a synchronous instance to stabilization and returns
// the resulting good configuration, the shared starting point of the
// frontier-series scenarios.
func stabilizedConfig(b *testing.B, g *graph.Graph, au *core.AU) sa.Config {
	b.Helper()
	eng, err := sim.New(g, au, sim.Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	cond := goodCond(Incremental, au, g, eng)
	if _, err := eng.RunUntil(cond, budget.AU(au.K())); err != nil {
		b.Fatal(err)
	}
	return eng.Config().Clone()
}

// QuiescentSteadyStep measures one engine step on a stabilized n-node
// instance under the laggard scheduler with an effectively infinite period —
// the canonical quiescent regime of self-stabilization workloads: n-1 nodes
// are activated every step and every one of them is a settled no-op. Dense
// execution re-derives Θ(n) signals and transitions per step; frontier
// execution skips them all, so the dense/frontier ratio is the headline
// number of BENCH_hotpath.json's frontier series.
func QuiescentSteadyStep(n int, frontier bool) func(b *testing.B) {
	return func(b *testing.B) {
		g, au, err := buildInstance(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := stabilizedConfig(b, g, au)
		eng, err := sim.New(g, au, sim.Options{
			Initial:   cfg,
			Scheduler: sched.NewLaggard(0, quiescentPeriod),
			Seed:      4,
			Frontier:  frontier,
		})
		if err != nil {
			b.Fatal(err)
		}
		mon := core.NewGoodMonitor(au, g, eng.Config())
		eng.Observe(mon)
		// Warm up past the post-switch wave: non-victim nodes advance until
		// the starved victim stalls them, then the whole graph is quiescent.
		for i := 0; i < 8; i++ {
			if err := eng.Step(); err != nil {
				b.Fatal(err)
			}
		}
		if !mon.Good() {
			b.Fatal("stabilized instance left the good set during warm-up")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Step(); err != nil {
				b.Fatal(err)
			}
			if !mon.Good() {
				b.Fatal("quiescent instance left the good set")
			}
		}
	}
}

// FrontierRecovery measures one fault-burst recovery on a stabilized n-node
// instance under the laggard scheduler (period 8): each iteration corrupts
// faults random nodes and runs back to the good set. Recovery work is
// localized around the fault sites, so dense execution pays Θ(n) per step
// for a handful of real updates while frontier execution pays only for the
// repair wave — the post-fault-recovery series of BENCH_hotpath.json.
func FrontierRecovery(n, faults int, frontier bool) func(b *testing.B) {
	return func(b *testing.B) {
		g, au, err := buildInstance(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := stabilizedConfig(b, g, au)
		eng, err := sim.New(g, au, sim.Options{
			Initial:   cfg,
			Scheduler: sched.NewLaggard(0, 8),
			Seed:      4,
			Frontier:  frontier,
		})
		if err != nil {
			b.Fatal(err)
		}
		mon := core.NewGoodMonitor(au, g, eng.Config())
		eng.Observe(mon)
		cond := func(*sim.Engine) bool { return mon.Good() }
		roundBudget := budget.AU(au.K())
		// Warm up two full rounds so the scheduler-switch wave settles and
		// the frontier drains before timing starts (cond is already true
		// here, so a RunUntil would return without stepping).
		if err := eng.RunRounds(2); err != nil {
			b.Fatal(err)
		}
		if !cond(eng) {
			b.Fatal("stabilized instance left the good set during warm-up")
		}
		total := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.InjectFaults(faults)
			r, err := eng.RunUntil(cond, roundBudget)
			if err != nil {
				b.Fatal(err)
			}
			total += r
		}
		b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
	}
}

// ChurnRecovery measures one topology-churn recovery cycle on a stabilized
// n-node instance under the laggard scheduler (period 8): each iteration
// crashes a fixed cell through the engine churn path (sim.Engine.ApplyDelta
// — all its links drop in one CSR re-compaction), runs driftRounds rounds —
// the isolated cell's clock races ahead of the laggard-throttled tissue —
// then revives it and runs back to the good set. The re-inserted edges are
// unprotected (the clocks disagree by far more than one), so the revival
// triggers a genuine localized recovery wave around the crash site.
//
// Dense execution pays Θ(n) per step for that localized wave — the forced
// full re-scan of every settled node — while frontier execution pays only
// for the wave itself, reseeded from the churn path's endpoint
// invalidation: the dense/frontier ratio is the churn series of
// BENCH_hotpath.json.
func ChurnRecovery(n int, frontier bool) func(b *testing.B) {
	return func(b *testing.B) {
		g, _, err := buildInstance(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		// Pick the first node whose crash keeps the tissue connected, and
		// size the clock for the worst topology of the cycle (the double
		// sweep never under-reports the diameter, and crashing a node can
		// stretch it past the construction bound).
		probe := graph.NewDelta(g)
		_, upper := g.DiameterBounds()
		victim := -1
		for v := 1; v < g.N() && victim < 0; v++ {
			if err := probe.Crash(v); err != nil {
				b.Fatal(err)
			}
			if probe.Connected() {
				if _, up := probe.DiameterBounds(); up >= 0 {
					victim = v
					if up > upper {
						upper = up
					}
				}
			}
			if err := probe.Revive(v); err != nil {
				b.Fatal(err)
			}
		}
		if victim < 0 {
			b.Fatal("no crashable cell keeps the tissue connected")
		}
		au, err := core.NewAU(upper)
		if err != nil {
			b.Fatal(err)
		}
		cfg := stabilizedConfig(b, g, au)
		eng, err := sim.New(g, au, sim.Options{
			Initial:   cfg,
			Scheduler: sched.NewLaggard(0, 8),
			Seed:      4,
			Frontier:  frontier,
		})
		if err != nil {
			b.Fatal(err)
		}
		mon := core.NewGoodMonitor(au, g, eng.Config())
		eng.Observe(mon)
		cond := func(*sim.Engine) bool { return mon.Good() }
		roundBudget := budget.AU(au.K())
		if err := eng.RunRounds(2); err != nil {
			b.Fatal(err)
		}
		if !cond(eng) {
			b.Fatal("stabilized instance left the good set during warm-up")
		}
		const driftRounds = 2
		delta := graph.NewDelta(g)
		total := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := delta.Crash(victim); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.ApplyDelta(delta); err != nil {
				b.Fatal(err)
			}
			if err := eng.RunRounds(driftRounds); err != nil {
				b.Fatal(err)
			}
			if err := delta.Revive(victim); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.ApplyDelta(delta); err != nil {
				b.Fatal(err)
			}
			r, err := eng.RunUntil(cond, roundBudget)
			if err != nil {
				b.Fatal(err)
			}
			total += r
		}
		b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
	}
}

// WordName returns the canonical name of a word-parallel-series scenario.
func WordName(scenario string, n int, word bool) string {
	m := "scalar"
	if word {
		m = "word"
	}
	return fmt.Sprintf("%s/n=%d/%s", scenario, n, m)
}

// WordSteadyStep measures one dense engine step plus stabilization check on
// an already-stabilized n-node instance under the synchronous scheduler,
// with word-parallel execution toggled — the word series of
// BENCH_hotpath.json. The scalar side is SteadyStep's exact regime; the word
// side replaces the per-node sense/transition loop with the batched CSR
// OR-scan plus one fused EvalGood pass, and because the synchronous schedule
// activates every node, each step certifies the goodness plane, so the
// monitor takes the step's changes as one batch that only refreshes its raw
// mirror, and mon.Good() reads its all-zero counters in O(1). Both sides
// must show 0 allocs/op and walk byte-identical trajectories (the engine
// differentials enforce the latter); cmd/hotpathbench -plane-gate enforces
// the speedup ratio.
func WordSteadyStep(n int, word bool) func(b *testing.B) {
	return func(b *testing.B) {
		g, au, err := buildInstance(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := sim.New(g, au, sim.Options{Seed: 2, WordParallel: word})
		if err != nil {
			b.Fatal(err)
		}
		if word && !eng.WordActive() {
			b.Fatal("word-parallel mode did not engage")
		}
		cond := goodCond(Incremental, au, g, eng)
		if _, err := eng.RunUntil(cond, budget.AU(au.K())); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Step(); err != nil {
				b.Fatal(err)
			}
			if !cond(eng) {
				b.Fatal("stabilized instance left the good set")
			}
		}
	}
}
