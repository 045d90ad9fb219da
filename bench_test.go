package thinunison_test

// One benchmark per evaluation artifact of the paper (see the experiment
// index in the internal/experiments package doc). Each benchmark regenerates
// its artifact once per iteration and reports the domain metric (rounds to
// stabilization) via b.ReportMetric alongside the usual ns/op:
//
//	go test -bench=. -benchmem
//
// The full printable tables come from cmd/experiments; these benches are the
// repeatable, profiled form of the same measurements.

import (
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/baseline"
	"thinunison/internal/bio"
	"thinunison/internal/core"
	"thinunison/internal/experiments"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mc"
	"thinunison/internal/mis"
	"thinunison/internal/naive"
	"thinunison/internal/restart"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/syncsim"
)

// BenchmarkTable1Enumeration is T1: the exhaustive Table 1 conformance
// enumeration.
func BenchmarkTable1Enumeration(b *testing.B) {
	au, err := core.NewAU(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := au.CheckTable1Conformance(1)
		if len(rep.Mismatches) != 0 {
			b.Fatal("conformance mismatch")
		}
	}
}

// BenchmarkFigure1Diagram is F1: deriving the state diagram behaviorally.
func BenchmarkFigure1Diagram(b *testing.B) {
	au, err := core.NewAU(2)
	if err != nil {
		b.Fatal(err)
	}
	want := len(au.DiagramEdges())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(au.DerivedEdges()); got != want {
			b.Fatalf("derived %d edges, want %d", got, want)
		}
	}
}

// BenchmarkFigure2LiveLock is F2: detecting the live-lock period of the
// Appendix A algorithm.
func BenchmarkFigure2LiveLock(b *testing.B) {
	li, err := naive.NewLiveLockInstance()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := li.AnalyzeLiveLock(1000)
		if err != nil || rep.Period == 0 || rep.LegitimateSeen {
			b.Fatal("live-lock not reproduced")
		}
	}
}

// BenchmarkAUStabilization is E1: one AlgAU stabilization per iteration,
// for each diameter bound; reports rounds/op.
func BenchmarkAUStabilization(b *testing.B) {
	for _, d := range []int{1, 2, 3, 4, 6} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			au, err := core.NewAU(d)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			g, err := graph.BoundedDiameter(3*d+4, d, rng)
			if err != nil {
				b.Fatal(err)
			}
			k := au.K()
			budget := 60*k*k*k + 500
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := sim.New(g, au, sim.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				r, err := eng.RunUntil(func(e *sim.Engine) bool {
					return au.GraphGood(g, e.Config())
				}, budget)
				if err != nil {
					b.Fatal(err)
				}
				total += r
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkAUStabilizationAsync is E1's asynchronous column: AlgAU under
// the round-robin daemon.
func BenchmarkAUStabilizationAsync(b *testing.B) {
	const d = 3
	au, err := core.NewAU(d)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	g, err := graph.BoundedDiameter(3*d+4, d, rng)
	if err != nil {
		b.Fatal(err)
	}
	k := au.K()
	budget := 60*k*k*k + 500
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := sim.New(g, au, sim.Options{Seed: int64(i), Scheduler: sched.NewRoundRobin()})
		if err != nil {
			b.Fatal(err)
		}
		r, err := eng.RunUntil(func(e *sim.Engine) bool {
			return au.GraphGood(g, e.Config())
		}, budget)
		if err != nil {
			b.Fatal(err)
		}
		total += r
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
}

// BenchmarkLEStabilization is E2: one AlgLE run per iteration from
// adversarial states, for growing n; reports rounds/op.
func BenchmarkLEStabilization(b *testing.B) {
	benchLEMIS(b, func(g *graph.Graph, d int, rng *rand.Rand, budget int) (int, bool) {
		alg, err := le.New(le.Params{D: d})
		if err != nil {
			return 0, false
		}
		initial := make([]restart.State[le.State], g.N())
		for v := range initial {
			initial[v] = alg.RandomState(rng)
		}
		eng, err := syncsim.New(g, alg.Step, initial, rng.Int63())
		if err != nil {
			return 0, false
		}
		return eng.RunUntil(func(e *syncsim.Engine[restart.State[le.State]]) bool {
			return le.Stable(e.States())
		}, budget)
	})
}

// BenchmarkMISStabilization is E3: one AlgMIS run per iteration.
func BenchmarkMISStabilization(b *testing.B) {
	benchLEMIS(b, func(g *graph.Graph, d int, rng *rand.Rand, budget int) (int, bool) {
		alg, err := mis.New(mis.Params{D: d})
		if err != nil {
			return 0, false
		}
		initial := make([]restart.State[mis.State], g.N())
		for v := range initial {
			initial[v] = alg.RandomState(rng)
		}
		eng, err := syncsim.New(g, alg.Step, initial, rng.Int63())
		if err != nil {
			return 0, false
		}
		return eng.RunUntil(func(e *syncsim.Engine[restart.State[mis.State]]) bool {
			return mis.Stable(g, e.States())
		}, budget)
	})
}

func benchLEMIS(b *testing.B, run func(*graph.Graph, int, *rand.Rand, int) (int, bool)) {
	const d = 3
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			g, err := graph.BoundedDiameter(n, d, rng)
			if err != nil {
				b.Fatal(err)
			}
			logn := 1
			for v := n; v > 1; v >>= 1 {
				logn++
			}
			budget := 3000*(d+logn)*logn + 5000
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, ok := run(g, d, rng, budget)
				if !ok {
					b.Fatal("did not stabilize in budget")
				}
				total += r
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkSynchronizer is E4: asynchronous MIS and LE through the
// Corollary 1.2 product construction (full experiment in quick mode).
func BenchmarkSynchronizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E4(experiments.Config{Seed: int64(i), Quick: true})
		if err != nil || !res.OK {
			b.Fatalf("E4 failed: %v %s", err, res.Note)
		}
	}
}

// BenchmarkRestart is E5: one Theorem 3.1 trial per iteration; reports the
// exit round as rounds/op.
func BenchmarkRestart(b *testing.B) {
	for _, d := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(d)))
			g, err := graph.BoundedDiameter(3*d+4, d, rng)
			if err != nil {
				b.Fatal(err)
			}
			res, err := experiments.E5(experiments.Config{Seed: int64(d), Quick: true, MaxD: d})
			if err != nil || !res.OK {
				b.Fatalf("E5 precheck failed: %v", err)
			}
			mod, err := restart.NewModule[int](d,
				func() int { return 0 },
				func(self int, _ []int, _ *rand.Rand) (int, bool) { return self + 1, false })
			if err != nil {
				b.Fatal(err)
			}
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				initial := make([]restart.State[int], g.N())
				for v := range initial {
					if rng.Intn(2) == 0 {
						initial[v] = restart.State[int]{InRestart: true, Pos: rng.Intn(2*d + 1)}
					} else {
						initial[v] = restart.State[int]{Alg: 1 + rng.Intn(3)}
					}
				}
				initial[0] = restart.State[int]{InRestart: true}
				eng, err := syncsim.New(g, mod.Step, initial, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				exited := false
				for r := 1; r <= 6*d+4; r++ {
					eng.Round()
					all := true
					for v := 0; v < g.N(); v++ {
						if eng.State(v).InRestart {
							all = false
							break
						}
					}
					if all {
						total += r
						exited = true
						break
					}
				}
				if !exited {
					b.Fatal("no exit within 6D+4 rounds")
				}
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkBaselineComparison is E6: AlgAU vs the min-rule baseline on the
// same instance (per-iteration stabilization each).
func BenchmarkBaselineComparison(b *testing.B) {
	const d = 3
	rng := rand.New(rand.NewSource(3))
	g, err := graph.BoundedDiameter(3*d+4, d, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("algau", func(b *testing.B) {
		au, err := core.NewAU(d)
		if err != nil {
			b.Fatal(err)
		}
		k := au.K()
		total := 0
		for i := 0; i < b.N; i++ {
			eng, err := sim.New(g, au, sim.Options{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			r, err := eng.RunUntil(func(e *sim.Engine) bool {
				return au.GraphGood(g, e.Config())
			}, 60*k*k*k+500)
			if err != nil {
				b.Fatal(err)
			}
			total += r
		}
		b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
		b.ReportMetric(float64(au.NumStates()), "states")
	})
	b.Run("minrule", func(b *testing.B) {
		horizon := 20 * (d + 2)
		bl, err := baseline.NewMinUnison(64 + horizon)
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for i := 0; i < b.N; i++ {
			initial := make(sa.Config, g.N())
			r2 := rand.New(rand.NewSource(int64(i)))
			for v := range initial {
				initial[v] = r2.Intn(64)
			}
			eng, err := sim.New(g, bl, sim.Options{Initial: initial, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			r, err := eng.RunUntil(func(e *sim.Engine) bool {
				return bl.SafetyHolds(g, e.Config())
			}, horizon)
			if err != nil {
				b.Fatal(err)
			}
			total += r
		}
		b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
		b.ReportMetric(float64(bl.NumStates()), "states")
	})
}

// BenchmarkFaultRecovery is E7: one fault burst + recovery per iteration on
// the cellular substrate.
func BenchmarkFaultRecovery(b *testing.B) {
	net, err := bio.NewNetwork(bio.Config{Cells: 16, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	k := net.AU().K()
	budget := 60*k*k*k + 500
	if _, err := net.RunUntilSynchronized(budget); err != nil {
		b.Fatal(err)
	}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := net.MeasureRecovery(4, budget)
		if err != nil {
			b.Fatal(err)
		}
		total += r
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
}

// BenchmarkBioScenario is E8: the full cellular scenario in quick mode.
func BenchmarkBioScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E8(experiments.Config{Seed: int64(i), Quick: true})
		if err != nil || !res.OK {
			b.Fatalf("E8 failed: %v %s", err, res.Note)
		}
	}
}

// BenchmarkTransition is the microbenchmark of AlgAU's hot path: one
// transition-function evaluation (allocation-free).
func BenchmarkTransition(b *testing.B) {
	au, err := core.NewAU(4)
	if err != nil {
		b.Fatal(err)
	}
	sig := sa.NewSignal(au.NumStates())
	q := au.MustState(core.Turn{Level: 3})
	sig.Set(q)
	sig.Set(au.MustState(core.Turn{Level: 4}))
	sig.Set(au.MustState(core.Turn{Level: 2, Faulty: true}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		au.Transition(q, sig, nil)
	}
}

// BenchmarkEngineStep measures one engine step (synchronous, 32 nodes).
func BenchmarkEngineStep(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g, err := graph.RandomConnected(32, 0.15, rng)
	if err != nil {
		b.Fatal(err)
	}
	au, err := core.NewAU(g.Diameter())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.New(g, au, sim.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation is E9: the design-choice ablation sweep in quick mode.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E9(experiments.Config{Seed: int64(i), Quick: true})
		if err != nil || !res.OK {
			b.Fatalf("E9 failed: %v %s", err, res.Note)
		}
	}
}

// BenchmarkModelCheck is V1: exhaustive verification of Theorem 1.1 on C3
// (5,832 configurations x 7 adversarial moves) per iteration.
func BenchmarkModelCheck(b *testing.B) {
	g, err := graph.Cycle(3)
	if err != nil {
		b.Fatal(err)
	}
	au, err := core.NewAU(g.Diameter())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sys, err := mc.Build(g, au)
		if err != nil {
			b.Fatal(err)
		}
		good := func(cfg sa.Config) bool { return au.GraphGood(g, cfg) }
		if ok, _, _ := sys.CheckClosure(good); !ok {
			b.Fatal("closure violated")
		}
		if _, exists := sys.FairDivergence(good); exists {
			b.Fatal("fair divergence found")
		}
	}
}
