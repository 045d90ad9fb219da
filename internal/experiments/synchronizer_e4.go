package experiments

import (
	"math/rand"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mis"
	"thinunison/internal/restart"
	"thinunison/internal/sched"
	"thinunison/internal/stats"
	"thinunison/internal/synchronizer"
)

// E4 validates Corollary 1.2: AlgMIS and AlgLE, wrapped in the
// synchronizer, stabilize under asynchronous adversarial schedulers, with
// the predicted additive O(D³) overhead and O(D·|Q|²) state space.
func E4(cfg Config) (Result, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	res := Result{ID: "E4 (Cor 1.2: synchronizer lifts AlgLE/AlgMIS to asynchrony)", OK: true}

	tbl := stats.NewTable("Asynchronous stabilization rounds (bounded-diameter family, D=2)",
		"task", "scheduler", "n", "instances", "median", "max")

	const d = 2
	for _, task := range []string{"MIS", "LE"} {
		for _, schedName := range []string{"round-robin", "random-subset", "laggard"} {
			n := 10
			if cfg.Quick {
				n = 8
			}
			var rounds []int
			for trial := 0; trial < cfg.Trials; trial++ {
				g, err := graph.BoundedDiameter(n, d, rng)
				if err != nil {
					return res, err
				}
				var s sched.Scheduler
				switch schedName {
				case "round-robin":
					s = sched.NewRoundRobin()
				case "random-subset":
					s = sched.NewRandomSubsetSeeded(0.5, 8, rng.Int63())
				case "laggard":
					s = sched.NewLaggard(trial%n, 3)
				}
				logn := stats.Log2(n)
				k := 3*d + 2
				budget := 80*k*k*k + 2000*(d+logn)*logn + 8000

				var r int
				var ok bool
				switch task {
				case "MIS":
					r, ok = runAsyncMIS(g, d, s, rng, budget)
				case "LE":
					r, ok = runAsyncLE(g, d, s, rng, budget)
				}
				if !ok {
					res.OK = false
					r = budget
				}
				rounds = append(rounds, r)
			}
			sum := stats.SummarizeInts(rounds)
			tbl.AddRow(task, schedName, n, sum.N, sum.Median, sum.Max)
		}
	}
	res.Tables = append(res.Tables, tbl)

	// State-space accounting (the O(D·|Q|²) column of Corollary 1.2).
	space := stats.NewTable("Product state space |Q*| = |T|·|Q|²", "D", "|T| (AlgAU)", "|Q*|/|Q|^2")
	for dd := 1; dd <= 4; dd++ {
		sy, err := synchronizer.New[bool](dd, func(b bool, _ []bool, _ *rand.Rand) bool { return b })
		if err != nil {
			return res, err
		}
		space.AddRow(dd, sy.AU().NumStates(), sy.StateSpaceSize(1))
	}
	res.Tables = append(res.Tables, space)

	res.Note = "both tasks stabilize under every asynchronous scheduler; overhead is the additive O(D^3) AU term"
	if !res.OK {
		res.Note = "E4 FAILED: some asynchronous instance missed its budget"
	}
	return res, nil
}

func runAsyncMIS(g *graph.Graph, d int, s sched.Scheduler, rng *rand.Rand, budget int) (int, bool) {
	malg, err := mis.New(mis.Params{D: d})
	if err != nil {
		return budget, false
	}
	sy, err := synchronizer.New[restart.State[mis.State]](d, malg.Step)
	if err != nil {
		return budget, false
	}
	initial := make([]synchronizer.State[restart.State[mis.State]], g.N())
	for v := range initial {
		initial[v] = synchronizer.State[restart.State[mis.State]]{
			Cur:  malg.RandomState(rng),
			Prev: malg.RandomState(rng),
			Turn: rng.Intn(sy.AU().NumStates()),
		}
	}
	eng, err := asyncsim.New(g, sy.Step, initial, s, rng.Int63())
	if err != nil {
		return budget, false
	}
	return eng.RunUntil(func(e *asyncsim.Engine[synchronizer.State[restart.State[mis.State]]]) bool {
		states := e.States()
		pi := make([]restart.State[mis.State], len(states))
		for v, st := range states {
			pi[v] = st.Cur
		}
		return mis.Stable(g, pi)
	}, budget)
}

func runAsyncLE(g *graph.Graph, d int, s sched.Scheduler, rng *rand.Rand, budget int) (int, bool) {
	lalg, err := le.New(le.Params{D: d})
	if err != nil {
		return budget, false
	}
	sy, err := synchronizer.New[restart.State[le.State]](d, lalg.Step)
	if err != nil {
		return budget, false
	}
	initial := make([]synchronizer.State[restart.State[le.State]], g.N())
	for v := range initial {
		initial[v] = synchronizer.State[restart.State[le.State]]{
			Cur:  lalg.RandomState(rng),
			Prev: lalg.RandomState(rng),
			Turn: rng.Intn(sy.AU().NumStates()),
		}
	}
	eng, err := asyncsim.New(g, sy.Step, initial, s, rng.Int63())
	if err != nil {
		return budget, false
	}
	return eng.RunUntil(func(e *asyncsim.Engine[synchronizer.State[restart.State[le.State]]]) bool {
		states := e.States()
		pi := make([]restart.State[le.State], len(states))
		for v, st := range states {
			pi[v] = st.Cur
		}
		return le.Stable(pi)
	}, budget)
}
