package experiments

import (
	"math/rand"

	"thinunison/internal/campaign"
	"thinunison/internal/graph"
	"thinunison/internal/randx"
	"thinunison/internal/sched"
	"thinunison/internal/stats"
	"thinunison/internal/synchronizer"
)

// E4 validates Corollary 1.2: AlgMIS and AlgLE, wrapped in the
// synchronizer, stabilize under asynchronous adversarial schedulers, with
// the predicted additive O(D³) overhead and O(D·|Q|²) state space.
func E4(cfg Config) (Result, error) {
	cfg.defaults()
	rng := rand.New(randx.NewSource(cfg.Seed + 4))
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
				var r int
				var ok bool
				switch task {
				case "MIS":
					r, ok, err = runSynchronized(campaign.MISTask, g, d, s, rng)
				case "LE":
					r, ok, err = runSynchronized(campaign.LETask, g, d, s, rng)
				}
				if err != nil {
					return res, err
				}
				if !ok {
					res.OK = false
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

// runSynchronized runs a task through the synchronizer under s, drawing
// the initial states and then the engine seed from rng. A run that misses
// its budget reports the budget as its rounds.
func runSynchronized[S comparable](newTask func(d int) (campaign.Task[S], error), g *graph.Graph, d int, s sched.Scheduler, rng *rand.Rand) (int, bool, error) {
	t, err := newTask(d)
	if err != nil {
		return 0, false, err
	}
	run, err := t.Synchronized(g, s, rng, rng.Int63)
	if err != nil {
		return 0, false, err
	}
	rounds, ok := run.RunUntilStable()
	return rounds, ok, nil
}
