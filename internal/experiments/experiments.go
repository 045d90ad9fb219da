// Package experiments regenerates every evaluation artifact of the paper:
// Table 1, Figure 1, Figure 2, and the empirical validations of Theorems
// 1.1, 1.3, 1.4, 3.1 and Corollary 1.2. The experiment index:
//
//	T1  Table 1: transition types of AlgAU
//	F1  Figure 1: AlgAU state diagram
//	F2  Figure 2: live-lock of the reset-based attempt (Appendix A)
//	E1  Thm 1.1: AlgAU uses O(D) states and stabilizes in O(D^3) rounds
//	E2  Thm 1.3: AlgLE stabilizes in O(D log n) synchronous rounds
//	E3  Thm 1.4: AlgMIS stabilizes in O((D + log n) log n) rounds
//	E4  Cor 1.2: the synchronizer lifts AlgLE/AlgMIS to asynchrony
//	E5  Thm 3.1: Restart exits concurrently within O(D)
//	E6  Sec. 5: AlgAU vs the min-rule unison baseline
//	E7  transient-fault recovery on the cellular substrate (internal/bio)
//	E8  the biological pulse-coordination scenario
//	E9  ablation: why k = 3D+2, fault propagation, cautious FA
//	V1  model checking: Thm 1.1 on small instances, the Appendix A live-lock
//
// The cmd/experiments binary prints these tables with an OK/FAILED verdict
// each (cmd/experiments -run E1 selects one); the root bench_test.go wraps
// each one in a testing.B benchmark.
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"thinunison/internal/baseline"
	"thinunison/internal/bio"
	"thinunison/internal/budget"
	"thinunison/internal/campaign"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/naive"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/stats"
)

// Result is a regenerated artifact: one or more rendered tables plus a
// machine-checkable verdict.
type Result struct {
	ID     string
	Tables []*stats.Table
	// OK reports whether the artifact's acceptance criterion held (e.g.
	// "all instances stabilized within the bound").
	OK bool
	// Note summarizes the verdict in one line.
	Note string
}

// Render returns the result as printable text.
func (r Result) Render() string {
	out := fmt.Sprintf("=== %s ===\n", r.ID)
	for _, t := range r.Tables {
		out += t.Render() + "\n"
	}
	status := "OK"
	if !r.OK {
		status = "FAILED"
	}
	out += fmt.Sprintf("[%s] %s\n", status, r.Note)
	return out
}

// Config controls experiment scale; the zero value uses defaults suitable
// for a laptop run of a few minutes.
type Config struct {
	Seed int64
	// Trials per parameter point (default 5).
	Trials int
	// MaxD is the largest diameter bound swept by E1 (default 6).
	MaxD int
	// MaxN is the largest node count swept by E2/E3 (default 96).
	MaxN int
	// Quick trims the sweeps for bench iterations.
	Quick bool
}

func (c *Config) defaults() {
	if c.Trials == 0 {
		c.Trials = 5
	}
	if c.MaxD == 0 {
		c.MaxD = 6
	}
	if c.MaxN == 0 {
		c.MaxN = 96
	}
	if c.Quick {
		if c.Trials > 2 {
			c.Trials = 2
		}
		if c.MaxD > 4 {
			c.MaxD = 4
		}
		if c.MaxN > 32 {
			c.MaxN = 32
		}
	}
}

// T1 regenerates Table 1 and runs the exhaustive transition-function
// conformance check.
func T1(cfg Config) (Result, error) {
	cfg.defaults()
	res := Result{ID: "T1 (Table 1: transition types of AlgAU)"}
	tbl := stats.NewTable("Table 1 (as implemented)", "type", "pre", "post", "condition")
	for _, row := range core.Table1() {
		tbl.AddRow(row.Type.String(), row.Pre, row.Post, row.Condition)
	}
	res.Tables = append(res.Tables, tbl)

	conf := stats.NewTable("Conformance enumeration", "D", "pairs", "AA", "AF", "FA", "stay", "mismatches")
	res.OK = true
	maxD := 3
	if cfg.Quick {
		maxD = 2
	}
	for d := 1; d <= maxD; d++ {
		au, err := core.NewAU(d)
		if err != nil {
			return res, err
		}
		rep := au.CheckTable1Conformance(3)
		conf.AddRow(d, rep.PairsChecked,
			rep.CountByType[core.AA], rep.CountByType[core.AF],
			rep.CountByType[core.FA], rep.CountByType[core.None],
			len(rep.Mismatches))
		if len(rep.Mismatches) > 0 {
			res.OK = false
		}
	}
	res.Tables = append(res.Tables, conf)
	res.Note = "implemented δ agrees with a literal transcription of Table 1 on an exhaustive enumeration"
	if !res.OK {
		res.Note = "MISMATCH against Table 1"
	}
	return res, nil
}

// F1 regenerates Figure 1: the derived transition diagram must equal the
// structural one, with the arrow counts 2k / 2(k−1) / 2(k−1).
func F1(cfg Config) (Result, error) {
	cfg.defaults()
	res := Result{ID: "F1 (Figure 1: AlgAU state diagram)", OK: true}
	tbl := stats.NewTable("Arrow counts", "D", "k", "states", "AA", "AF", "FA", "derived==figure")
	maxD := 4
	if cfg.Quick {
		maxD = 2
	}
	for d := 1; d <= maxD; d++ {
		au, err := core.NewAU(d)
		if err != nil {
			return res, err
		}
		want := au.DiagramEdges()
		got := au.DerivedEdges()
		equal := len(got) == len(want)
		if equal {
			for i := range want {
				if got[i] != want[i] {
					equal = false
					break
				}
			}
		}
		byType := map[core.TransitionType]int{}
		for _, e := range want {
			byType[e.Type]++
		}
		tbl.AddRow(d, au.K(), au.NumStates(), byType[core.AA], byType[core.AF], byType[core.FA], equal)
		if !equal {
			res.OK = false
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.Note = "behaviorally derived arrows equal the Figure 1 arrow set; DOT via cmd/statediagram"
	if !res.OK {
		res.Note = "derived diagram DIFFERS from Figure 1"
	}
	return res, nil
}

// F2 regenerates Figure 2: the live-lock of the Appendix A algorithm, and
// the head-to-head with AlgAU on the same instance.
func F2(cfg Config) (Result, error) {
	cfg.defaults()
	res := Result{ID: "F2 (Figure 2: live-lock of the reset-based attempt)"}
	li, err := naive.NewLiveLockInstance()
	if err != nil {
		return res, err
	}
	rep, err := li.AnalyzeLiveLock(1000)
	if err != nil {
		return res, err
	}

	trace := stats.NewTable("Execution from the Figure 2(a) configuration (one sweep = 8 steps)",
		"sweep", "configuration", "legitimate")
	alg := li.Alg
	for i, cfgI := range rep.Sweeps {
		if i > 9 {
			break
		}
		trace.AddRow(i, sa.Config(cfgI).String(alg), alg.Legitimate(cfgI, li.Graph.Edges()))
	}
	res.Tables = append(res.Tables, trace)

	// AlgAU on the same instance and schedule.
	au, err := core.NewAU(li.Graph.Diameter())
	if err != nil {
		return res, err
	}
	eng, err := sim.New(li.Graph, au, sim.Options{
		Scheduler: sched.NewScripted(li.Script, true),
		Seed:      1,
	})
	if err != nil {
		return res, err
	}
	k := au.K()
	auRounds, auErr := eng.RunUntil(func(e *sim.Engine) bool {
		return au.GraphGood(li.Graph, e.Config())
	}, 50*k*k*k)

	cmp := stats.NewTable("Head-to-head on the live-lock instance (C8, D=2)",
		"algorithm", "outcome")
	cmp.AddRow("Appendix A (reset-based)", fmt.Sprintf("live-lock: period %d sweeps from sweep %d, never legitimate", rep.Period, rep.PeriodStart))
	if auErr == nil {
		cmp.AddRow("AlgAU", fmt.Sprintf("stabilized after %d rounds", auRounds))
	} else {
		cmp.AddRow("AlgAU", "FAILED to stabilize")
	}
	res.Tables = append(res.Tables, cmp)

	res.OK = rep.Period > 0 && !rep.LegitimateSeen && auErr == nil
	res.Note = "reset-based attempt live-locks forever; AlgAU stabilizes on the same instance"
	if !res.OK {
		res.Note = "live-lock reproduction FAILED"
	}
	return res, nil
}

// E1 validates Theorem 1.1: AU state space O(D) and stabilization O(D³)
// rounds, sweeping D over graph families, schedulers and adversarial
// initializations. The sweep is expressed as campaign scenarios and executed
// on the parallel campaign runner.
func E1(cfg Config) (Result, error) {
	cfg.defaults()
	res := Result{ID: "E1 (Thm 1.1: AlgAU states O(D), stabilization O(D^3))", OK: true}
	tbl := stats.NewTable("AlgAU stabilization sweep (rounds to good graph)",
		"D", "k", "states", "instances", "median", "p95", "max", "max/D^3")

	var scenarios []campaign.Scenario
	for d := 1; d <= cfg.MaxD; d++ {
		for _, gs := range e1Graphs(d, cfg.MaxN/3+8) {
			for _, s := range e1Schedulers() {
				for trial := 0; trial < cfg.Trials; trial++ {
					scenarios = append(scenarios, campaign.Scenario{
						Family:    gs.family,
						N:         gs.n,
						D:         d,
						Scheduler: s,
						Algorithm: campaign.AlgAU,
						Trial:     trial,
					})
				}
			}
		}
	}
	records, err := (&campaign.Runner{}).Run(context.Background(),
		campaign.Finalize(cfg.Seed+1, scenarios))
	if err != nil {
		return res, err
	}

	roundsByD := make(map[int][]int)
	for _, rec := range records {
		if !rec.OK {
			res.OK = false
		}
		roundsByD[rec.D] = append(roundsByD[rec.D], rec.Rounds)
	}
	var ds, maxs []float64
	for d := 1; d <= cfg.MaxD; d++ {
		au, err := core.NewAU(d)
		if err != nil {
			return res, err
		}
		sum := stats.SummarizeInts(roundsByD[d])
		d3 := float64(d * d * d)
		tbl.AddRow(d, au.K(), au.NumStates(), sum.N, sum.Median, sum.P95, sum.Max, sum.Max/d3)
		ds = append(ds, float64(d))
		maxs = append(maxs, sum.Max)
	}
	res.Tables = append(res.Tables, tbl)

	_, exp, ok := stats.FitPowerLaw(ds, maxs)
	note := "all instances stabilized within the O(D^3) budget"
	if ok {
		note += fmt.Sprintf("; worst-case growth fits D^%.2f (theorem allows up to D^3)", exp)
		if exp > 3.3 {
			res.OK = false
		}
	}
	res.Note = note
	if !res.OK {
		res.Note = "E1 FAILED: " + note
	}
	return res, nil
}

// E2 validates Theorem 1.3: LE stabilizes in O(D log n) synchronous rounds.
func E2(cfg Config) (Result, error) {
	return leMisSweep(cfg, "E2 (Thm 1.3: AlgLE stabilization O(D log n))", campaign.AlgLE)
}

// E3 validates Theorem 1.4: MIS stabilizes in O((D + log n) log n) rounds.
func E3(cfg Config) (Result, error) {
	return leMisSweep(cfg, "E3 (Thm 1.4: AlgMIS stabilization O((D+log n) log n))", campaign.AlgMIS)
}

// E5 validates Theorem 3.1 statistically: Restart always exits concurrently
// within the O(D) bound.
func E5(cfg Config) (Result, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	res := Result{ID: "E5 (Thm 3.1: Restart exits concurrently within O(D))", OK: true}
	tbl := stats.NewTable("Restart exit sweep", "D", "graphs", "trials", "median exit", "max exit", "bound 6D+4", "all concurrent")
	maxD := 6
	if cfg.Quick {
		maxD = 3
	}
	for d := 1; d <= maxD; d++ {
		var exits []int
		allConc := true
		trials := 0
		graphs := sweepGraphsExactD(d, rng)
		for _, g := range graphs {
			for trial := 0; trial < cfg.Trials*4; trial++ {
				exit, conc := restartTrial(g, d, rng)
				trials++
				if exit < 0 || !conc {
					allConc = false
					res.OK = false
					continue
				}
				exits = append(exits, exit)
			}
		}
		sum := stats.SummarizeInts(exits)
		tbl.AddRow(d, len(graphs), trials, sum.Median, sum.Max, 6*d+4, allConc)
		if sum.Max > float64(6*d+4) {
			res.OK = false
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.Note = "every trial exited Restart concurrently within the O(D) bound"
	if !res.OK {
		res.Note = "E5 FAILED"
	}
	return res, nil
}

// E6 regenerates the Sec. 5 comparison: state space of AlgAU vs the
// min-rule baseline, and their stabilization times.
func E6(cfg Config) (Result, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	res := Result{ID: "E6 (Sec. 5: AlgAU vs min-rule unison baseline)", OK: true}

	states := stats.NewTable("State space for a given execution horizon H (independent of n for AlgAU)",
		"D", "AlgAU states (12D+6)", "baseline states, H=10^3", "baseline states, H=10^6")
	for d := 1; d <= cfg.MaxD; d++ {
		au, err := core.NewAU(d)
		if err != nil {
			return res, err
		}
		states.AddRow(d, au.NumStates(),
			baseline.StatesForHorizon(64, 1_000),
			baseline.StatesForHorizon(64, 1_000_000))
	}
	res.Tables = append(res.Tables, states)

	times := stats.NewTable("Synchronous stabilization rounds (median over instances)",
		"D", "AlgAU", "baseline (unbounded emulation)")
	for d := 1; d <= cfg.MaxD; d++ {
		au, err := core.NewAU(d)
		if err != nil {
			return res, err
		}
		k := au.K()
		var auR, blR []int
		for _, g := range sweepGraphsExactD(d, rng) {
			for trial := 0; trial < cfg.Trials; trial++ {
				eng, err := sim.New(g, au, sim.Options{Seed: rng.Int63()})
				if err != nil {
					return res, err
				}
				r, err := eng.RunUntil(func(e *sim.Engine) bool {
					return au.GraphGood(g, e.Config())
				}, budget.AU(k))
				if err != nil {
					res.OK = false
				}
				auR = append(auR, r)

				horizon := 20 * (d + 2)
				bl, err := baseline.NewMinUnison(64 + horizon)
				if err != nil {
					return res, err
				}
				initial := make(sa.Config, g.N())
				for v := range initial {
					initial[v] = rng.Intn(64)
				}
				beng, err := sim.New(g, bl, sim.Options{Initial: initial, Seed: rng.Int63()})
				if err != nil {
					return res, err
				}
				r, err = beng.RunUntil(func(e *sim.Engine) bool {
					return bl.SafetyHolds(g, e.Config())
				}, horizon)
				if err != nil {
					res.OK = false
				}
				blR = append(blR, r)
			}
		}
		times.AddRow(d, stats.SummarizeInts(auR).Median, stats.SummarizeInts(blR).Median)
	}
	res.Tables = append(res.Tables, times)
	res.Note = "AlgAU: O(D) states always; baseline needs states ~ horizon (unbounded) but stabilizes in O(D) rounds — the paper's trade-off"
	if !res.OK {
		res.Note = "E6 FAILED: some instance missed its budget"
	}
	return res, nil
}

// E7 measures fault recovery on the biological substrate: re-stabilization
// time distribution as a function of the fault burst size.
func E7(cfg Config) (Result, error) {
	cfg.defaults()
	res := Result{ID: "E7 (transient-fault recovery on the cellular substrate)", OK: true}
	tbl := stats.NewTable("Recovery rounds vs fault burst size (population of 16 cells)",
		"corrupted cells", "bursts", "median", "p95", "max")
	cells := 16
	if cfg.Quick {
		cells = 10
	}
	for _, burst := range []int{1, cells / 4, cells / 2, cells} {
		n, err := bio.NewNetwork(bio.Config{Cells: cells, Seed: cfg.Seed + int64(burst)})
		if err != nil {
			return res, err
		}
		k := n.AU().K()
		roundBudget := budget.AU(k)
		if _, err := n.RunUntilSynchronized(roundBudget); err != nil {
			res.OK = false
			continue
		}
		for i := 0; i < cfg.Trials*3; i++ {
			if _, err := n.MeasureRecovery(burst, roundBudget); err != nil {
				res.OK = false
			}
		}
		sum := stats.SummarizeInts(n.Recoveries())
		tbl.AddRow(burst, sum.N, sum.Median, sum.P95, sum.Max)
	}
	res.Tables = append(res.Tables, tbl)
	res.Note = "every fault burst recovered within the O(D^3) budget; recovery grows mildly with burst size"
	if !res.OK {
		res.Note = "E7 FAILED: some burst did not recover in budget"
	}
	return res, nil
}

// E8 runs the biological application scenario: synchronize, pulse, churn,
// shock, keep pulsing.
func E8(cfg Config) (Result, error) {
	cfg.defaults()
	res := Result{ID: "E8 (biological pulse-coordination scenario)", OK: true}
	n, err := bio.NewNetwork(bio.Config{Cells: 18, EdgeDensity: 0.3, Seed: cfg.Seed + 8})
	if err != nil {
		return res, err
	}
	k := n.AU().K()
	roundBudget := budget.AU(k)
	tbl := stats.NewTable("Scenario timeline", "event", "rounds", "outcome")

	r, err := n.RunUntilSynchronized(roundBudget)
	if err != nil {
		res.OK = false
	}
	tbl.AddRow("cold start (arbitrary cell states)", r, "synchronized")

	counts, err := n.PulseCounts(40)
	if err != nil {
		res.OK = false
	} else {
		sum := stats.SummarizeInts(counts)
		tbl.AddRow("pulse for 40 rounds", 40, fmt.Sprintf("every cell pulsed (min %v, max %v)", sum.Min, sum.Max))
	}

	if ok, err := n.Churn(2); err != nil {
		return res, err
	} else if ok {
		r, err = n.RunUntilSynchronized(roundBudget)
		if err != nil {
			res.OK = false
		}
		tbl.AddRow("link churn (2 rewires)", r, "re-synchronized")
	} else {
		tbl.AddRow("link churn (2 rewires)", 0, "no admissible rewiring found (skipped)")
	}

	r, err = n.MeasureRecovery(6, roundBudget)
	if err != nil {
		res.OK = false
	}
	tbl.AddRow("environmental shock (6 cells corrupted)", r, "recovered")

	res.Tables = append(res.Tables, tbl)
	res.Note = "the pulse clock survives cold start, churn and shocks — the paper's fault-tolerant biological network story"
	if !res.OK {
		res.Note = "E8 FAILED"
	}
	return res, nil
}

// All runs every experiment (E4 is in synchronizer_exp.go).
func All(cfg Config) ([]Result, error) {
	runs := []func(Config) (Result, error){T1, F1, F2, E1, E2, E3, E4, E5, E6, E7, E8, E9, V1}
	out := make([]Result, 0, len(runs))
	for _, run := range runs {
		r, err := run(cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", r.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// --- shared sweep helpers ------------------------------------------------

// e1Graphs is the representative family suite of the E1 sweep as declarative
// campaign graph specs: diameters are at most d (AlgAU's contract allows
// diam <= D).
func e1Graphs(d, n int) []struct {
	family graph.Family
	n      int
} {
	type gs = struct {
		family graph.Family
		n      int
	}
	out := []gs{
		{graph.FamilyBoundedD, n},
		{graph.FamilyPath, d + 1},
	}
	if d >= 2 {
		out = append(out, gs{graph.FamilyCycle, 2 * d})
	}
	out = append(out, gs{graph.FamilyComplete, minInt(n, 8)})
	return out
}

// e1Schedulers is the scheduler suite of the E1 sweep.
func e1Schedulers() []campaign.SchedulerSpec {
	return []campaign.SchedulerSpec{
		campaign.Synchronous,
		campaign.RoundRobin,
		{Kind: "random-subset", P: 0.35, MaxGap: 16},
		{Kind: "laggard", Victim: 0, Period: 4},
	}
}

// sweepGraphsExactD returns graphs with diameter exactly d.
func sweepGraphsExactD(d int, rng *rand.Rand) []*graph.Graph {
	var out []*graph.Graph
	if g, err := graph.Path(d + 1); err == nil {
		out = append(out, g)
	}
	if g, err := graph.BoundedDiameter(3*d+4, d, rng); err == nil {
		out = append(out, g)
	}
	if d >= 2 {
		if g, err := graph.Cycle(2 * d); err == nil {
			out = append(out, g)
		}
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
