package campaign

import (
	"fmt"
	"sort"

	"thinunison/internal/graph"
)

// presets maps preset names to their scenario builders. Each preset is a
// curated campaign: smoke for CI-speed coverage, paper-table1 for the
// theorem-shaped sweeps of the paper's evaluation, fault-storm for transient
// fault bombardment, scale-sweep for 10^3–10^5-node instances.
var presets = map[string]func(seed int64) []Scenario{
	"smoke":        presetSmoke,
	"paper-table1": presetPaperTable1,
	"fault-storm":  presetFaultStorm,
	"scale-sweep":  presetScaleSweep,
	"bio-churn":    presetBioChurn,
}

// Presets returns the available preset names, sorted.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Preset expands a named preset into scenarios seeded from seed.
func Preset(name string, seed int64) ([]Scenario, error) {
	build, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown preset %q (known: %v)", name, Presets())
	}
	return build(seed), nil
}

// presetSmoke covers every execution path in seconds: five graph families,
// four schedulers, the pulse clock plus both synchronous tasks and one
// synchronized task, with and without a small fault burst.
func presetSmoke(seed int64) []Scenario {
	base := Matrix{
		Families: []graph.Family{
			graph.FamilyStar, graph.FamilyCycle, graph.FamilyComplete,
			graph.FamilyGrid, graph.FamilyTree,
		},
		Sizes:      []int{8, 12},
		Schedulers: []SchedulerSpec{Synchronous, RoundRobin, RandomSubset, Laggard},
		Algorithms: []Algorithm{AlgAU, AlgMIS, AlgLE},
		Faults:     []FaultSpec{{}, {Count: 2}},
		Trials:     1,
	}
	synced := Matrix{
		Families:   []graph.Family{graph.FamilyStar, graph.FamilyComplete},
		Sizes:      []int{8},
		Schedulers: []SchedulerSpec{RoundRobin, RandomSubset},
		Algorithms: []Algorithm{AlgSyncMIS, AlgSyncLE},
		Trials:     1,
	}
	return Concat(seed, base, synced)
}

// presetPaperTable1 reproduces the shape of the paper's evaluation: the
// Theorem 1.1 diameter sweep of AlgAU across schedulers, and the Theorem
// 1.3/1.4 size sweeps of AlgLE/AlgMIS on the bounded-diameter family.
func presetPaperTable1(seed int64) []Scenario {
	au := Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD},
		Sizes:          []int{24},
		DiameterBounds: []int{1, 2, 3, 4, 5, 6},
		Schedulers:     []SchedulerSpec{Synchronous, RoundRobin, RandomSubset, Laggard},
		Algorithms:     []Algorithm{AlgAU},
		Trials:         3,
	}
	tasks := Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD},
		Sizes:          []int{8, 16, 32, 64},
		DiameterBounds: []int{3},
		Schedulers:     []SchedulerSpec{Synchronous},
		Algorithms:     []Algorithm{AlgLE, AlgMIS},
		Trials:         5,
	}
	return Concat(seed, au, tasks)
}

// presetFaultStorm bombards stabilized instances with repeated transient
// fault bursts, from single-node corruption to full-network wipes.
func presetFaultStorm(seed int64) []Scenario {
	return Concat(seed, Matrix{
		Families: []graph.Family{
			graph.FamilyStar, graph.FamilyGrid, graph.FamilyBoundedD,
		},
		Sizes:          []int{16, 32},
		DiameterBounds: []int{3},
		Schedulers:     []SchedulerSpec{Synchronous, RandomSubset, Laggard},
		Algorithms:     []Algorithm{AlgAU},
		Faults: []FaultSpec{
			{Count: 1, Bursts: 3},
			{Count: 8, Bursts: 3},
			{Count: 1 << 20, Bursts: 2}, // clamped to n: full-network wipe
		},
		Trials: 2,
	})
}

// presetScaleSweep pushes AlgAU to 10^5-node low-diameter instances — the
// "almost complete but for some broken links" regime the paper motivates —
// where the analytically known family diameters keep setup linear. Beyond
// the synchronous stabilization sweeps it drives asynchronous schedulers
// through fault-storm recovery: round-robin is the sparse extreme (one node
// per step, millions of steps per run — feasible only because per-step work
// is O(|A_t|·Δ) with no full-graph predicate rescan and no O(n)
// configuration copy), while laggard stresses near-full activation with a
// starved victim.
func presetScaleSweep(seed int64) []Scenario {
	stars := Matrix{
		Families:   []graph.Family{graph.FamilyStar},
		Sizes:      []int{1_000, 10_000, 100_000},
		Algorithms: []Algorithm{AlgAU},
		Trials:     1,
	}
	bounded := Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD},
		Sizes:          []int{1_000, 10_000, 100_000},
		DiameterBounds: []int{4},
		Algorithms:     []Algorithm{AlgAU},
		Trials:         1,
	}
	trees := Matrix{
		Families:   []graph.Family{graph.FamilyTree},
		Sizes:      []int{1_000, 10_000},
		Algorithms: []Algorithm{AlgAU},
		Trials:     1,
	}
	async := Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD},
		Sizes:          []int{10_000, 100_000},
		DiameterBounds: []int{4},
		Schedulers:     []SchedulerSpec{RoundRobin, Laggard},
		Algorithms:     []Algorithm{AlgAU},
		Faults:         []FaultSpec{{Count: 16, Bursts: 2}},
		Trials:         1,
	}
	// The straggler matrix is the genuinely quiescent AU regime: one starved
	// node gates the unison wave, so between its rare activations the other
	// n-1 nodes are activated every step as settled no-ops. (Under the
	// default period-3 laggard and round-robin above, the clock ticks
	// continuously — every round does Θ(n) real state changes, which no
	// execution mode can skip.) SoakRounds adds the long stable stretches
	// between fault storms that the paper's workloads live in; with
	// frontier-sparse execution (the default) those stretches cost
	// O(|frontier|) per step, while forcing dense execution (-frontier -1)
	// pays Θ(n) — the preset's end-to-end comparison.
	straggler := Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD},
		Sizes:          []int{10_000, 100_000},
		DiameterBounds: []int{4},
		Schedulers:     []SchedulerSpec{{Kind: "laggard", Victim: 0, Period: 128}},
		Algorithms:     []Algorithm{AlgAU},
		Faults:         []FaultSpec{{Count: 16, Bursts: 2, SoakRounds: 8}},
		Trials:         1,
	}
	return Concat(seed, stars, bounded, trees, async, straggler)
}

// presetBioChurn is the paper's headline application made executable: a
// cellular population whose communication topology itself changes mid-run —
// cells die (crash), divide back (revive), and links rewire (edge flips) —
// while AlgAU keeps re-synchronizing the pulse clock. Three regimes:
//
//   - steady churn: one guarded edge flip every few steps, the background
//     link noise of a living tissue;
//   - churn storms: rare events that rewire a dozen links and kill cells at
//     once, the "wound" regime;
//   - churn + fault storms: topology churn composed with transient state
//     corruption and quiescent soak stretches — every adversary of the
//     paper at the same time.
//
// Every destructive op is guarded (connectivity, diameter drift within the
// churn-margined clock parameter) and event counts are finite, so each run
// ends on a stabilizable topology and records stay deterministic. The
// preset doubles as the input of CI's cmd/campaign -parallelism 1 -check
// frontier guard, which re-runs it dense vs frontier-sparse, both at P=1,
// with the GoodMonitor full-scan oracle enabled.
func presetBioChurn(seed int64) []Scenario {
	steady := Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD, graph.FamilyGrid},
		Sizes:          []int{32, 96},
		DiameterBounds: []int{3},
		Schedulers:     []SchedulerSpec{Synchronous, RandomSubset, Laggard},
		Algorithms:     []Algorithm{AlgAU},
		Churns:         []ChurnSpec{{Period: 8, Flips: 1, Events: 12}},
		Trials:         2,
	}
	storms := Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD},
		Sizes:          []int{64, 192},
		DiameterBounds: []int{3},
		Schedulers:     []SchedulerSpec{Synchronous, RoundRobin},
		Algorithms:     []Algorithm{AlgAU},
		// The fault model stretches every run well past the storm period
		// (two bursts with 48-round soaks), so the rare-but-massive events
		// are guaranteed to land mid-run — including inside verified
		// recovery phases — instead of after a lucky early stabilization.
		Faults: []FaultSpec{{Count: 12, Bursts: 2, SoakRounds: 48}},
		Churns: []ChurnSpec{
			{Period: 24, Flips: 12, Events: 4},
			{Period: 24, Flips: 8, Crash: 3, Events: 4},
		},
		Trials: 2,
	}
	composed := Matrix{
		Families:       []graph.Family{graph.FamilyBoundedD, graph.FamilyTree},
		Sizes:          []int{64},
		DiameterBounds: []int{3},
		Schedulers:     []SchedulerSpec{Synchronous, RandomSubset},
		Algorithms:     []Algorithm{AlgAU},
		Faults:         []FaultSpec{{Count: 8, Bursts: 2, SoakRounds: 4}},
		Churns:         []ChurnSpec{{Period: 16, Flips: 2, Crash: 1, Events: 8}},
		Trials:         2,
	}
	return Concat(seed, steady, storms, composed)
}
