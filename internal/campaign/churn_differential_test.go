package campaign_test

import (
	"bytes"
	"context"
	"testing"

	"thinunison/internal/campaign"
	"thinunison/internal/graph"
)

// churnScenarios returns the bio-churn preset trimmed to its small instances
// (kept fast: the differential runs every scenario four times, twice with
// the O(n·Δ)-per-poll oracle).
func churnScenarios(t *testing.T) []campaign.Scenario {
	t.Helper()
	scs, err := campaign.Preset("bio-churn", 5)
	if err != nil {
		t.Fatal(err)
	}
	var out []campaign.Scenario
	for _, sc := range scs {
		if sc.N <= 64 {
			out = append(out, sc)
		}
	}
	if len(out) == 0 {
		t.Fatal("bio-churn preset has no small scenarios")
	}
	return out
}

// churnSide runs every scenario in a forced mode with the GoodMonitor
// full-scan oracle armed.
func churnSide(name string, frontier, parallelism int, word bool) campaign.Side {
	return campaign.LocalSide(name, 0, func(sc *campaign.Scenario) {
		sc.MonitorOracle = true
		sc.Frontier, sc.Parallelism, sc.WordParallel = frontier, parallelism, word
	})
}

// TestChurnDifferentialAcrossModes is the in-tree twin of CI's cmd/campaign
// -preset bio-churn -check frontier: every small bio-churn scenario must
// produce byte-identical records dense-P1 vs frontier-P8, with the
// GoodMonitor full-scan oracle armed on both sides, and must actually commit
// churn. Two D = 2 churn scenarios add the word × churn cells that no preset
// reaches: churn doubles the clock's D, so bio-churn's D = 3 runs at d = 6,
// where |Q| = 78 exceeds a word; at D = 2 the kernel runs (d = 4, |Q| = 54),
// and the word side must actually take word steps.
func TestChurnDifferentialAcrossModes(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	var refs []campaign.Record
	dense := capture(churnSide("dense-P1", -1, 1, false), &refs)
	if campaign.Differential(ctx, &out, churnScenarios(t), dense, churnSide("frontier-P8", 1, 8, false)) > 0 {
		t.Fatalf("bio-churn diverged:\n%s", out.String())
	}
	for _, rec := range refs {
		if !rec.OK {
			t.Fatalf("scenario %d failed: %s", rec.Scenario, rec.Err)
		}
		if rec.ChurnOps == 0 {
			t.Fatalf("scenario %d committed no churn (%s)", rec.Scenario, rec.Churn)
		}
	}

	wordScs := campaign.Finalize(5, []campaign.Scenario{
		{Family: graph.FamilyBoundedD, N: 64, D: 2, Scheduler: campaign.Synchronous, Algorithm: campaign.AlgAU,
			Churn: campaign.ChurnSpec{Period: 8, Flips: 1, Events: 12}},
		{Family: graph.FamilyBoundedD, N: 64, D: 2, Scheduler: campaign.RandomSubset, Algorithm: campaign.AlgAU,
			Faults: campaign.FaultSpec{Count: 8, Bursts: 2, SoakRounds: 4},
			Churn:  campaign.ChurnSpec{Period: 16, Flips: 2, Crash: 1, Events: 8}},
	})
	var words []campaign.Record
	word := capture(churnSide("word", -1, 1, true), &words)
	if campaign.Differential(ctx, &out, wordScs, churnSide("dense-P1", -1, 1, false), word, churnSide("frontier+word", 1, 1, true)) > 0 {
		t.Fatalf("word × churn diverged:\n%s", out.String())
	}
	for _, rec := range words {
		if rec.Engine == nil || rec.Engine.WordSteps == 0 || rec.ChurnOps == 0 {
			t.Fatalf("scenario %d: word side ran no word steps or no churn: churn_ops=%d engine=%+v", rec.Scenario, rec.ChurnOps, rec.Engine)
		}
	}
}

// TestChurnScenarioValidity pins the expansion rules: churn crosses into the
// matrix like faults do, but only against AlgAU.
func TestChurnScenarioValidity(t *testing.T) {
	m := campaign.Matrix{
		Families:   []graph.Family{graph.FamilyStar},
		Sizes:      []int{8},
		Algorithms: []campaign.Algorithm{campaign.AlgAU, campaign.AlgMIS},
		Churns:     []campaign.ChurnSpec{{}, {Period: 4, Flips: 1, Events: 2}},
	}
	scs := m.Expand(1)
	// au×{frozen, churn} + mis×frozen = 3 scenarios; mis×churn dropped.
	if len(scs) != 3 {
		t.Fatalf("expanded %d scenarios, want 3", len(scs))
	}
	for _, sc := range scs {
		if sc.Algorithm == campaign.AlgMIS && sc.Churn.Name() != "" {
			t.Fatalf("churn × MIS survived expansion: %+v", sc)
		}
	}
	// A hand-crafted churn × non-AU scenario must fail loudly at Execute.
	bad := campaign.Scenario{
		Family: graph.FamilyStar, N: 8, Algorithm: campaign.AlgMIS,
		Churn: campaign.ChurnSpec{Period: 4, Flips: 1},
	}
	rec := campaign.Execute(context.Background(), campaign.Finalize(1, []campaign.Scenario{bad})[0])
	if rec.OK || rec.Err == "" {
		t.Fatalf("churn × MIS executed: %+v", rec)
	}
}

// TestChurnSpecName pins the record identifier.
func TestChurnSpecName(t *testing.T) {
	if got := (campaign.ChurnSpec{}).Name(); got != "" {
		t.Fatalf("inactive churn name = %q", got)
	}
	c := campaign.ChurnSpec{Period: 8, Flips: 2, Crash: 1, Events: 6}
	if got, want := c.Name(), "churn(period=8,flips=2,crash=1,events=6)"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
}
