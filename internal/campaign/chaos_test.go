package campaign_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/failpoint"
	"thinunison/internal/graph"
)

// chaosScenarios is the mixed workload of the chaos tests: the resume set
// plus two more AU scenarios, one of them word+frontier, so injected engine
// errors land on every AU execution mode. The chaos side fails if any armed
// site is never evaluated, so the workload must reach every one.
func chaosScenarios(seed int64) []campaign.Scenario {
	base := []campaign.Scenario{
		{Family: graph.FamilyCycle, N: 10, Scheduler: campaign.Synchronous, Algorithm: campaign.AlgAU},
		{Family: graph.FamilyStar, N: 9, Scheduler: campaign.RoundRobin, Algorithm: campaign.AlgAU, Faults: campaign.FaultSpec{Count: 2}},
		{Family: graph.FamilyRandom, N: 12, Scheduler: campaign.RandomSubset, Algorithm: campaign.AlgAU},
		{Family: graph.FamilyCycle, N: 16, Scheduler: campaign.RoundRobin, Algorithm: campaign.AlgAU, Parallelism: 2},
		{Family: graph.FamilyStar, N: 11, Scheduler: campaign.Laggard, Algorithm: campaign.AlgAU, WordParallel: true},
		{Family: graph.FamilyRandom, N: 10, Scheduler: campaign.Synchronous, Algorithm: campaign.AlgAU, Trial: 1},
		{Family: graph.FamilyComplete, N: 8, Scheduler: campaign.Synchronous, Algorithm: campaign.AlgMIS},
		{Family: graph.FamilyStar, N: 8, Scheduler: campaign.RoundRobin, Algorithm: campaign.AlgSyncLE},
	}
	return campaign.Finalize(seed, base)
}

// TestChaosCheck is the chaos soak: the chaos side — a seeded fault
// schedule with kill-and-resume — scored by Differential against the dense
// scalar reference on a mixed workload. CI runs it under -race; cmd/campaign
// -check chaos is the same side over the smoke preset.
func TestChaosCheck(t *testing.T) {
	var out bytes.Buffer
	dense := campaign.LocalSide("dense", 4, func(sc *campaign.Scenario) { sc.Frontier, sc.WordParallel = -1, false })
	chaos := campaign.ChaosSide(campaign.ChaosOptions{Seed: 3, Workers: 4, Dir: t.TempDir()})
	if failures := campaign.Differential(context.Background(), &out, chaosScenarios(7), dense, chaos); failures != 0 {
		t.Fatalf("chaos check failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "chaos[-chaos-seed 3] OK") {
		t.Fatalf("unexpected chaos side output:\n%s", out.String())
	}
}

// TestExecuteIsolatedQuarantine: an injected worker panic becomes a failed,
// transient record carrying the panic in Err and a WorkerPanics counter —
// never an unwound goroutine.
func TestExecuteIsolatedQuarantine(t *testing.T) {
	failpoint.Arm(failpoint.New(1, []failpoint.Rule{
		{Site: failpoint.CampaignWorker, Kind: failpoint.FailPanic, Hits: []uint64{1}},
	}))
	defer failpoint.Disarm()

	sc := chaosScenarios(7)[0]
	rec := campaign.ExecuteIsolated(context.Background(), sc)
	if rec.OK {
		t.Fatal("quarantined record reports OK")
	}
	if !strings.HasPrefix(rec.Err, "campaign: panic: ") {
		t.Fatalf("Err = %q, want campaign: panic: prefix", rec.Err)
	}
	if !rec.Transient() {
		t.Fatal("quarantined panic not classified transient")
	}
	if rec.Engine == nil || rec.Engine.WorkerPanics != 1 {
		t.Fatalf("Engine = %+v, want WorkerPanics 1", rec.Engine)
	}
	if rec.Scenario != sc.Index || rec.Seed != sc.Seed || rec.Family != string(sc.Family) {
		t.Fatalf("quarantined record lost scenario identity: %+v", rec)
	}
}

// TestRunnerRetriesTransient: with a retry budget, a one-shot injected panic
// is invisible in the final record except for its Retries count — and
// Canonical strips even that, restoring byte-identity.
func TestRunnerRetriesTransient(t *testing.T) {
	var chaos []campaign.Record
	retried := campaign.Side{Name: "retried", Run: func(ctx context.Context, scs []campaign.Scenario) ([]campaign.Record, error) {
		failpoint.Arm(failpoint.New(1, []failpoint.Rule{
			{Site: failpoint.CampaignWorker, Kind: failpoint.FailPanic, Hits: []uint64{1}},
		}))
		defer failpoint.Disarm()
		return (&campaign.Runner{Workers: 1, Retry: campaign.RetryPolicy{Max: 2}}).Run(ctx, scs)
	}}
	var out bytes.Buffer
	if campaign.Differential(context.Background(), &out, chaosScenarios(7)[:2],
		campaign.LocalSide("clean", 1, nil), capture(retried, &chaos)) > 0 {
		t.Fatalf("records diverged after retry:\n%s", out.String())
	}
	n := 0
	for _, rec := range chaos {
		if rec.Retries > 0 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d records retried, want exactly 1", n)
	}
}

// TestWatchdogCutsInjectedStall: a poll stall far longer than the watchdog
// interval is cut short, failing the run with the transient watchdog error
// instead of hanging.
func TestWatchdogCutsInjectedStall(t *testing.T) {
	failpoint.Arm(failpoint.New(1, []failpoint.Rule{
		{Site: failpoint.CampaignPoll, Kind: failpoint.FailStall, Hits: []uint64{1}, Stall: 5 * time.Minute},
	}))
	defer failpoint.Disarm()

	sc := chaosScenarios(7)[0]
	sc.Watchdog = 50 * time.Millisecond
	start := time.Now()
	rec := campaign.Execute(context.Background(), sc)
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("stalled run took %v despite watchdog", d)
	}
	if rec.OK {
		t.Fatal("stalled run reports OK")
	}
	if !strings.HasPrefix(rec.Err, "campaign: watchdog: ") {
		t.Fatalf("Err = %q, want watchdog prefix", rec.Err)
	}
	if !rec.Transient() {
		t.Fatal("watchdog stall not classified transient")
	}
	if rec.Engine == nil || rec.Engine.WatchdogStalls == 0 {
		t.Fatalf("Engine = %+v, want WatchdogStalls > 0", rec.Engine)
	}
}

// TestScenarioTimeout: the per-scenario deadline fails the run with a
// deterministic, non-transient error (a timeout would recur on retry).
func TestScenarioTimeout(t *testing.T) {
	sc := campaign.Finalize(7, []campaign.Scenario{{
		Family: graph.FamilyRandom, N: 4000, Scheduler: campaign.RandomSubset,
		Algorithm: campaign.AlgAU, Parallelism: -1,
	}})[0]
	sc.Timeout = time.Millisecond
	rec := campaign.Execute(context.Background(), sc)
	if rec.OK {
		t.Skip("scenario finished inside 1ms; timeout not exercised")
	}
	if !strings.HasPrefix(rec.Err, "campaign: scenario timeout after") {
		t.Fatalf("Err = %q, want scenario timeout", rec.Err)
	}
	if rec.Transient() {
		t.Fatal("scenario timeout wrongly classified transient")
	}
}
