package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"thinunison/internal/campaign"
	"thinunison/internal/graph"
)

// capture wraps side so a test can assert on the raw records it returns.
func capture(side campaign.Side, recs *[]campaign.Record) campaign.Side {
	run := side.Run
	side.Run = func(ctx context.Context, scs []campaign.Scenario) ([]campaign.Record, error) {
		var err error
		*recs, err = run(ctx, scs)
		return *recs, err
	}
	return side
}

// edited wraps a local side and lets edit rewrite its records.
func edited(name string, edit func([]campaign.Record) ([]campaign.Record, error)) campaign.Side {
	local := campaign.LocalSide(name, 0, nil)
	return campaign.Side{Name: name, Run: func(ctx context.Context, scs []campaign.Scenario) ([]campaign.Record, error) {
		recs, err := local.Run(ctx, scs)
		if err != nil {
			return nil, err
		}
		return edit(recs)
	}}
}

func comparatorScenarios() []campaign.Scenario {
	return campaign.Finalize(11, []campaign.Scenario{
		{Family: graph.FamilyCycle, N: 12, Scheduler: campaign.Synchronous, Algorithm: campaign.AlgAU},
		{Family: graph.FamilyStar, N: 9, Scheduler: campaign.RoundRobin, Algorithm: campaign.AlgAU, Faults: campaign.FaultSpec{Count: 2}},
		{Family: graph.FamilyComplete, N: 8, Scheduler: campaign.Synchronous, Algorithm: campaign.AlgMIS},
	})
}

// TestDifferentialLocalizesDivergence pins the comparator's own contract:
// one failure per diverging (side, scenario) pair, named by its first
// differing field, its index and its seed; one failure for a short record
// list or an erring side; and zero for identical sides.
func TestDifferentialLocalizesDivergence(t *testing.T) {
	ctx := context.Background()
	scs := comparatorScenarios()
	ref := campaign.LocalSide("ref", 0, nil)
	diff := func(side campaign.Side) (int, string) {
		var out bytes.Buffer
		n := campaign.Differential(ctx, &out, scs, ref, side)
		return n, out.String()
	}

	if n, out := diff(campaign.LocalSide("same", 0, nil)); n != 0 {
		t.Fatalf("identical sides: %d failures:\n%s", n, out)
	}

	n, out := diff(edited("rounds", func(recs []campaign.Record) ([]campaign.Record, error) {
		recs[1].Rounds++
		return recs, nil
	}))
	want := fmt.Sprintf("scenario %d (seed %d): first difference at rounds:", scs[1].Index, scs[1].Seed)
	if n != 1 || !strings.Contains(out, want) {
		t.Fatalf("edited rounds: %d failures, want 1 naming %q:\n%s", n, want, out)
	}

	var engine []campaign.Record
	n, out = diff(capture(edited("counter", func(recs []campaign.Record) ([]campaign.Record, error) {
		recs[0].Engine.TransAA++
		return recs, nil
	}), &engine))
	if n != 1 || !strings.Contains(out, "first difference at engine.trans_aa:") {
		t.Fatalf("edited trajectory counter: %d failures, want 1 naming engine.trans_aa:\n%s", n, out)
	}
	// The drop rule compares a block-less side without the reference's
	// engine block; a local side must never take that path.
	for _, rec := range engine {
		if rec.Engine == nil {
			t.Fatalf("LocalSide record %d carries no engine block", rec.Scenario)
		}
	}

	if n, out := diff(edited("short", func(recs []campaign.Record) ([]campaign.Record, error) {
		return recs[:len(recs)-1], nil
	})); n != 1 {
		t.Fatalf("short record list: %d failures, want 1:\n%s", n, out)
	}
	if n, out := diff(edited("erring", func([]campaign.Record) ([]campaign.Record, error) {
		return nil, errors.New("side broke")
	})); n != 1 || !strings.Contains(out, "side broke") {
		t.Fatalf("erring side: %d failures, want 1:\n%s", n, out)
	}
}

// TestDifferentialRejectsFailedReference: two sides that fail the same way
// agree byte for byte, but a reference record that is not ok still fails
// the differential, naming its error and seed.
func TestDifferentialRejectsFailedReference(t *testing.T) {
	// Churn × MIS fails deterministically at Execute.
	scs := campaign.Finalize(3, []campaign.Scenario{{
		Family: graph.FamilyStar, N: 8, Scheduler: campaign.Synchronous, Algorithm: campaign.AlgMIS,
		Churn: campaign.ChurnSpec{Period: 4, Flips: 1},
	}})
	var out bytes.Buffer
	n := campaign.Differential(context.Background(), &out, scs,
		campaign.LocalSide("ref", 1, nil), campaign.LocalSide("twin", 1, nil))
	if n < 1 {
		t.Fatalf("identical failed records passed:\n%s", out.String())
	}
	if want := fmt.Sprintf("scenario 0 (seed %d) failed:", scs[0].Seed); !strings.Contains(out.String(), want) {
		t.Fatalf("output does not name the failed reference record %q:\n%s", want, out.String())
	}
}
