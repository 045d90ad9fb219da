package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"thinunison/internal/campaign"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
)

func obsScenarios(seed int64) []campaign.Scenario {
	return campaign.Finalize(seed, []campaign.Scenario{
		{Family: graph.FamilyCycle, N: 48, Scheduler: campaign.RoundRobin, Algorithm: campaign.AlgAU,
			Faults: campaign.FaultSpec{Count: 8, Bursts: 2}},
		{Family: graph.FamilyStar, N: 32, Scheduler: campaign.Synchronous, Algorithm: campaign.AlgMIS,
			Faults: campaign.FaultSpec{Count: 6, Bursts: 1}},
		{Family: graph.FamilyRandom, N: 64, Scheduler: campaign.RandomSubset, Algorithm: campaign.AlgSyncLE},
	})
}

// TestTracingDoesNotPerturbRecords is the determinism pin of the tracing
// layer at the campaign level: attaching a sampled tracer (flight ring plus
// a dense every-step sink) must leave the canonical record — verdict,
// rounds, steps, budgets, engine counters — byte-identical to the untraced
// run of the same scenario. Sampling is keyed by step number only, so this
// must hold exactly, not approximately.
func TestTracingDoesNotPerturbRecords(t *testing.T) {
	scs := obsScenarios(4242)
	sinks := make([]*obs.Mem, len(scs))
	for i := range sinks {
		sinks[i] = &obs.Mem{}
	}
	traced := campaign.LocalSide("traced", 0, func(sc *campaign.Scenario) {
		sc.Obs = &campaign.ObsSpec{TraceEvery: 1, Sink: sinks[sc.Index], FlightRing: 32}
	})
	var out bytes.Buffer
	if campaign.Differential(context.Background(), &out, scs, campaign.LocalSide("plain", 0, nil), traced) > 0 {
		t.Fatalf("traced records diverged from untraced:\n%s", out.String())
	}
	for i, sink := range sinks {
		if len(sink.Samples) == 0 {
			t.Errorf("scenario %d: dense sink captured no samples", i)
		}
		for _, s := range sink.Samples {
			if s.Run != int64(i) {
				t.Fatalf("scenario %d: sample tagged run %d", i, s.Run)
			}
		}
	}
}

// TestFlightDumpOnFailure checks the flight-recorder trigger: a failing run
// (here: cancelled mid-flight) must dump its retained ring to the scenario's
// flight writer with an attributable reason header, while a succeeding run
// must stay silent unless FlightAlways is set.
func TestFlightDumpOnFailure(t *testing.T) {
	scs := obsScenarios(99)
	sc := scs[0]

	var flight bytes.Buffer
	sc.Obs = &campaign.ObsSpec{FlightRing: 16, Flight: &obs.LockedWriter{W: &flight}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := campaign.Execute(ctx, sc)
	if rec.OK {
		t.Fatal("cancelled run unexpectedly succeeded")
	}
	lines := strings.Split(strings.TrimSuffix(flight.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("failing run produced no flight dump")
	}
	var header struct {
		Flight  string `json:"flight"`
		Samples int    `json:"samples"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("flight header: %v", err)
	}
	if !strings.Contains(header.Flight, "scenario=0") || !strings.Contains(header.Flight, "algorithm=au") {
		t.Fatalf("flight reason %q lacks scenario attribution", header.Flight)
	}
	if header.Samples == 0 || len(lines) != header.Samples+1 {
		t.Fatalf("flight dump has %d sample lines, header claims %d", len(lines)-1, header.Samples)
	}

	// A successful run must not dump...
	flight.Reset()
	sc.Obs = &campaign.ObsSpec{FlightRing: 16, Flight: &obs.LockedWriter{W: &flight}}
	if rec := campaign.Execute(context.Background(), sc); !rec.OK {
		t.Fatalf("scenario unexpectedly failed: %s", rec.Err)
	}
	if flight.Len() != 0 {
		t.Fatalf("successful run dumped %d flight bytes without FlightAlways", flight.Len())
	}

	// ...unless FlightAlways asks for it.
	sc.Obs.FlightAlways = true
	if rec := campaign.Execute(context.Background(), sc); !rec.OK {
		t.Fatalf("scenario unexpectedly failed: %s", rec.Err)
	}
	if flight.Len() == 0 {
		t.Fatal("FlightAlways run produced no flight dump")
	}
}

// TestRunnerFoldsEngineMetrics checks the runner-level telemetry plumbing:
// per-run engine snapshots are folded into the campaign-wide aggregate (the
// -debug-addr expvar view) and stripped from emitted records unless
// EngineMetrics opts them in.
func TestRunnerFoldsEngineMetrics(t *testing.T) {
	scs := obsScenarios(1717)
	for _, keep := range []bool{false, true} {
		agg := &obs.Metrics{}
		var recs []campaign.Record
		r := &campaign.Runner{
			Workers:       2,
			EngineMetrics: keep,
			Obs:           agg,
			OnRecord:      func(rec campaign.Record) { recs = append(recs, rec) },
		}
		if _, err := r.Run(context.Background(), scs); err != nil {
			t.Fatal(err)
		}
		snap := agg.Snapshot()
		if snap.Steps == 0 || snap.Activated == 0 {
			t.Fatalf("keep=%v: campaign aggregate is empty: %+v", keep, snap)
		}
		var sum uint64
		for _, rec := range recs {
			if !keep {
				if rec.Engine != nil {
					t.Fatalf("record %d kept engine block without EngineMetrics", rec.Scenario)
				}
				continue
			}
			if rec.Engine == nil {
				t.Fatalf("record %d lost engine block with EngineMetrics", rec.Scenario)
			}
			sum += rec.Engine.Steps
		}
		if keep && sum != snap.Steps {
			t.Fatalf("aggregate steps %d != sum of per-record steps %d", snap.Steps, sum)
		}
	}
}
