package campaign_test

// The campaign-level tests of the coin-source contract of
// Scenario.Parallelism: every positive value draws the same per-(step,
// node) streams, so records are byte-identical across positive values, and
// AlgAU draws no coins, so its records match the shared stream too. The
// tests keep their names from when Parallelism also sharded each run over
// worker lanes.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"thinunison/internal/campaign"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
)

// differentialScenarios spans graph families × schedulers × fault models ×
// algorithms (AU under every scheduler; the synchronous MIS/LE programs
// under the synchronous schedule), sized small enough to run at several
// worker counts in one test.
func differentialScenarios() []campaign.Scenario {
	var scs []campaign.Scenario
	for _, alg := range []campaign.Algorithm{campaign.AlgAU} {
		for _, sched := range []campaign.SchedulerSpec{
			campaign.Synchronous, campaign.RoundRobin, campaign.RandomSubset, campaign.Laggard,
		} {
			for _, f := range []campaign.FaultSpec{{}, {Count: 8, Bursts: 2}} {
				scs = append(scs,
					campaign.Scenario{Family: graph.FamilyCycle, N: 48, Scheduler: sched, Algorithm: alg, Faults: f},
					campaign.Scenario{Family: graph.FamilyBoundedD, N: 96, D: 3, Scheduler: sched, Algorithm: alg, Faults: f},
				)
			}
		}
	}
	for _, alg := range []campaign.Algorithm{campaign.AlgMIS, campaign.AlgLE} {
		for _, f := range []campaign.FaultSpec{{}, {Count: 6, Bursts: 1}} {
			scs = append(scs,
				campaign.Scenario{Family: graph.FamilyStar, N: 32, Scheduler: campaign.Synchronous, Algorithm: alg, Faults: f},
				campaign.Scenario{Family: graph.FamilyRandom, N: 64, Scheduler: campaign.Synchronous, Algorithm: alg, Faults: f},
			)
		}
	}
	return campaign.Finalize(1234, scs)
}

// at returns a side that forces Parallelism. campaign.Differential scores
// its canonical records, whose engine block keeps the trajectory counters,
// which must agree across positive Parallelism like every other record
// field.
func at(parallelism int) campaign.Side {
	return campaign.LocalSide(fmt.Sprintf("P=%d", parallelism), 0, func(sc *campaign.Scenario) {
		sc.Parallelism = parallelism
	})
}

// TestDifferentialCampaignRecords pins that positive Parallelism values are
// interchangeable: for every scenario in the family × scheduler × fault ×
// algorithm matrix, the full JSONL record at P ∈ {2, 3, 8} must be
// byte-identical to the P=1 record of the same seed — stabilization rounds,
// steps, recovery rounds, budgets and verdicts alike — and the P=1 record
// must be ok (Differential fails a reference record that is not).
func TestDifferentialCampaignRecords(t *testing.T) {
	var out bytes.Buffer
	if campaign.Differential(context.Background(), &out, differentialScenarios(), at(1), at(2), at(3), at(8)) > 0 {
		t.Fatalf("positive Parallelism values diverged:\n%s", out.String())
	}
}

// TestDifferentialAUClassicParity pins the bridge between the two coin
// sources: AlgAU ignores coin tosses, so for AU scenarios the per-node
// stream records must also match the shared-stream ones (Parallelism < 0)
// byte for byte. (For the coin-flipping MIS/LE programs the shared stream
// is a different — equally valid — probability space, so no such parity is
// expected there.)
func TestDifferentialAUClassicParity(t *testing.T) {
	var au []campaign.Scenario
	for _, sc := range differentialScenarios() {
		if sc.Algorithm == campaign.AlgAU {
			au = append(au, sc)
		}
	}
	var out bytes.Buffer
	if campaign.Differential(context.Background(), &out, au, at(-1), at(4)) > 0 {
		t.Fatalf("per-node-stream AU diverged from shared-stream:\n%s", out.String())
	}
}

// TestShardTrajectoryCounterAggregation pins the telemetry side of the
// differential: the trajectory counters at P ∈ {2, 8} must equal those at
// P=1. The byte-identity tests above already compare the canonical engine
// block, but they would pass vacuously if Execute stopped populating it —
// this test asserts the counters are present and non-trivial.
func TestShardTrajectoryCounterAggregation(t *testing.T) {
	for _, sc := range differentialScenarios() {
		ref := execAt(t, sc, 1)
		for _, p := range []int{2, 8} {
			got := execAt(t, sc, p)
			if ref.Trajectory() != got.Trajectory() {
				t.Errorf("scenario %d (%s/%s/%s): P=%d trajectory counters diverged from P=1:\nP=1: %+v\nP=%d: %+v",
					sc.Index, sc.Family, sc.Algorithm, sc.Scheduler.Name(), p, ref.Trajectory(), p, got.Trajectory())
			}
		}
		if ref.Steps == 0 || ref.Activated == 0 || ref.Changes == 0 {
			t.Errorf("scenario %d (%s/%s/%s): engine counters are trivial: %+v",
				sc.Index, sc.Family, sc.Algorithm, sc.Scheduler.Name(), ref)
		}
	}
}

// execAt executes sc at the given forced parallelism and returns the raw
// (unreduced) engine counter snapshot from its record.
func execAt(t *testing.T, sc campaign.Scenario, parallelism int) obs.Snapshot {
	t.Helper()
	sc.Parallelism = parallelism
	rec := campaign.Execute(context.Background(), sc)
	if !rec.OK {
		t.Fatalf("scenario %d failed at P=%d: %s", sc.Index, parallelism, rec.Err)
	}
	if rec.Engine == nil {
		t.Fatalf("scenario %d at P=%d has no engine block", sc.Index, parallelism)
	}
	return *rec.Engine
}

// TestRunnerAutoShardingDeterminism checks that the runner's worker count
// never reaches the records: the same campaign run through runners with 1,
// 2 and 7 workers must emit byte-identical record streams.
func TestRunnerAutoShardingDeterminism(t *testing.T) {
	scs := campaign.Concat(7, campaign.Matrix{
		Families:   []graph.Family{graph.FamilyCycle, graph.FamilyStar},
		Sizes:      []int{40},
		Algorithms: []campaign.Algorithm{campaign.AlgAU, campaign.AlgMIS},
	})
	var outs [][]byte
	for _, workers := range []int{1, 2, 7} {
		var buf bytes.Buffer
		var mu sync.Mutex
		r := &campaign.Runner{Workers: workers, OnRecord: func(rec campaign.Record) {
			mu.Lock()
			defer mu.Unlock()
			if err := campaign.AppendJSONL(&buf, rec); err != nil {
				t.Error(err)
			}
		}}
		if _, err := r.Run(context.Background(), scs); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.Bytes())
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("runner worker counts produced different record streams")
		}
	}
}

// TestSoakConcurrentShardedCampaigns drives several campaigns concurrently,
// each of whose scenarios draws per-node coin streams (forced P=4), so
// campaign workers and the repeat loop stack. Under -race (the CI
// configuration for this package) it vets that concurrent runs share no
// engine state; in any mode it asserts the record streams of all repeats
// are byte-identical.
func TestSoakConcurrentShardedCampaigns(t *testing.T) {
	repeats, campaigns := 3, 4
	if testing.Short() {
		repeats, campaigns = 2, 2
	}
	scs := campaign.Concat(55, campaign.Matrix{
		Families:   []graph.Family{graph.FamilyCycle, graph.FamilyBoundedD},
		Sizes:      []int{64},
		Algorithms: []campaign.Algorithm{campaign.AlgAU, campaign.AlgMIS, campaign.AlgLE},
		Schedulers: []campaign.SchedulerSpec{campaign.Synchronous, campaign.RoundRobin},
		Faults:     []campaign.FaultSpec{{Count: 5, Bursts: 1}},
	})
	for i := range scs {
		scs[i].Parallelism = 4
	}

	run := func() []byte {
		var buf bytes.Buffer
		var mu sync.Mutex
		r := &campaign.Runner{Workers: 3, OnRecord: func(rec campaign.Record) {
			mu.Lock()
			defer mu.Unlock()
			if err := campaign.AppendJSONL(&buf, rec); err != nil {
				t.Error(err)
			}
		}}
		if _, err := r.Run(context.Background(), scs); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}

	outs := make([][]byte, repeats*campaigns)
	var wg sync.WaitGroup
	for rep := 0; rep < repeats; rep++ {
		for c := 0; c < campaigns; c++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				outs[slot] = run()
			}(rep*campaigns + c)
		}
		wg.Wait()
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("concurrent campaign %d produced a different record stream", i)
		}
	}
}
