package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"thinunison/internal/graph"
)

func smokeScenarios(t *testing.T, seed int64) []Scenario {
	t.Helper()
	scs, err := Preset("smoke", seed)
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

func TestMatrixExpandCrossesDimensionsAndSkipsInvalid(t *testing.T) {
	m := Matrix{
		Families:       []graph.Family{graph.FamilyCycle, graph.FamilyBoundedD},
		Sizes:          []int{2, 8},
		DiameterBounds: []int{3},
		Schedulers:     []SchedulerSpec{Synchronous, RoundRobin},
		Algorithms:     []Algorithm{AlgAU, AlgMIS},
		Trials:         2,
	}
	scs := m.Expand(7)
	// cycle n=2 is invalid; boundedD n=2 d=3 is invalid; MIS × round-robin
	// is invalid. Remaining: 2 families × 1 size × 2 sched × 2 alg × 2
	// trials − (MIS × round-robin: 2 families × 2 trials).
	want := 2*1*2*2*2 - 2*2
	if len(scs) != want {
		t.Fatalf("Expand returned %d scenarios, want %d", len(scs), want)
	}
	for i, sc := range scs {
		if sc.Index != i {
			t.Errorf("scenario %d has index %d", i, sc.Index)
		}
		if sc.Seed < 0 {
			t.Errorf("scenario %d has negative seed %d", i, sc.Seed)
		}
		if sc.N == 2 {
			t.Errorf("invalid combination survived: %+v", sc)
		}
		if (sc.Algorithm == AlgMIS || sc.Algorithm == AlgLE) && !sc.Scheduler.IsSynchronous() {
			t.Errorf("plain %s paired with %s scheduler", sc.Algorithm, sc.Scheduler.Name())
		}
	}
}

func TestDeriveSeedDecorrelated(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 10_000; i++ {
		s := deriveSeed(42, i)
		if s < 0 {
			t.Fatalf("negative seed %d at index %d", s, i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between indices %d and %d", prev, i)
		}
		seen[s] = i
	}
}

func TestExecuteEveryAlgorithmStabilizes(t *testing.T) {
	for _, alg := range Algorithms() {
		sc := Scenario{
			Family:    graph.FamilyStar,
			N:         8,
			Scheduler: Synchronous,
			Algorithm: alg,
			Faults:    FaultSpec{Count: 2},
			Seed:      11,
		}
		if alg == AlgSyncMIS || alg == AlgSyncLE {
			sc.Scheduler = RoundRobin
		}
		rec := Execute(context.Background(), sc)
		if !rec.OK {
			t.Errorf("%s: run failed: %s", alg, rec.Err)
			continue
		}
		if rec.Rounds > rec.Budget {
			t.Errorf("%s: rounds %d exceed budget %d", alg, rec.Rounds, rec.Budget)
		}
		if rec.Headroom < 0 || rec.Headroom > 1 {
			t.Errorf("%s: headroom %v out of [0,1]", alg, rec.Headroom)
		}
		if rec.FaultBursts != 1 {
			t.Errorf("%s: fault bursts %d, want 1", alg, rec.FaultBursts)
		}
	}
}

func TestExecuteRejectsPlainTaskUnderAsyncScheduler(t *testing.T) {
	rec := Execute(context.Background(), Scenario{
		Family: graph.FamilyStar, N: 8,
		Scheduler: RoundRobin, Algorithm: AlgMIS, Seed: 3,
	})
	if rec.OK || rec.Err == "" {
		t.Fatalf("plain MIS under round-robin should fail, got %+v", rec)
	}
}

// TestRunnerSeedDeterminism is the campaign half of the scheduler-fairness
// satellite: equal seeds must give byte-identical JSONL regardless of worker
// count and completion order.
func TestRunnerSeedDeterminism(t *testing.T) {
	render := func(workers int) string {
		var buf bytes.Buffer
		r := &Runner{Workers: workers, OnRecord: func(rec Record) {
			if err := AppendJSONL(&buf, rec); err != nil {
				t.Fatal(err)
			}
		}}
		recs, err := r.Run(context.Background(), smokeScenarios(t, 99))
		if err != nil {
			t.Fatal(err)
		}
		var direct bytes.Buffer
		if err := WriteJSONL(&direct, recs); err != nil {
			t.Fatal(err)
		}
		if direct.String() != buf.String() {
			t.Fatal("streamed JSONL differs from batch JSONL")
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatal("JSONL differs between 1 and 8 workers for equal seeds")
	}
	again := render(8)
	if parallel != again {
		t.Fatal("JSONL differs between two 8-worker runs with equal seeds")
	}
	if strings.Contains(serial, "wall_ms") {
		t.Fatal("wall time leaked into untimed records")
	}
}

func TestRunnerDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) []Record {
		r := &Runner{Workers: 4}
		recs, err := r.Run(context.Background(), smokeScenarios(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := run(1), run(2)
	if len(a) != len(b) {
		t.Fatalf("scenario counts differ: %d vs %d", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i].Rounds != b[i].Rounds || a[i].Seed != b[i].Seed {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different campaign seeds produced identical records")
	}
}

func TestRunnerAllSmokeRunsSucceed(t *testing.T) {
	r := &Runner{Timing: true}
	recs, err := r.Run(context.Background(), smokeScenarios(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	schedulers := map[string]bool{}
	algorithms := map[string]bool{}
	for _, rec := range recs {
		if !rec.OK {
			t.Errorf("scenario %d (%s/%s/n=%d/%s) failed: %s",
				rec.Scenario, rec.Algorithm, rec.Family, rec.N, rec.Scheduler, rec.Err)
		}
		families[rec.Family] = true
		schedulers[rec.Scheduler] = true
		algorithms[rec.Algorithm] = true
	}
	if len(families) < 4 {
		t.Errorf("smoke covers %d families, want >= 4", len(families))
	}
	if len(schedulers) < 3 {
		t.Errorf("smoke covers %d schedulers, want >= 3", len(schedulers))
	}
	if len(algorithms) < 2 {
		t.Errorf("smoke covers %d algorithms, want >= 2", len(algorithms))
	}
	groups := Aggregate(recs)
	if len(groups) == 0 {
		t.Fatal("no aggregation groups")
	}
	for _, g := range groups {
		if g.Runs == 0 {
			t.Errorf("group %s has zero runs", g.Key)
		}
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch: nothing should run
	r := &Runner{Workers: 2}
	recs, err := r.Run(ctx, smokeScenarios(t, 5))
	if err == nil {
		t.Fatal("expected context error")
	}
	if len(recs) != 0 {
		t.Fatalf("%d scenarios ran despite pre-cancelled context", len(recs))
	}

	// Mid-run cancellation: long scenarios abort via the polling condition.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	big, err := Preset("paper-table1", 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	recs2, err := (&Runner{Workers: 2}).Run(ctx2, big)
	if err == nil && len(recs2) == len(big) {
		t.Skip("campaign finished before the cancellation deadline")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

func TestPresetsExpand(t *testing.T) {
	for _, name := range Presets() {
		scs, err := Preset(name, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(scs) == 0 {
			t.Errorf("%s: empty preset", name)
		}
		if cap(scs) != len(scs) {
			t.Errorf("%s: %d scenarios in a list of capacity %d, want one exact allocation", name, len(scs), cap(scs))
		}
	}
	if _, err := Preset("bogus", 1); err == nil {
		t.Error("unknown preset did not error")
	}
}

func TestWriteCSV(t *testing.T) {
	recs, err := (&Runner{Workers: 2}).Run(context.Background(), Matrix{
		Families:   []graph.Family{graph.FamilyStar},
		Sizes:      []int{6},
		Algorithms: []Algorithm{AlgAU},
	}.Expand(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(recs)+1 {
		t.Fatalf("CSV has %d lines for %d records", len(lines), len(recs))
	}
	if !strings.HasPrefix(lines[0], "scenario,family,n,") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
}

func TestSchedulerSpecBuild(t *testing.T) {
	for _, spec := range []SchedulerSpec{Synchronous, RoundRobin, RandomSubset, Laggard, Permuted, {}} {
		s, err := spec.Build(1)
		if err != nil {
			t.Errorf("%s: %v", spec.Name(), err)
			continue
		}
		if got := s.Activations(0, 5); len(got) == 0 && spec.Kind != "laggard" {
			t.Errorf("%s: empty first activation set", spec.Name())
		}
	}
	if _, err := (SchedulerSpec{Kind: "bogus"}).Build(1); err == nil {
		t.Error("unknown scheduler kind did not error")
	}
}
