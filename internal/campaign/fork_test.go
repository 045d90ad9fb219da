package campaign_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"thinunison/internal/budget"
	"thinunison/internal/campaign"
	"thinunison/internal/core"
	"thinunison/internal/failpoint"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/snapshot"
)

// writeForkSnapshot produces a unisonsim-shaped checkpoint: an engine run
// for a while, saved with the runmeta recipe section. A fault burst before
// the save leaves a fault buffer in the checkpoint, which every future's
// burst shuffles further.
func writeForkSnapshot(t *testing.T, dir string, seed int64) string {
	t.Helper()
	const d = 3
	au, err := core.NewAU(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.RandomConnected(20, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ByName("random", seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(g, au, sim.Options{Scheduler: s, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 25; i++ {
		if i == 10 {
			eng.InjectFaults(2)
		}
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "fork.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := []byte(`{"d":3,"sched":"random","seed":` + "7" + `}`)
	if err := eng.SaveState(f, snapshot.Section{Name: "runmeta", Data: meta}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestForkFutures: fork mode restores one snapshot into N perturbed
// continuations — each future recovers from its own fault burst, records
// carry distinct perturbations over identical restored topology, and the
// whole matrix is deterministic (a re-fork emits identical records).
func TestForkFutures(t *testing.T) {
	const seed = 7
	snap := writeForkSnapshot(t, t.TempDir(), seed)

	collect := func() []campaign.Record {
		var recs []campaign.Record
		err := campaign.Fork(snap, campaign.ForkOptions{Futures: 4}, func(rec campaign.Record) error {
			recs = append(recs, rec)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	recs := collect()
	if len(recs) != 4 {
		t.Fatalf("fork emitted %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.Scenario != i {
			t.Errorf("future %d: scenario index %d", i, rec.Scenario)
		}
		if rec.FaultCount != i+1 {
			t.Errorf("future %d: fault count %d, want %d", i, rec.FaultCount, i+1)
		}
		if !rec.OK {
			t.Errorf("future %d failed: %s", i, rec.Err)
		}
		if rec.N != recs[0].N || rec.M != recs[0].M || rec.Seed != recs[0].Seed {
			t.Errorf("future %d restored a different world: n=%d m=%d seed=%d", i, rec.N, rec.M, rec.Seed)
		}
		if rec.RecoveryRounds <= 0 {
			t.Errorf("future %d recorded no recovery rounds", i)
		}
	}
	if again := collect(); !reflect.DeepEqual(again, recs) {
		t.Fatal("re-forking the same snapshot produced different records")
	}
}

// TestForkRejectsNonCheckpoint: a snapshot without a runmeta section (e.g.
// a bare engine save) is refused with a diagnosable error.
func TestForkRejectsNonCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bare.snap")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := campaign.Fork(path, campaign.ForkOptions{Futures: 1}, nil); err == nil {
		t.Fatal("fork accepted garbage bytes")
	}
}

// forkReference runs the futures of the checkpoint at snap one after
// another, each restored from the file's bytes by its own sim.Restore, and
// returns the records Fork must emit.
func forkReference(t *testing.T, snap string, futures int) []campaign.Record {
	t.Helper()
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := campaign.ReadRunMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	var recs []campaign.Record
	for future := 0; future < futures; future++ {
		au, err := core.NewAU(meta.D)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ByName(meta.Sched, meta.Seed)
		if err != nil {
			t.Fatal(err)
		}
		eng, _, err := sim.Restore(bytes.NewReader(data), au, sim.RestoreOptions{Scheduler: s})
		if err != nil {
			t.Fatal(err)
		}
		faults := future + 1
		rec := campaign.Record{
			Scenario:    future,
			Family:      "fork",
			N:           eng.Graph().N(),
			M:           eng.Graph().M(),
			D:           meta.D,
			Diameter:    -1,
			Scheduler:   s.Name(),
			Algorithm:   string(campaign.AlgAU),
			Trial:       faults,
			Seed:        meta.Seed,
			Rounds:      eng.Rounds(),
			FaultCount:  faults,
			FaultBursts: 1,
			Budget:      budget.AU(au.K()),
		}
		eng.InjectFaults(faults)
		good := func(e *sim.Engine) bool { return au.GraphGood(e.Graph(), e.Config()) }
		recovery, err := eng.RunUntil(good, rec.Budget)
		rec.Steps = eng.StepCount()
		if err != nil {
			rec.Err = fmt.Errorf("no recovery within %d rounds: %w", rec.Budget, err).Error()
			recs = append(recs, rec)
			continue
		}
		rec.RecoveryRounds = recovery
		rec.Rounds = eng.Rounds()
		rec.Headroom = float64(rec.Budget-recovery) / float64(rec.Budget)
		rec.OK = true
		recs = append(recs, rec)
	}
	return recs
}

// forkRecords runs Fork and collects its records.
func forkRecords(t *testing.T, snap string, futures int) []campaign.Record {
	t.Helper()
	var recs []campaign.Record
	err := campaign.Fork(snap, campaign.ForkOptions{Futures: futures}, func(rec campaign.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestForkMatchesIndependentRestores: Fork's futures, restored from one
// decoded checkpoint and run concurrently, emit exactly the records of
// futures restored one after another from the bytes, at every GOMAXPROCS.
func TestForkMatchesIndependentRestores(t *testing.T) {
	const futures = 8
	t.Run("plain", func(t *testing.T) {
		snap := writeForkSnapshot(t, t.TempDir(), 7)
		want := forkReference(t, snap, futures)
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got := forkRecords(t, snap, futures)
			runtime.GOMAXPROCS(prev)
			if len(got) != len(want) {
				t.Fatalf("GOMAXPROCS %d: Fork emitted %d records, want %d", procs, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("GOMAXPROCS %d: future %d: Fork emitted\n%+v\nwant\n%+v", procs, i, got[i], want[i])
				}
			}
		}
	})
}

// TestForkStopsOnFirstError: an error stops the futures not yet started,
// Fork returns it after emitting only the records before it, and no worker
// outlives the call. emit fails at future 2; a runmeta recipe whose clock
// does not match the checkpoint's state count fails every future's restore.
func TestForkStopsOnFirstError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := t.TempDir()
	snap := writeForkSnapshot(t, dir, 7)
	base := runtime.NumGoroutine()

	errEmit := errors.New("emit refused")
	var emitted []int
	err := campaign.Fork(snap, campaign.ForkOptions{Futures: 8}, func(rec campaign.Record) error {
		emitted = append(emitted, rec.Scenario)
		if rec.Scenario == 2 {
			return errEmit
		}
		return nil
	})
	if !errors.Is(err, errEmit) {
		t.Fatalf("Fork returned %v, want the emit error", err)
	}
	if !slices.Equal(emitted, []int{0, 1, 2}) {
		t.Fatalf("Fork emitted futures %v, want [0 1 2]", emitted)
	}
	waitGoroutines(t, base)

	// The same checkpoint under a recipe with D = 4: AU(4) has 54 states,
	// the checkpointed AU(3) 42.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	sections, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad-recipe.snap")
	f, err := os.Create(bad)
	if err != nil {
		t.Fatal(err)
	}
	err = snapshot.Write(f, []snapshot.Section{
		{Name: "engine", Data: sections["engine"]},
		{Name: "runmeta", Data: []byte(`{"d":4,"sched":"random","seed":7}`)},
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	emitted = nil
	err = campaign.Fork(bad, campaign.ForkOptions{Futures: 8}, func(rec campaign.Record) error {
		emitted = append(emitted, rec.Scenario)
		return nil
	})
	if err == nil || len(emitted) != 0 {
		t.Fatalf("Fork under a mismatched recipe returned %v after emitting %v, want future 0's error and nothing", err, emitted)
	}
	waitGoroutines(t, base)
}

// TestForkReraisesFuturePanic: a panic inside a future reaches Fork's
// caller, as it would if the future ran on the caller's goroutine. The
// failpoint panics at the fifth engine step, counted over all futures.
func TestForkReraisesFuturePanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	snap := writeForkSnapshot(t, t.TempDir(), 7)
	base := runtime.NumGoroutine()
	failpoint.Arm(failpoint.New(1, []failpoint.Rule{{Site: failpoint.SimStep, Kind: failpoint.FailPanic, Hits: []uint64{5}}}))
	defer failpoint.Disarm()
	defer func() {
		v := recover()
		if f, ok := v.(failpoint.Fire); !ok || f.Site != failpoint.SimStep {
			t.Fatalf("recovered %v, want the sim step failpoint", v)
		}
		waitGoroutines(t, base)
	}()
	_ = campaign.Fork(snap, campaign.ForkOptions{Futures: 8}, func(campaign.Record) error { return nil })
	t.Fatal("Fork returned instead of re-raising the future's panic")
}

// waitGoroutines fails unless the goroutine count falls back to base: a
// worker may still be returning after the WaitGroup released Fork.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Fork returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
