package sim_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/snapshot"
)

// restoreMode is one engine configuration of the restore differential.
type restoreMode struct {
	name     string
	frontier bool
	word     bool

	// pastWindow drives the engine's rng stream past the 607 draws of its
	// seeded window before the checkpoint, so it restores from a state deep
	// in the generator: a burst of pastWindowFaults faults before every
	// step draws at least 2·pastWindowFaults values (victims and their
	// states), at least 800 over the 40 steps before the checkpoint.
	pastWindow bool
}

// pastWindowFaults is the per-step fault burst of the pastWindow cell.
const pastWindowFaults = 10

func restoreModes() []restoreMode {
	return []restoreMode{
		{name: "dense"},
		{name: "frontier", frontier: true},
		{name: "word", word: true},
		{name: "frontier-word", frontier: true, word: true},
		{name: "dense-past-window", pastWindow: true},
	}
}

// TestRestoreDifferential is the checkpoint contract: run K steps, snapshot,
// restore in a fresh engine, run K more — the continuation must match the
// uninterrupted 2K-step run byte for byte (configurations, rounds,
// trajectory metrics, monitor verdicts), in every execution mode (dense,
// frontier, word, frontier+word) and under every checkpointable scheduler.
// The restored run's GoodMonitor is rebuilt from the restored
// configuration, as every checkpoint consumer does, and must agree with
// the uninterrupted run's at every step. A fault burst after
// the restore point additionally pins the restored rng state and the
// fault-permutation buffer.
func TestRestoreDifferential(t *testing.T) {
	const (
		seed = 21
		k    = 40
	)
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	base, err := graph.RandomConnected(48, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
	for sname, mk := range shardedSchedulers(seed + 1) {
		for _, m := range restoreModes() {
			t.Run(sname+"/"+m.name, func(t *testing.T) {
				ref, err := sim.New(base, au, sim.Options{
					Scheduler:    mk(),
					Seed:         seed,
					Frontier:     m.frontier,
					WordParallel: m.word,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				mon := core.NewGoodMonitor(au, base, ref.Config())
				ref.Observe(mon)

				for i := 0; i < k; i++ {
					if m.pastWindow {
						ref.InjectFaults(pastWindowFaults)
					}
					if err := ref.Step(); err != nil {
						t.Fatalf("reference step %d: %v", i, err)
					}
				}

				var buf bytes.Buffer
				if err := ref.SaveState(&buf, snapshot.Section{Name: "runmeta", Data: []byte("{}")}); err != nil {
					t.Fatalf("save: %v", err)
				}

				restored, extras, err := sim.Restore(bytes.NewReader(buf.Bytes()), au, sim.RestoreOptions{
					Scheduler: mk(),
				})
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				defer restored.Close()
				if got := string(extras["runmeta"]); got != "{}" || len(extras) != 1 {
					t.Fatalf("restore returned extras %q, want only the runmeta section", extras)
				}
				rmon := core.NewGoodMonitor(au, restored.Graph(), restored.Config())
				restored.Observe(rmon)
				if got, want := rmon.Good(), mon.Good(); got != want {
					t.Fatalf("restored monitor Good=%v at the checkpoint, reference %v", got, want)
				}

				if !restored.Config().Equal(ref.Config()) {
					t.Fatal("restored configuration differs at the checkpoint")
				}
				if restored.StepCount() != ref.StepCount() {
					t.Fatalf("restored step=%d, reference step=%d", restored.StepCount(), ref.StepCount())
				}
				if got, want := restored.Metrics().Snapshot().Trajectory(), ref.Metrics().Snapshot().Trajectory(); got != want {
					t.Fatalf("restored trajectory metrics %+v, reference %+v", got, want)
				}

				// Continue both runs in lockstep, with a fault burst in the
				// middle to exercise the restored rng state and fault buffer.
				for i := 0; i < k; i++ {
					if i == k/2 {
						hitA := append([]int(nil), ref.InjectFaults(5)...)
						hitB := restored.InjectFaults(5)
						if len(hitA) != len(hitB) {
							t.Fatalf("step %d: fault burst sizes diverged", i)
						}
						for j := range hitA {
							if hitA[j] != hitB[j] {
								t.Fatalf("step %d: fault victims diverged: %v vs %v", i, hitA, hitB)
							}
						}
					}
					if err := ref.Step(); err != nil {
						t.Fatalf("reference continuation step %d: %v", i, err)
					}
					if err := restored.Step(); err != nil {
						t.Fatalf("restored continuation step %d: %v", i, err)
					}
					if !restored.Config().Equal(ref.Config()) {
						t.Fatalf("continuation step %d: configurations diverged", i)
					}
					if restored.Rounds() != ref.Rounds() {
						t.Fatalf("continuation step %d: rounds %d vs %d", i, restored.Rounds(), ref.Rounds())
					}
					if got, want := rmon.Good(), mon.Good(); got != want {
						t.Fatalf("continuation step %d: restored monitor Good=%v, reference %v", i, got, want)
					}
				}
				if got, want := restored.Metrics().Snapshot().Trajectory(), ref.Metrics().Snapshot().Trajectory(); got != want {
					t.Fatalf("final trajectory metrics diverged: %+v vs %+v", got, want)
				}
			})
		}
	}
}

// failingCheckpointer is a stateful scheduler whose state cannot be
// serialized: synchronous activations behind a CheckpointState that fails.
type failingCheckpointer struct{ *sched.Synchronous }

var errNotSerializable = errors.New("scheduler state not serializable")

func (failingCheckpointer) CheckpointState() ([]byte, error) { return nil, errNotSerializable }

func (failingCheckpointer) RestoreState([]byte, int, int) error { return errNotSerializable }

// TestSaveStateRefusesFailingCheckpointer pins the guard rail: when a
// scheduler cannot serialize its state, SaveState must fail with that error
// rather than write a snapshot that cannot continue the run.
func TestSaveStateRefusesFailingCheckpointer(t *testing.T) {
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Cycle(12)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(g, au, sim.Options{
		Scheduler: failingCheckpointer{sched.NewSynchronous()},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveState(&buf); !errors.Is(err, errNotSerializable) {
		t.Fatalf("SaveState with a failing Checkpointer: err = %v, want %v", err, errNotSerializable)
	}
	if buf.Len() != 0 {
		t.Fatalf("SaveState wrote %d bytes before failing", buf.Len())
	}
}

// TestSaveStateRefusesChurn: an engine with churn cannot be checkpointed.
// SaveState fails before it writes a byte, after a churn event has rewired
// the graph as well as before the first one.
func TestSaveStateRefusesChurn(t *testing.T) {
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.RandomConnected(24, 0.2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(g, au, sim.Options{Seed: 1, Churn: churnSpec()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	refuse := func() {
		t.Helper()
		var buf bytes.Buffer
		if err := e.SaveState(&buf, snapshot.Section{Name: "runmeta", Data: []byte("{}")}); err == nil {
			t.Fatalf("SaveState of a churn engine at step %d succeeded", e.StepCount())
		}
		if buf.Len() != 0 {
			t.Fatalf("SaveState of a churn engine at step %d wrote %d bytes", e.StepCount(), buf.Len())
		}
	}
	refuse()
	for e.ChurnOps() == 0 {
		if e.StepCount() == 100 {
			t.Fatal("churn changed nothing in 100 steps; strengthen the spec")
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	refuse()
}

// TestRestoreRejectsSchedulerStateMismatch: a snapshot holds a scheduler
// stream exactly when its scheduler is a sched.Checkpointer, and Restore
// refuses a scheduler on the other side of that line. A stateful scheduler
// over a snapshot without a stream would start fresh mid-run, and a stream
// without a stateful scheduler would be dropped.
func TestRestoreRejectsSchedulerStateMismatch(t *testing.T) {
	au, err := core.NewAU(6)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Cycle(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		saved, resume func() sched.Scheduler
	}{
		{"synchronous to random-subset",
			func() sched.Scheduler { return sched.NewSynchronous() },
			func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.3, 6, 5) }},
		{"round-robin to permuted",
			func() sched.Scheduler { return sched.NewRoundRobin() },
			func() sched.Scheduler { return sched.NewPermutedSeeded(5) }},
		{"permuted to round-robin",
			func() sched.Scheduler { return sched.NewPermutedSeeded(5) },
			func() sched.Scheduler { return sched.NewRoundRobin() }},
	} {
		e, err := sim.New(g, au, sim.Options{Scheduler: c.saved(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := e.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		snap := buf.Bytes()
		if _, _, err := sim.Restore(bytes.NewReader(snap), au, sim.RestoreOptions{Scheduler: c.saved()}); err != nil {
			t.Fatalf("%s: restore under the saved scheduler: %v", c.name, err)
		}
		if _, _, err := sim.Restore(bytes.NewReader(snap), au, sim.RestoreOptions{Scheduler: c.resume()}); err == nil {
			t.Errorf("%s: restored without error", c.name)
		}
	}
}

// TestRestoreFreshProcessShape simulates the fresh-process path: everything
// the restoring side knows is the snapshot bytes plus the construction
// recipe (algorithm parameters and scheduler seed), exactly what a CLI
// -restore invocation has. The restored run must reproduce the reference
// trajectory without access to the original graph or engine.
func TestRestoreFreshProcessShape(t *testing.T) {
	const seed = 77
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	g, err := graph.RandomConnected(64, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.New(g, au, sim.Options{
		Scheduler: sched.NewPermutedSeeded(seed + 2),
		Seed:      seed,
		Frontier:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < 30; i++ {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ref.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// "Fresh process": only the bytes and the recipe cross the boundary.
	au2, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := sim.Restore(bytes.NewReader(buf.Bytes()), au2, sim.RestoreOptions{
		Scheduler: sched.NewPermutedSeeded(seed + 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for i := 0; i < 30; i++ {
		if err := restored.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !restored.Config().Equal(ref.Config()) {
		t.Fatal("fresh-process restore diverged from the uninterrupted run")
	}
	if restored.StepCount() != ref.StepCount() || restored.Rounds() != ref.Rounds() {
		t.Fatal("fresh-process restore position diverged")
	}
}
