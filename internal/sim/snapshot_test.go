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
	churn    bool

	// pastWindow drives the engine and churn rng streams past the 607 draws
	// of their seeded window before the checkpoint, so both restore from a
	// state deep in the generator: a burst of pastWindowFaults faults before
	// every step draws at least 2·pastWindowFaults engine values (victims
	// and their states), and pastWindowFaults churn flips every step draw at
	// least two churn values each — over the 40 steps before the checkpoint,
	// at least 800 and 780 draws.
	pastWindow bool
}

// pastWindowFaults is the per-step fault burst of the pastWindow cells.
const pastWindowFaults = 10

// restoreChurnSpec is the churn of the churn cells: every third step
// revives the last victim, flips four node pairs and crashes one node, under
// the connectivity and diameter guards (8 = 2D for the test's AU(4)). A
// checkpoint can then land while a victim is down, between its crash and
// its revival.
func restoreChurnSpec() *sim.ChurnSpec {
	return &sim.ChurnSpec{Period: 3, Flips: 4, Crashes: 1, Seed: 99,
		KeepConnected: true, MaxDiameterUpper: 8}
}

func restoreModes() []restoreMode {
	return []restoreMode{
		{name: "dense"},
		{name: "frontier", frontier: true},
		{name: "word", word: true},
		{name: "frontier-word", frontier: true, word: true},
		{name: "dense-churn", churn: true},
		{name: "frontier-churn", frontier: true, churn: true},
		{name: "word-churn", word: true, churn: true},
		{name: "dense-churn-past-window", pastWindow: true},
	}
}

// TestRestoreDifferential is the checkpoint contract: run K steps, snapshot,
// restore in a fresh engine, run K more — the continuation must match the
// uninterrupted 2K-step run byte for byte (configurations, rounds, churn
// counters, trajectory metrics, monitor verdicts), in every execution mode
// (dense, frontier, word, each with and without crash churn) and under every
// checkpointable scheduler. The restored run's GoodMonitor is rebuilt from
// the restored configuration, as every checkpoint consumer does, and must
// agree with the uninterrupted run's at every step. A fault burst after
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
				var churn *sim.ChurnSpec
				if m.churn {
					churn = restoreChurnSpec()
				}
				if m.pastWindow {
					churn = &sim.ChurnSpec{Period: 1, Flips: pastWindowFaults, Seed: 99, KeepConnected: true}
				}
				g := cloneGraph(t, base)
				ref, err := sim.New(g, au, sim.Options{
					Scheduler:    mk(),
					Seed:         seed,
					Frontier:     m.frontier,
					WordParallel: m.word,
					Churn:        churn,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				mon := core.NewGoodMonitor(au, g, ref.Config())
				ref.Observe(mon)

				// A crash victim sits isolated until its revival, so the
				// full graph is disconnected exactly while one is down.
				crashed := false
				for i := 0; i < k; i++ {
					if m.pastWindow {
						ref.InjectFaults(pastWindowFaults)
					}
					if err := ref.Step(); err != nil {
						t.Fatalf("reference step %d: %v", i, err)
					}
					crashed = crashed || !ref.Graph().Connected()
				}
				if m.churn && !crashed {
					t.Fatal("no crash victim was down before the checkpoint; strengthen the churn spec")
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
					if restored.ChurnOps() != ref.ChurnOps() || restored.ChurnSkipped() != ref.ChurnSkipped() {
						t.Fatalf("continuation step %d: churn counters diverged", i)
					}
					if restored.Graph().M() != ref.Graph().M() {
						t.Fatalf("continuation step %d: edge counts diverged", i)
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
		Churn:     churnSpec(),
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

// TestRestoreWithCrashVictimsDown pins a bug the restore differential
// flushed out: a snapshot taken while churn crash victims are down carries a
// CSR with those victims isolated, and Restore used to reject it with
// ErrDisconnected even though the running engine handles exactly that
// topology (KeepConnected guards alive-subgraph connectivity only). The
// checkpoint must restore and continue byte-identically through the victims'
// revival.
func TestRestoreWithCrashVictimsDown(t *testing.T) {
	const seed = 31
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	base, err := graph.RandomConnected(40, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*sim.Engine, error) {
		return sim.New(cloneGraph(t, base), au, sim.Options{
			Scheduler: sched.NewRandomSubsetSeeded(0.5, 8, seed+1),
			Seed:      seed,
			Frontier:  true,
			Churn: &sim.ChurnSpec{
				Period:        2,
				Flips:         2,
				Crashes:       2,
				Seed:          seed + 2,
				KeepConnected: true,
			},
		})
	}
	ref, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// Step until a crash victim is actually down at a step boundary — the
	// full graph is then disconnected, the shape Restore used to refuse.
	down := false
	for i := 0; i < 200; i++ {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		if !ref.Graph().Connected() {
			down = true
			break
		}
	}
	if !down {
		t.Fatal("churn never left a crash victim down at a step boundary; strengthen the spec")
	}
	checkpointStep := ref.StepCount()

	var buf bytes.Buffer
	if err := ref.SaveState(&buf); err != nil {
		t.Fatalf("save with crash victims down: %v", err)
	}
	restored, _, err := sim.Restore(bytes.NewReader(buf.Bytes()), au, sim.RestoreOptions{
		Scheduler: sched.NewRandomSubsetSeeded(0.5, 8, seed+1),
	})
	if err != nil {
		t.Fatalf("restore with crash victims down: %v", err)
	}
	defer restored.Close()
	if restored.StepCount() != checkpointStep {
		t.Fatalf("restored at step %d, checkpoint was at %d", restored.StepCount(), checkpointStep)
	}

	// Continue both through several churn periods (revivals included).
	for i := 0; i < 40; i++ {
		if err := ref.Step(); err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
		if err := restored.Step(); err != nil {
			t.Fatalf("restored step %d: %v", i, err)
		}
		if !restored.Config().Equal(ref.Config()) {
			t.Fatalf("continuation step %d: configurations diverged", i)
		}
		if restored.Graph().M() != ref.Graph().M() {
			t.Fatalf("continuation step %d: edge counts diverged", i)
		}
		if restored.ChurnOps() != ref.ChurnOps() || restored.ChurnSkipped() != ref.ChurnSkipped() {
			t.Fatalf("continuation step %d: churn counters diverged", i)
		}
	}
}
