package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// The engine counts its steps into a plain tally and publishes it into its
// metric set at call boundaries (obs.Tally). These tests pin that contract:
// exact counters between calls, a bounded lag inside a run loop, and
// monotone counters for a concurrent reader.

// publishCell is one engine configuration of the publication tests.
type publishCell struct {
	name     string
	sched    func() sched.Scheduler
	frontier bool
	word     bool
}

func publishCells() []publishCell {
	var cells []publishCell
	for _, s := range []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"round-robin", func() sched.Scheduler { return sched.NewRoundRobin() }},
		{"synchronous", func() sched.Scheduler { return sched.NewSynchronous() }},
		{"laggard", func() sched.Scheduler { return sched.NewLaggard(1, 3) }},
	} {
		for _, m := range []struct {
			name           string
			frontier, word bool
		}{{"dense", false, false}, {"frontier", true, false}, {"word", false, true}, {"frontier+word", true, true}} {
			cells = append(cells, publishCell{s.name + "/" + m.name, s.mk, m.frontier, m.word})
		}
	}
	return cells
}

// publishGraph is large enough that a round-robin run publishes on the step
// count (64 steps) long before it has built up n activations.
func publishGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.BoundedDiameter(200, 3, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newPublishEngine builds an AU engine of the cell counting into mx, with a
// GoodMonitor instrumented into the same set, as campaign runs do.
func newPublishEngine(t *testing.T, g *graph.Graph, au *core.AU, c publishCell, mx *obs.Metrics) *sim.Engine {
	t.Helper()
	e, err := sim.New(g, au, sim.Options{
		Scheduler:    c.sched(),
		Seed:         9,
		Frontier:     c.frontier,
		WordParallel: c.word,
		Metrics:      mx,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewGoodMonitor(au, g, e.Config())
	mon.Instrument(mx)
	e.Observe(mon)
	return e
}

// untilStep returns a RunUntil cond that holds once the engine has run
// target steps.
func untilStep(target int) func(*sim.Engine) bool {
	return func(e *sim.Engine) bool { return e.StepCount() >= target }
}

// TestPublishAtCallBoundaries: after every public call — RunRounds,
// RunUntil (met and exhausted), InjectFaults, Step, and SaveState or
// Metrics from inside a cond — the caller's metric set equals that of a
// twin engine driven one Step at a time to the same point.
func TestPublishAtCallBoundaries(t *testing.T) {
	g := publishGraph(t)
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range publishCells() {
		t.Run(c.name, func(t *testing.T) {
			var mx, twinMx obs.Metrics
			e := newPublishEngine(t, g, au, c, &mx)
			twin := newPublishEngine(t, g, au, c, &twinMx)
			catchUp := func() {
				for twin.StepCount() < e.StepCount() {
					if err := twin.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			check := func(call string) {
				t.Helper()
				catchUp()
				if got, want := mx.Snapshot(), twinMx.Snapshot(); got != want {
					t.Fatalf("after %s at step %d: metrics %+v, twin %+v", call, e.StepCount(), got, want)
				}
			}

			if err := e.RunRounds(2); err != nil {
				t.Fatal(err)
			}
			check("RunRounds")
			// 137 steps end a round-robin run mid-way between two in-loop
			// publications.
			if _, err := e.RunUntil(untilStep(e.StepCount()+137), 1000); err != nil {
				t.Fatal(err)
			}
			check("RunUntil")

			e.InjectFaults(7)
			catchUp()
			twin.InjectFaults(7)
			check("InjectFaults")

			if _, err := e.RunUntil(func(*sim.Engine) bool { return false }, 3); !errors.Is(err, sim.ErrBudgetExhausted) {
				t.Fatalf("RunUntil with a never-true cond returned %v, want ErrBudgetExhausted", err)
			}
			catchUp()
			// A zero budget exhausts without stepping: the twin counts the
			// same exhaustion.
			if _, err := twin.RunUntil(func(*sim.Engine) bool { return false }, 0); !errors.Is(err, sim.ErrBudgetExhausted) {
				t.Fatal(err)
			}
			check("exhausted RunUntil")

			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			check("Step")

			// Metrics from inside a cond is exact at every step.
			target := e.StepCount() + 100
			_, err := e.RunUntil(func(e *sim.Engine) bool {
				got := e.Metrics().Snapshot()
				catchUp()
				if want := twinMx.Snapshot(); got != want {
					t.Fatalf("Metrics() inside RunUntil at step %d: %+v, twin %+v", e.StepCount(), got, want)
				}
				return e.StepCount() >= target
			}, 1000)
			if err != nil {
				t.Fatal(err)
			}
			check("RunUntil calling Metrics")

			// SaveState from inside a cond saves the exact counters: a
			// restore into a fresh set reproduces the twin's at that step.
			var buf bytes.Buffer
			target = e.StepCount() + 100
			_, err = e.RunUntil(func(e *sim.Engine) bool {
				if e.StepCount() < target {
					return false
				}
				if err := e.SaveState(&buf); err != nil {
					t.Fatal(err)
				}
				return true
			}, 1000)
			if err != nil {
				t.Fatal(err)
			}
			check("RunUntil calling SaveState")
			var restoredMx obs.Metrics
			if _, _, err := sim.Restore(&buf, au, sim.RestoreOptions{Scheduler: c.sched(), Metrics: &restoredMx}); err != nil {
				t.Fatal(err)
			}
			if got, want := restoredMx.Snapshot(), twinMx.Snapshot(); got != want {
				t.Fatalf("SaveState inside RunUntil saved metrics %+v, twin %+v", got, want)
			}
		})
	}
}

// TestPublishLagInsideRunUntil: a cond reading the caller's metric set
// directly sees Steps trail StepCount by less than obs.PublishSteps, and
// never decrease. One node per step (round-robin on 200 nodes) publishes on
// the step count, so the lag runs up to its bound; a synchronous step
// builds up n activations at once, so every step is published.
func TestPublishLagInsideRunUntil(t *testing.T) {
	g := publishGraph(t)
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range publishCells() {
		t.Run(c.name, func(t *testing.T) {
			var mx obs.Metrics
			e := newPublishEngine(t, g, au, c, &mx)
			var last, maxLag uint64
			_, err := e.RunUntil(func(e *sim.Engine) bool {
				steps := mx.Steps.Load()
				if steps < last {
					t.Fatalf("step %d: published Steps went back from %d to %d", e.StepCount(), last, steps)
				}
				last = steps
				lag := uint64(e.StepCount()) - steps
				if lag >= obs.PublishSteps {
					t.Fatalf("step %d: published Steps %d trail by %d, want < %d", e.StepCount(), steps, lag, obs.PublishSteps)
				}
				maxLag = max(maxLag, lag)
				return e.StepCount() >= 300
			}, 1000)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.sched().Name() == "round-robin" && maxLag != obs.PublishSteps-1:
				t.Errorf("round-robin: largest lag %d, want %d", maxLag, obs.PublishSteps-1)
			case c.sched().Name() == "synchronous" && maxLag != 0:
				t.Errorf("synchronous: largest lag %d, want 0", maxLag)
			}
			if got := mx.Steps.Load(); got != uint64(e.StepCount()) {
				t.Fatalf("after RunUntil: published Steps %d, StepCount %d", got, e.StepCount())
			}
		})
	}
}

// TestPublishConcurrentReadsMonotone: a second goroutine polling the metric
// set during long runs sees every counter only grow (FrontierSize, a gauge
// of the current frontier, is exempt), and the set is exact once the runs
// return. Run it under -race: the engine's publication and the poller's
// loads share the set.
func TestPublishConcurrentReadsMonotone(t *testing.T) {
	g := publishGraph(t)
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	// One node per step publishes every 64 steps; n−1 nodes per step
	// publish every other step, so a shorter run suffices.
	for _, tc := range []struct {
		cell  publishCell
		steps int
	}{
		{publishCell{"round-robin/frontier", func() sched.Scheduler { return sched.NewRoundRobin() }, true, false}, 20_000},
		{publishCell{"laggard/dense", func() sched.Scheduler { return sched.NewLaggard(1, 3) }, false, false}, 600},
	} {
		c, steps := tc.cell, tc.steps
		t.Run(c.name, func(t *testing.T) {
			var mx obs.Metrics
			e := newPublishEngine(t, g, au, c, &mx)
			done := make(chan struct{})
			fault := make(chan string, 1)
			go func() {
				defer close(fault)
				var prev [obs.SnapshotWords]uint64
				for {
					s := mx.Snapshot()
					s.FrontierSize = 0
					cur := s.Words()
					for i := range cur {
						if cur[i] < prev[i] {
							fault <- fmt.Sprintf("a counter went back: %+v, then %+v", obs.SnapshotFromWords(prev), s)
							return
						}
					}
					prev = cur
					select {
					case <-done:
						return
					default:
					}
				}
			}()
			if _, err := e.RunUntil(untilStep(steps), steps); err != nil {
				t.Error(err)
			}
			e.InjectFaults(10)
			if _, err := e.RunUntil(untilStep(2*steps), steps); err != nil {
				t.Error(err)
			}
			close(done)
			if msg, ok := <-fault; ok {
				t.Fatal(msg)
			}
			if got, want := mx.Snapshot(), e.Metrics().Snapshot(); got != want || got.Steps != uint64(e.StepCount()) {
				t.Fatalf("after the runs: metrics %+v, exact %+v at step %d", got, want, e.StepCount())
			}
		})
	}
}
