package asyncsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sched"
)

// The engine counts its steps into a plain tally and publishes it into its
// metric set at call boundaries (obs.Tally). These tests pin that contract:
// exact counters between calls, a bounded lag inside a run loop, and
// monotone counters for a concurrent reader.

// publishScheds are the schedulers of the publication tests; nil is the
// synchronous one.
func publishScheds() map[string]func() sched.Scheduler {
	return map[string]func() sched.Scheduler{
		"synchronous": func() sched.Scheduler { return nil },
		"round-robin": func() sched.Scheduler { return sched.NewRoundRobin() },
		"laggard":     func() sched.Scheduler { return sched.NewLaggard(1, 3) },
	}
}

func randomJitter(rng *rand.Rand) int { return rng.Intn(512) }

// newPublishEngine builds a jitterStep engine on 200 nodes counting into
// mx: large enough that a round-robin run publishes on the step count (64
// steps) long before it has built up n activations. p selects the coin
// source.
func newPublishEngine(t *testing.T, mk func() sched.Scheduler, p int, mx *obs.Metrics) *asyncsim.Engine[int] {
	t.Helper()
	g, err := graph.BoundedDiameter(200, 3, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	initRNG := rand.New(rand.NewSource(3))
	initial := make([]int, g.N())
	for v := range initial {
		initial[v] = randomJitter(initRNG)
	}
	e, err := asyncsim.NewParallel(g, jitterStep, initial, mk(), 9, p)
	if err != nil {
		t.Fatal(err)
	}
	e.Instrument(mx)
	return e
}

// TestPublishAtCallBoundaries: after every public call — RunRounds,
// RunUntil (met and exhausted), InjectFaults, Step, and Metrics from inside
// a cond — the caller's metric set equals that of a twin engine driven one
// Step at a time to the same point, under both coin sources.
func TestPublishAtCallBoundaries(t *testing.T) {
	for sname, mk := range publishScheds() {
		for _, p := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/p=%d", sname, p), func(t *testing.T) {
				var mx, twinMx obs.Metrics
				e := newPublishEngine(t, mk, p, &mx)
				twin := newPublishEngine(t, mk, p, &twinMx)
				catchUp := func() {
					for twin.Steps() < e.Steps() {
						twin.Step()
					}
				}
				check := func(call string) {
					t.Helper()
					catchUp()
					if got, want := mx.Snapshot(), twinMx.Snapshot(); got != want {
						t.Fatalf("after %s at step %d: metrics %+v, twin %+v", call, e.Steps(), got, want)
					}
				}
				until := func(target int) func(*asyncsim.Engine[int]) bool {
					return func(e *asyncsim.Engine[int]) bool { return e.Steps() >= target }
				}
				never := func(*asyncsim.Engine[int]) bool { return false }

				e.RunRounds(2)
				check("RunRounds")
				// 137 steps end a round-robin run mid-way between two in-loop
				// publications.
				if _, ok := e.RunUntil(until(e.Steps()+137), 1000); !ok {
					t.Fatal("RunUntil did not reach its step")
				}
				check("RunUntil")

				e.InjectFaults(7, randomJitter)
				catchUp()
				twin.InjectFaults(7, randomJitter)
				check("InjectFaults")

				if _, ok := e.RunUntil(never, 3); ok {
					t.Fatal("RunUntil with a never-true cond reported success")
				}
				catchUp()
				// A zero budget exhausts without stepping: the twin counts the
				// same exhaustion.
				twin.RunUntil(never, 0)
				check("exhausted RunUntil")

				e.Step()
				check("Step")

				// Metrics from inside a cond is exact at every step.
				target := e.Steps() + 100
				e.RunUntil(func(e *asyncsim.Engine[int]) bool {
					got := e.Metrics().Snapshot()
					catchUp()
					if want := twinMx.Snapshot(); got != want {
						t.Fatalf("Metrics() inside RunUntil at step %d: %+v, twin %+v", e.Steps(), got, want)
					}
					return e.Steps() >= target
				}, 1000)
				check("RunUntil calling Metrics")
			})
		}
	}
}

// TestPublishLagInsideRunUntil: a cond reading the caller's metric set
// directly sees Steps trail the engine's Steps() by less than
// obs.PublishSteps, and never decrease. One node per step (round-robin on
// 200 nodes) publishes on the step count, so the lag runs up to its bound;
// a synchronous step builds up n activations at once, so every step is
// published.
func TestPublishLagInsideRunUntil(t *testing.T) {
	for sname, mk := range publishScheds() {
		t.Run(sname, func(t *testing.T) {
			var mx obs.Metrics
			e := newPublishEngine(t, mk, 0, &mx)
			var last, maxLag uint64
			_, ok := e.RunUntil(func(e *asyncsim.Engine[int]) bool {
				steps := mx.Steps.Load()
				if steps < last {
					t.Fatalf("step %d: published Steps went back from %d to %d", e.Steps(), last, steps)
				}
				last = steps
				lag := uint64(e.Steps()) - steps
				if lag >= obs.PublishSteps {
					t.Fatalf("step %d: published Steps %d trail by %d, want < %d", e.Steps(), steps, lag, obs.PublishSteps)
				}
				maxLag = max(maxLag, lag)
				return e.Steps() >= 300
			}, 1000)
			if !ok {
				t.Fatal("RunUntil did not reach its step")
			}
			switch {
			case sname == "round-robin" && maxLag != obs.PublishSteps-1:
				t.Errorf("round-robin: largest lag %d, want %d", maxLag, obs.PublishSteps-1)
			case sname == "synchronous" && maxLag != 0:
				t.Errorf("synchronous: largest lag %d, want 0", maxLag)
			}
			if got := mx.Steps.Load(); got != uint64(e.Steps()) {
				t.Fatalf("after RunUntil: published Steps %d, Steps() %d", got, e.Steps())
			}
		})
	}
}

// TestPublishConcurrentReadsMonotone: a second goroutine polling the metric
// set during long runs sees every counter only grow, and the set is exact
// once the runs return. Run it under -race: the engine's publication and
// the poller's loads share the set.
func TestPublishConcurrentReadsMonotone(t *testing.T) {
	var mx obs.Metrics
	e := newPublishEngine(t, publishScheds()["round-robin"], 1, &mx)
	done := make(chan struct{})
	fault := make(chan string, 1)
	go func() {
		defer close(fault)
		var prev [obs.SnapshotWords]uint64
		for {
			s := mx.Snapshot()
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
	const steps = 20_000
	until := func(target int) func(*asyncsim.Engine[int]) bool {
		return func(e *asyncsim.Engine[int]) bool { return e.Steps() >= target }
	}
	if _, ok := e.RunUntil(until(steps), steps); !ok {
		t.Error("first run did not reach its step")
	}
	e.InjectFaults(10, randomJitter)
	if _, ok := e.RunUntil(until(2*steps), steps); !ok {
		t.Error("second run did not reach its step")
	}
	close(done)
	if msg, ok := <-fault; ok {
		t.Fatal(msg)
	}
	if got, want := mx.Snapshot(), e.Metrics().Snapshot(); got != want || got.Steps != uint64(e.Steps()) {
		t.Fatalf("after the runs: metrics %+v, exact %+v at step %d", got, want, e.Steps())
	}
}
