package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mis"
	"thinunison/internal/obs"
	"thinunison/internal/restart"
)

// TaskSample is one recorded round of a procedural task execution (AlgMIS,
// AlgLE under the Restart wrapper).
type TaskSample struct {
	Round int
	Step  int
	// Changed is the number of nodes whose state changed in the sampled
	// step (the dirty set driving incremental stability checks).
	Changed int
	// Restarting is the number of nodes currently inside Restart.
	Restarting int
	// Stable is the number of nodes whose local stability predicate holds
	// (mis.LocalStable / le.LocalStable).
	Stable int
	// Weight is the task's output weight: MIS counts IN nodes, LE counts
	// leaders.
	Weight int
}

// TaskRecorder samples a procedural asyncsim execution once per completed
// round — the MIS/LE counterpart of the AU Recorder, sharing its round-edge
// gate (obs.RoundGate). Use NewMISRecorder / NewLERecorder for the paper's
// tasks, or the generic constructor for custom evaluators.
type TaskRecorder[S comparable] struct {
	g    *graph.Graph
	eval func(g *graph.Graph, states []restart.State[S], v int) (stable bool, weight int)
	goal func(s TaskSample, n int) bool

	gate    *obs.RoundGate
	samples []TaskSample
}

// NewTaskRecorder returns a recorder on g with a per-node evaluator (local
// stability verdict plus output weight contribution) and a goal predicate
// deciding when a sample counts as a stabilized output.
func NewTaskRecorder[S comparable](
	g *graph.Graph,
	eval func(g *graph.Graph, states []restart.State[S], v int) (bool, int),
	goal func(s TaskSample, n int) bool,
) *TaskRecorder[S] {
	return &TaskRecorder[S]{g: g, eval: eval, goal: goal, gate: obs.NewRoundGate()}
}

// NewMISRecorder returns a per-round series recorder for AlgMIS: local
// stability via mis.LocalStable, weight = current IN-set size. The goal is
// every node locally stable (then the IN set is a maximal independent set).
func NewMISRecorder(g *graph.Graph) *TaskRecorder[mis.State] {
	return NewTaskRecorder(g,
		func(g *graph.Graph, states []restart.State[mis.State], v int) (bool, int) {
			w := 0
			if in, ok := mis.Output(states[v]); ok && in {
				w = 1
			}
			return mis.LocalStable(g, states, v), w
		},
		func(s TaskSample, n int) bool { return s.Stable == n },
	)
}

// NewLERecorder returns a per-round series recorder for AlgLE: local
// stability via le.LocalStable, weight = current leader count. The goal is
// every node locally stable with exactly one leader.
func NewLERecorder(g *graph.Graph) *TaskRecorder[le.State] {
	return NewTaskRecorder(g,
		func(_ *graph.Graph, states []restart.State[le.State], v int) (bool, int) {
			ok, leader := le.LocalStable(states[v])
			w := 0
			if leader {
				w = 1
			}
			return ok, w
		},
		func(s TaskSample, n int) bool { return s.Stable == n && s.Weight == 1 },
	)
}

// Observe records a sample if round is newly completed: the round gate
// deduplicates repeated calls within one round, so Observe may be invoked
// after every step (e.g. from a RunUntil condition).
func (r *TaskRecorder[S]) Observe(round, step int, states []restart.State[S], changed int) {
	if !r.gate.Due(round) {
		return
	}
	s := TaskSample{Round: round, Step: step, Changed: changed}
	for v := range states {
		if states[v].InRestart {
			s.Restarting++
		}
		ok, w := r.eval(r.g, states, v)
		if ok {
			s.Stable++
		}
		s.Weight += w
	}
	r.samples = append(r.samples, s)
}

// ObserveSync samples the current round of an engine under the synchronous
// scheduler (call after each Step, or from a RunUntil condition).
func (r *TaskRecorder[S]) ObserveSync(e *asyncsim.Engine[restart.State[S]]) {
	r.Observe(e.Rounds(), e.Steps(), e.View(), len(e.Changed()))
}

// Samples returns the recorded samples.
func (r *TaskRecorder[S]) Samples() []TaskSample {
	out := make([]TaskSample, len(r.samples))
	copy(out, r.samples)
	return out
}

// StabilizationRound returns the first recorded round whose sample meets
// the recorder's goal predicate, or -1.
func (r *TaskRecorder[S]) StabilizationRound() int {
	for _, s := range r.samples {
		if r.goal(s, r.g.N()) {
			return s.Round
		}
	}
	return -1
}

// WriteCSV exports the samples as CSV with a header row.
func (r *TaskRecorder[S]) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"round", "step", "changed", "restarting", "stable", "weight"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, s := range r.samples {
		rec := []string{
			strconv.Itoa(s.Round),
			strconv.Itoa(s.Step),
			strconv.Itoa(s.Changed),
			strconv.Itoa(s.Restarting),
			strconv.Itoa(s.Stable),
			strconv.Itoa(s.Weight),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}
