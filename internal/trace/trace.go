// Package trace records per-round summary series of AlgAU executions
// (faulty-node counts, protected-edge counts, clock spread, transition-type
// counts) and exports them as CSV for plotting. Round-edge detection is
// shared with the engine-level samplers through obs.RoundGate; step-grained
// engine telemetry lives in internal/obs.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sa"
	"thinunison/internal/sim"
)

// Sample is one recorded round.
type Sample struct {
	Round          int
	Step           int
	FaultyNodes    int
	ProtectedEdges int
	OutProtected   int
	Good           bool
	// ClockSpread is the diameter of the occupied clock positions on the
	// cyclic group (0 = all nodes at one clock; -1 while any node is
	// faulty).
	ClockSpread int
	// Transitions counts transition types since the previous sample.
	Transitions map[core.TransitionType]int
}

// Recorder samples an AlgAU execution once per completed round. Attach it
// to a sim.Engine as a hook.
type Recorder struct {
	au *core.AU
	g  *graph.Graph

	samples []Sample
	gate    *obs.RoundGate
	prevCfg sa.Config
	pending map[core.TransitionType]int
}

// NewRecorder returns a recorder for au on g.
func NewRecorder(au *core.AU, g *graph.Graph) *Recorder {
	return &Recorder{
		au:      au,
		g:       g,
		gate:    obs.NewRoundGate(),
		pending: make(map[core.TransitionType]int),
	}
}

// Attach registers the recorder on the engine and snapshots the current
// configuration as the diff baseline (so the very first step's transitions
// are counted).
func (r *Recorder) Attach(e *sim.Engine) {
	r.prevCfg = e.Config().Clone()
	e.AddHook(r.Hook())
}

// Hook returns the sim.Hook to attach to the engine. Prefer Attach, which
// also initializes the transition-diff baseline.
func (r *Recorder) Hook() sim.Hook {
	return func(e *sim.Engine) error {
		r.observe(e)
		return nil
	}
}

func (r *Recorder) observe(e *sim.Engine) {
	cfg := e.Config()
	// Count turn changes since the previous step, classifying by shape.
	if r.prevCfg != nil {
		for v := range cfg {
			if cfg[v] == r.prevCfg[v] {
				continue
			}
			was, now := r.au.Turn(r.prevCfg[v]), r.au.Turn(cfg[v])
			switch {
			case !was.Faulty && !now.Faulty:
				r.pending[core.AA]++
			case !was.Faulty && now.Faulty:
				r.pending[core.AF]++
			case was.Faulty && !now.Faulty:
				r.pending[core.FA]++
			}
		}
	}
	r.prevCfg = cfg.Clone()

	if !r.gate.Due(e.Rounds()) {
		return
	}

	s := Sample{
		Round:          e.Rounds(),
		Step:           e.StepCount(),
		FaultyNodes:    r.au.FaultyNodeCount(cfg),
		ProtectedEdges: r.au.ProtectedEdgeCount(r.g, cfg),
		Good:           r.au.GraphGood(r.g, cfg),
		ClockSpread:    r.au.ClockSpread(cfg),
		Transitions:    r.pending,
	}
	for v := 0; v < r.g.N(); v++ {
		if r.au.NodeOutProtected(r.g, cfg, v) {
			s.OutProtected++
		}
	}
	r.pending = make(map[core.TransitionType]int)
	r.samples = append(r.samples, s)
}

// Samples returns the recorded samples.
func (r *Recorder) Samples() []Sample {
	out := make([]Sample, len(r.samples))
	copy(out, r.samples)
	return out
}

// StabilizationRound returns the first recorded round at which the graph
// was good, or -1.
func (r *Recorder) StabilizationRound() int {
	for _, s := range r.samples {
		if s.Good {
			return s.Round
		}
	}
	return -1
}

// WriteCSV exports the samples as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"round", "step", "faulty", "protected_edges", "out_protected", "good", "clock_spread", "aa", "af", "fa"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, s := range r.samples {
		rec := []string{
			strconv.Itoa(s.Round),
			strconv.Itoa(s.Step),
			strconv.Itoa(s.FaultyNodes),
			strconv.Itoa(s.ProtectedEdges),
			strconv.Itoa(s.OutProtected),
			strconv.FormatBool(s.Good),
			strconv.Itoa(s.ClockSpread),
			strconv.Itoa(s.Transitions[core.AA]),
			strconv.Itoa(s.Transitions[core.AF]),
			strconv.Itoa(s.Transitions[core.FA]),
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
