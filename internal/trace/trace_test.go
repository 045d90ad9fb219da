package trace_test

import (
	"slices"
	"strings"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sim"
	"thinunison/internal/trace"
)

func setup(t *testing.T) (*core.AU, *graph.Graph, *sim.Engine, *trace.Recorder) {
	t.Helper()
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(g.Diameter())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(g, au, sim.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(au, g)
	rec.Attach(eng)
	return au, g, eng, rec
}

func TestRecorderSamplesPerRound(t *testing.T) {
	au, g, eng, rec := setup(t)
	k := au.K()
	if _, err := eng.RunUntil(func(e *sim.Engine) bool {
		return au.GraphGood(g, e.Config())
	}, 60*k*k*k); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunRounds(5); err != nil {
		t.Fatal(err)
	}
	samples := rec.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	// One sample per round, rounds strictly increasing.
	for i := 1; i < len(samples); i++ {
		if samples[i].Round <= samples[i-1].Round {
			t.Fatalf("rounds not increasing: %d then %d", samples[i-1].Round, samples[i].Round)
		}
	}
	// Once good, faulty counts drop to zero and spread is bounded.
	stab := rec.StabilizationRound()
	if stab < 0 {
		t.Fatal("StabilizationRound = -1 after stabilization")
	}
	for _, s := range samples {
		if s.Round < stab {
			continue
		}
		if !s.Good || s.FaultyNodes != 0 {
			t.Errorf("round %d after stabilization: good=%v faulty=%d", s.Round, s.Good, s.FaultyNodes)
		}
		if s.ClockSpread < 0 || s.ClockSpread > g.Diameter() {
			t.Errorf("round %d: clock spread %d outside [0, D]", s.Round, s.ClockSpread)
		}
		if s.ProtectedEdges != g.M() {
			t.Errorf("round %d: %d protected edges, want %d", s.Round, s.ProtectedEdges, g.M())
		}
	}
}

func TestClockSpreadUniform(t *testing.T) {
	g, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(g.Diameter())
	if err != nil {
		t.Fatal(err)
	}
	q := au.MustState(core.Turn{Level: 1})
	eng, err := sim.New(g, au, sim.Options{Initial: slices.Repeat(sa.Config{q}, 4), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(au, g)
	rec.Attach(eng)
	if err := eng.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	s := rec.Samples()[0]
	// After one synchronous round from uniform level 1 everyone is at level
	// 2: spread 0, all AA transitions.
	if s.ClockSpread != 0 {
		t.Errorf("spread = %d, want 0", s.ClockSpread)
	}
	if s.Transitions[core.AA] != 4 {
		t.Errorf("AA count = %d, want 4", s.Transitions[core.AA])
	}
	if !s.Good {
		t.Error("uniform configuration should be good")
	}
}

func TestWriteCSV(t *testing.T) {
	au, g, eng, rec := setup(t)
	k := au.K()
	if _, err := eng.RunUntil(func(e *sim.Engine) bool {
		return au.GraphGood(g, e.Config())
	}, 60*k*k*k); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(rec.Samples())+1 {
		t.Errorf("CSV has %d lines, want %d", len(lines), len(rec.Samples())+1)
	}
	if !strings.HasPrefix(lines[0], "round,step,faulty") {
		t.Errorf("unexpected header %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != 9 {
			t.Errorf("row %q has %d commas, want 9", line, got)
		}
	}
}

// TestSpreadWithFaulty: any faulty node makes the spread -1.
func TestSpreadWithFaulty(t *testing.T) {
	g, err := graph.Path(2)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sa.Config{
		au.MustState(core.Turn{Level: 2, Faulty: true}),
		au.MustState(core.Turn{Level: 2}),
	}
	eng, err := sim.New(g, au, sim.Options{Initial: cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(au, g)
	rec.Attach(eng)
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range rec.Samples() {
		if s.FaultyNodes > 0 && s.ClockSpread != -1 {
			t.Errorf("faulty round has spread %d, want -1", s.ClockSpread)
		}
		found = true
	}
	if !found {
		t.Fatal("no samples")
	}
}
