package thinunison_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"thinunison"
)

// solveGoldenCases runs SolveMIS and SolveLeaderElection on three graphs,
// seeds 0–2 and all four scheduler choices (synchronous, round-robin,
// random-subset, laggard), and renders each exact result as one line:
//
//	<graph> seed=<s> <scheduler> mis in=<InSet> rounds=<Rounds>
//	<graph> seed=<s> <scheduler> le leader=<Leader> rounds=<Rounds>
//
// Every scheduler is built fresh per call: schedulers are stateful.
func solveGoldenCases(t *testing.T) string {
	t.Helper()
	grid, err := thinunison.Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := thinunison.Cycle(7)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := thinunison.BoundedDiameter(24, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *thinunison.Graph
	}{{"grid3x4", grid}, {"cycle7", cycle}, {"boundedD24", bounded}}
	schedulers := []struct {
		name  string
		build func(seed int64) thinunison.Scheduler
	}{
		{"sync", func(int64) thinunison.Scheduler { return nil }},
		{"round-robin", func(int64) thinunison.Scheduler { return thinunison.RoundRobin() }},
		{"random-subset", func(seed int64) thinunison.Scheduler { return thinunison.RandomSubset(0.4, 8, seed+100) }},
		{"laggard", func(int64) thinunison.Scheduler { return thinunison.Laggard(1, 3) }},
	}
	var out strings.Builder
	for _, gr := range graphs {
		for seed := int64(0); seed <= 2; seed++ {
			for _, sc := range schedulers {
				opts := func() []thinunison.Option {
					opts := []thinunison.Option{thinunison.WithSeed(seed)}
					if s := sc.build(seed); s != nil {
						opts = append(opts, thinunison.WithScheduler(s))
					}
					return opts
				}
				prefix := fmt.Sprintf("%s seed=%d %s", gr.name, seed, sc.name)
				m, err := thinunison.SolveMIS(gr.g, opts()...)
				if err != nil {
					t.Fatalf("%s mis: %v", prefix, err)
				}
				fmt.Fprintf(&out, "%s mis in=%v rounds=%d\n", prefix, m.InSet, m.Rounds)
				l, err := thinunison.SolveLeaderElection(gr.g, opts()...)
				if err != nil {
					t.Fatalf("%s le: %v", prefix, err)
				}
				fmt.Fprintf(&out, "%s le leader=%d rounds=%d\n", prefix, l.Leader, l.Rounds)
			}
		}
	}
	return out.String()
}

// TestSolveGolden pins the exact InSet, Leader and Rounds of 72 solver
// calls, so a change to the task drivers that moves a single coin draw or
// initial state fails here even when every output stays a valid MIS or a
// unique leader.
func TestSolveGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/solve_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := solveGoldenCases(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
