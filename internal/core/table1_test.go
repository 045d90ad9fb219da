package core_test

import (
	"fmt"
	"strings"
	"testing"

	"thinunison/internal/core"
)

// TestTable1Conformance is experiment T1: the implemented transition
// function agrees with a literal transcription of Table 1 on an exhaustive
// enumeration of (turn, signal) pairs, for several diameter bounds.
func TestTable1Conformance(t *testing.T) {
	for d := 1; d <= 3; d++ {
		au := mustAU(t, d)
		rep := au.CheckTable1Conformance(5)
		if len(rep.Mismatches) != 0 {
			t.Fatalf("D=%d: %d/%d pairs mismatch Table 1, e.g.:\n%s",
				d, len(rep.Mismatches), rep.PairsChecked, strings.Join(rep.Mismatches, "\n"))
		}
		for _, typ := range []core.TransitionType{core.AA, core.AF, core.FA} {
			if rep.CountByType[typ] == 0 {
				t.Errorf("D=%d: no %v transitions exercised by the enumeration", d, typ)
			}
		}
		if rep.CountByType[core.None] == 0 {
			t.Errorf("D=%d: no stay-put cases exercised", d)
		}
	}
}

// renderTable1 renders Table 1 as fixed-width text.
func renderTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-18s %-10s %s\n", "Type", "Pre-transition", "Post", "Condition")
	for _, r := range core.Table1() {
		fmt.Fprintf(&b, "%-5s %-18s %-10s %s\n", r.Type, r.Pre, r.Post, r.Condition)
	}
	return b.String()
}

func TestRenderTable1(t *testing.T) {
	out := renderTable1()
	for _, want := range []string{"AA", "AF", "FA", "good", "Ψ>(ℓ)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered Table 1 missing %q:\n%s", want, out)
		}
	}
	if got := len(core.Table1()); got != 3 {
		t.Errorf("Table1 has %d rows, want 3", got)
	}
}

// TestFigure1Diagram is experiment F1: the behaviorally derived transition
// arrows equal the structural Figure 1 arrow set, exactly.
func TestFigure1Diagram(t *testing.T) {
	for d := 1; d <= 3; d++ {
		au := mustAU(t, d)
		want := au.DiagramEdges()
		got := au.DerivedEdges()
		if len(got) != len(want) {
			t.Fatalf("D=%d: derived %d edges, figure has %d\nderived: %v\nfigure: %v",
				d, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("D=%d: edge %d: derived %v, figure %v", d, i, got[i], want[i])
			}
		}
	}
}

func TestFigure1EdgeCounts(t *testing.T) {
	// Figure 1 has 2k AA arrows, 2(k-1) AF arrows and 2(k-1) FA arrows.
	for d := 1; d <= 4; d++ {
		au := mustAU(t, d)
		k := au.K()
		byType := map[core.TransitionType]int{}
		for _, e := range au.DiagramEdges() {
			byType[e.Type]++
		}
		if byType[core.AA] != 2*k {
			t.Errorf("D=%d: %d AA arrows, want %d", d, byType[core.AA], 2*k)
		}
		if byType[core.AF] != 2*(k-1) {
			t.Errorf("D=%d: %d AF arrows, want %d", d, byType[core.AF], 2*(k-1))
		}
		if byType[core.FA] != 2*(k-1) {
			t.Errorf("D=%d: %d FA arrows, want %d", d, byType[core.FA], 2*(k-1))
		}
	}
}

func TestDOTOutput(t *testing.T) {
	au := mustAU(t, 1)
	dot := au.DOT()
	for _, want := range []string{"digraph AlgAU", "color=red, style=dashed", "color=blue, style=dotted", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}
