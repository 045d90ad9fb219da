package thinunison

import (
	"math"
	"testing"

	"thinunison/internal/budget"
)

// TestTaskBudgetSaturates guards the Theorem 1.3/1.4 budget that SolveMIS and
// SolveLeaderElection enforce (budget.Task, through campaign's task drivers)
// against int overflow for degenerate diameter bounds: it must clamp at
// MaxInt (and so remain a usable "never" budget) instead of wrapping
// negative, which would make every run report instant budget exhaustion.
func TestTaskBudgetSaturates(t *testing.T) {
	if got := budget.Task(3, 64); got != 3000*(3+6)*6+5000 {
		t.Errorf("budget.Task(3, 64) = %d, want %d", got, 3000*(3+6)*6+5000)
	}
	huge := budget.Task(math.MaxInt/2, 1<<20)
	if huge != math.MaxInt {
		t.Errorf("budget.Task(huge, 2^20) = %d, want MaxInt", huge)
	}
	if huge < 0 {
		t.Error("budget wrapped negative")
	}
}

// TestTaskBudgetMonotoneInD is the sanity property the sweeps rely on.
func TestTaskBudgetMonotoneInD(t *testing.T) {
	prev := 0
	for d := 1; d < 2000; d *= 3 {
		b := budget.Task(d, 128)
		if b <= prev {
			t.Fatalf("budget.Task not increasing at d=%d: %d <= %d", d, b, prev)
		}
		prev = b
	}
}
