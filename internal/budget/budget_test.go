package budget_test

import (
	"math"
	"testing"

	"thinunison/internal/budget"
)

// TestAUFormula pins the Theorem 1.1 budget 60k³ + 500 on representative
// clock parameters (k = 3D + 2).
func TestAUFormula(t *testing.T) {
	cases := []struct{ k, want int }{
		{1, 560},
		{5, 8000},    // D = 1
		{8, 31220},   // D = 2
		{11, 80360},  // D = 3
		{20, 480500}, // D = 6, the churn-margined bio-churn clock
		{100, 60000500},
	}
	for _, c := range cases {
		if got := budget.AU(c.k); got != c.want {
			t.Errorf("AU(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

// TestTaskFormula pins the Theorem 1.3/1.4 budget 3000(D + log n)log n + 5000.
func TestTaskFormula(t *testing.T) {
	cases := []struct{ d, n, want int }{
		{3, 2, 17000},  // log2(2) = 1
		{3, 16, 89000}, // log2(16) = 4
		{3, 64, 3000*(3+6)*6 + 5000},
		{1, 1024, 335000},
	}
	for _, c := range cases {
		if got := budget.Task(c.d, c.n); got != c.want {
			t.Errorf("Task(%d, %d) = %d, want %d", c.d, c.n, got, c.want)
		}
	}
}

// TestSynchronizerFormula pins the Corollary 1.2 allowance 80k³.
func TestSynchronizerFormula(t *testing.T) {
	cases := []struct{ d, want int }{
		{1, 80 * 125},  // k = 5
		{3, 80 * 1331}, // k = 11
	}
	for _, c := range cases {
		if got := budget.Synchronizer(c.d); got != c.want {
			t.Errorf("Synchronizer(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestSaturation: degenerate (huge-D) inputs must clamp to MaxInt instead
// of overflowing into a negative or tiny budget — a negative round budget
// would make every run "fail" instantly, a wrapped one would truncate
// legitimate long runs.
func TestSaturation(t *testing.T) {
	huge := 1 << 31
	if got := budget.AU(huge); got != math.MaxInt {
		t.Errorf("AU(2^31) = %d, want MaxInt", got)
	}
	if got := budget.Synchronizer(huge); got != math.MaxInt {
		t.Errorf("Synchronizer(2^31) = %d, want MaxInt", got)
	}
	// Task(2^31, 2^31) ≈ 2·10^14 still fits in 64 bits — it must come back
	// exact, not clamped.
	if got := budget.Task(huge, huge); got != 3000*(huge+31)*31+5000 {
		t.Errorf("Task(2^31, 2^31) = %d, want the exact (non-saturated) value", got)
	}
	if got := budget.Task(math.MaxInt, math.MaxInt); got != math.MaxInt {
		t.Errorf("Task(MaxInt, MaxInt) = %d, want MaxInt", got)
	}
	if got := budget.Task(math.MaxInt/2, 1<<20); got != math.MaxInt {
		t.Errorf("Task(MaxInt/2, 2^20) = %d, want MaxInt", got)
	}
	// MaxInt-adjacent k: k³ alone overflows 64-bit.
	if got := budget.AU(math.MaxInt); got != math.MaxInt {
		t.Errorf("AU(MaxInt) = %d, want MaxInt", got)
	}
}

// TestMonotone: budgets must be non-decreasing in every parameter — a
// larger instance may never get a smaller allowance.
func TestMonotone(t *testing.T) {
	prev := 0
	for k := 1; k < 2000; k += 13 {
		got := budget.AU(k)
		if got < prev {
			t.Fatalf("AU not monotone at k=%d: %d < %d", k, got, prev)
		}
		prev = got
	}
	for _, d := range []int{1, 2, 5, 50} {
		prev = 0
		for n := 1; n < 1_000_000; n *= 4 {
			got := budget.Task(d, n)
			if got < prev {
				t.Fatalf("Task not monotone at d=%d n=%d: %d < %d", d, n, got, prev)
			}
			prev = got
		}
	}
	// Task must grow strictly in D: the sweeps rely on a larger diameter
	// bound getting a larger allowance.
	prev = 0
	for d := 1; d < 2000; d *= 3 {
		got := budget.Task(d, 128)
		if got <= prev {
			t.Fatalf("Task not increasing in d at d=%d: %d <= %d", d, got, prev)
		}
		prev = got
	}
	prev = 0
	for d := 1; d < 3000; d += 17 {
		got := budget.Synchronizer(d)
		if got < prev {
			t.Fatalf("Synchronizer not monotone at d=%d: %d < %d", d, got, prev)
		}
		prev = got
	}
}

// TestPositive: every budget is strictly positive on valid inputs (the
// engines treat the budget as a hard round count; zero would mean instant
// failure).
func TestPositive(t *testing.T) {
	for k := 1; k < 100; k++ {
		if budget.AU(k) <= 0 {
			t.Fatalf("AU(%d) <= 0", k)
		}
	}
	for d := 1; d < 20; d++ {
		for n := 1; n < 100; n += 7 {
			if budget.Task(d, n) <= 0 {
				t.Fatalf("Task(%d, %d) <= 0", d, n)
			}
		}
		if budget.Synchronizer(d) <= 0 {
			t.Fatalf("Synchronizer(%d) <= 0", d)
		}
	}
}
