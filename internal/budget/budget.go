// Package budget centralizes the concrete round-budget formulas derived from
// the paper's theorems. Campaign's drivers (internal/campaign), and through
// them the facade's solvers and experiments E4, E6, E9 and F2, enforce
// stabilization against these budgets, as do the facade's Unison and E7 and
// E8. All formulas saturate at math.MaxInt instead of overflowing for
// degenerate (huge-D) inputs.
package budget

import "thinunison/internal/stats"

// AU is the Theorem 1.1 stabilization budget 60k³ + 500 for AlgAU with clock
// parameter k = 3D + 2 (a concrete constant for the paper's O(D³) rounds).
func AU(k int) int {
	return stats.SatAdd(stats.SatMul(60, k, k, k), 500)
}

// Task is the generous Theorem 1.3/1.4 budget 3000(D + log n)log n + 5000
// for the synchronous AlgLE/AlgMIS programs on an n-node graph.
func Task(d, n int) int {
	logn := stats.Log2(n)
	return stats.SatAdd(stats.SatMul(3000, stats.SatAdd(d, logn), logn), 5000)
}

// Synchronizer is the extra allowance 80k³ (k = 3D + 2) granted when a
// synchronous program runs through the Corollary 1.2 synchronizer, covering
// the pulse clock's own stabilization before simulated rounds make progress.
func Synchronizer(d int) int {
	k := stats.SatAdd(stats.SatMul(3, d), 2)
	return stats.SatMul(80, k, k, k)
}
