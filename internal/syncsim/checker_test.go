package syncsim_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/syncsim"
)

// TestCheckerMatchesFullScan drives a toy program whose stability condition
// has both a node-local part (state equals the minimum sensed so far) and a
// weighted global part (number of zeros), and cross-checks the incremental
// checker against a full re-evaluation after every round.
func TestCheckerMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := graph.RandomConnected(24, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Each node steps toward the minimum of its neighborhood: converges to
	// the global minimum everywhere.
	step := func(self int, sensed []int, _ *rand.Rand) int {
		return syncsim.MinSensed(sensed, func(s int) int { return s })
	}
	initial := make([]int, g.N())
	for v := range initial {
		initial[v] = rng.Intn(10)
	}
	eng, err := asyncsim.New(g, step, initial, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(v int) (bool, int) {
		states := eng.View()
		ok := true
		for _, u := range g.Neighbors(v) {
			if states[u] < states[v] {
				ok = false
				break
			}
		}
		w := 0
		if states[v] == 0 {
			w = 1
		}
		return ok, w
	}
	chk := syncsim.NewChecker(g, eval)
	for r := 0; r < 30; r++ {
		eng.Step()
		chk.Recheck(eng.Changed())
		wantOK, wantSum := true, 0
		for v := 0; v < g.N(); v++ {
			ok, w := eval(v)
			wantOK = wantOK && ok
			wantSum += w
		}
		if chk.AllOK() != wantOK || chk.Sum() != wantSum {
			t.Fatalf("round %d: checker (ok=%v sum=%d), full scan (ok=%v sum=%d)",
				r, chk.AllOK(), chk.Sum(), wantOK, wantSum)
		}
	}
	// After convergence the whole graph holds the minimum; AllOK must hold.
	if !chk.AllOK() {
		t.Fatal("min-flood did not converge to a locally stable configuration")
	}
}

// TestCheckerRecheckAll pins RecheckAll after a wholesale state rewrite.
func TestCheckerRecheckAll(t *testing.T) {
	g, err := graph.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	states := []int{1, 1, 1, 1, 1}
	chk := syncsim.NewChecker(g, func(v int) (bool, int) {
		return states[v] == 1, states[v]
	})
	if !chk.AllOK() || chk.Sum() != 5 {
		t.Fatalf("initial: ok=%v sum=%d, want true/5", chk.AllOK(), chk.Sum())
	}
	for v := range states {
		states[v] = 2
	}
	chk.RecheckAll()
	if chk.AllOK() || chk.Sum() != 10 {
		t.Fatalf("after rewrite: ok=%v sum=%d, want false/10", chk.AllOK(), chk.Sum())
	}
}
