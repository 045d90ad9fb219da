package le_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/restart"
	"thinunison/internal/syncsim"
)

// TestLocalStableMatchesStable runs AlgLE and cross-checks the incremental
// stability verdict (all nodes verified + leader weight sum exactly 1)
// against the full Stable scan after every round and after a fault burst.
func TestLocalStableMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{8, 16, 32} {
		g, err := graph.BoundedDiameter(n, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := le.New(le.Params{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		initial := make([]restart.State[le.State], g.N())
		for v := range initial {
			initial[v] = alg.RandomState(rng)
		}
		eng, err := asyncsim.New(g, alg.Step, initial, nil, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		chk := syncsim.NewChecker(g, func(v int) (bool, int) {
			ok, leader := le.LocalStable(eng.View()[v])
			if leader {
				return ok, 1
			}
			return ok, 0
		})
		check := func(at string) {
			t.Helper()
			got := chk.AllOK() && chk.Sum() == 1
			if want := le.Stable(eng.View()); got != want {
				t.Fatalf("n=%d %s round %d: incremental=%v, full=%v (sum=%d)",
					n, at, eng.Rounds(), got, want, chk.Sum())
			}
		}
		check("initial")
		for r := 0; r < 400; r++ {
			eng.Step()
			chk.Recheck(eng.Changed())
			check("step")
			if r == 200 {
				chk.Recheck(eng.InjectFaults(3, alg.RandomState))
				check("burst")
			}
		}
	}
}
