package mis_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/mis"
	"thinunison/internal/restart"
	"thinunison/internal/syncsim"
)

// TestLocalStableMatchesStable runs AlgMIS and cross-checks the dirty-set
// incremental stability verdict against the full Stable scan after every
// round and after a mid-run fault burst. This anchors the campaign's
// incremental MIS check: same booleans at the same times, hence identical
// round counts and JSONL output.
func TestLocalStableMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{8, 16, 32} {
		g, err := graph.BoundedDiameter(n, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := mis.New(mis.Params{D: 3})
		if err != nil {
			t.Fatal(err)
		}
		initial := make([]restart.State[mis.State], g.N())
		for v := range initial {
			initial[v] = alg.RandomState(rng)
		}
		eng, err := asyncsim.New(g, alg.Step, initial, nil, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		chk := syncsim.NewChecker(g, func(v int) (bool, int) {
			return mis.LocalStable(g, eng.View(), v), 0
		})
		check := func(at string) {
			t.Helper()
			if got, want := chk.AllOK(), mis.Stable(g, eng.View()); got != want {
				t.Fatalf("n=%d %s round %d: incremental=%v, full=%v", n, at, eng.Rounds(), got, want)
			}
		}
		check("initial")
		for r := 0; r < 300; r++ {
			eng.Step()
			chk.Recheck(eng.Changed())
			check("step")
			if r == 120 {
				chk.Recheck(eng.InjectFaults(4, alg.RandomState))
				check("burst")
			}
		}
	}
}
