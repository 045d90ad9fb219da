package core_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/sa"
)

// maxClassifyD spans every Classify path: one-word signals (D ≤ 4), two-word
// signals with the single-word rows (D = 5 … 10, order = 64 at D = 10) and
// the pooled stride-word path (D ≥ 11).
const maxClassifyD = 12

// checkClassify fails unless Classify agrees with the Table 1 reference on
// (q, sig), and returns the verdict.
func checkClassify(t *testing.T, au *core.AU, q sa.State, sig sa.Signal) core.TransitionType {
	t.Helper()
	gotType, gotNext := au.Classify(q, sig)
	wantType, wantNext := au.ReferenceClassify(q, sig)
	if gotType != wantType || gotNext != wantNext {
		t.Fatalf("D=%d state %v senses %v: Classify (%v, %v), reference (%v, %v)",
			au.D(), au.Turn(q), sig.States(), gotType, au.Turn(gotNext), wantType, au.Turn(wantNext))
	}
	return gotType
}

// TestClassifyMatchesReferencePairs: for D = 1 … 12, Classify agrees with
// the reference on every signal of a state and one more sensed state, which
// puts every faulty turn of every word behind every able and faulty state.
func TestClassifyMatchesReferencePairs(t *testing.T) {
	for d := 1; d <= maxClassifyD; d++ {
		au := mustAU(t, d)
		nq := au.NumStates()
		sig := sa.NewSignal(nq)
		var seen [4]int
		for q := range nq {
			for r := range nq {
				sig.Reset()
				sig.Set(q)
				sig.Set(r)
				seen[checkClassify(t, au, q, sig)]++
			}
		}
		for typ, n := range seen {
			if n == 0 {
				t.Errorf("D=%d: no %v verdict among the pairs", d, core.TransitionType(typ))
			}
		}
	}
}

// TestClassifyMatchesReferenceRandom: for D = 1 … 12, Classify agrees with
// the reference on seeded random signals of up to eight sensed states, half
// of them drawn near the node's own level so AA and FA verdicts stay
// common.
func TestClassifyMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for d := 1; d <= maxClassifyD; d++ {
		au := mustAU(t, d)
		ls := au.Levels()
		nq := au.NumStates()
		sig := sa.NewSignal(nq)
		var seen [4]int
		for range 4000 {
			q := rng.Intn(nq)
			pos := ls.Index(au.Turn(q).Level)
			sig.Reset()
			sig.Set(q)
			for range rng.Intn(8) {
				if rng.Intn(2) == 0 {
					sig.Set(rng.Intn(nq))
					continue
				}
				l := ls.FromIndex(pos + rng.Intn(5) - 2)
				faulty := (l >= 2 || l <= -2) && rng.Intn(3) == 0
				sig.Set(au.MustState(core.Turn{Level: l, Faulty: faulty}))
			}
			seen[checkClassify(t, au, q, sig)]++
		}
		for typ, n := range seen {
			if n == 0 {
				t.Errorf("D=%d: no %v verdict among the random signals", d, core.TransitionType(typ))
			}
		}
	}
}

// TestClassifyTwoWordAllocatesNothing: two-word signals are classified in
// registers, at D = 5 (order 34) and at D = 10 (order 64).
func TestClassifyTwoWordAllocatesNothing(t *testing.T) {
	for _, d := range []int{5, 10} {
		au := mustAU(t, d)
		nq := au.NumStates()
		sig := sa.NewSignal(nq)
		q := au.MustState(core.Turn{Level: 2, Faulty: true})
		sig.Set(q)
		sig.Set(nq - 1)
		sig.Set(au.MustState(core.Turn{Level: 3}))
		var sink core.TransitionType
		if n := testing.AllocsPerRun(100, func() {
			typ, _ := au.Classify(q, sig)
			sink += typ
		}); n != 0 {
			t.Fatalf("D=%d: Classify allocates %v times per call, want 0", d, n)
		}
	}
}
