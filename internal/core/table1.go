package core

import (
	"fmt"

	"thinunison/internal/sa"
)

// This file reproduces Table 1 of the paper ("The transition types of AlgAU
// in step t") both as a renderable artifact and as an executable conformance
// check: for every (turn, signal) pair in an exhaustive enumeration, the
// implemented transition function must agree with an independent, literal
// transcription of the three Table-1 conditions.

// Table1Row is one row of Table 1.
type Table1Row struct {
	Type      TransitionType
	Pre       string
	Post      string
	Condition string
}

// Table1 returns the three rows of Table 1, verbatim from the paper.
func Table1() []Table1Row {
	return []Table1Row{
		{Type: AA, Pre: "ℓ, 1 ≤ |ℓ| ≤ k", Post: "φ+1(ℓ)", Condition: "v is good and Λ ⊆ {ℓ, φ+1(ℓ)}"},
		{Type: AF, Pre: "ℓ, 2 ≤ |ℓ| ≤ k", Post: "ℓ̂", Condition: "v ∉ V_p or v senses turn ψ−1(ℓ)-hat"},
		{Type: FA, Pre: "ℓ̂, 2 ≤ |ℓ| ≤ k", Post: "ψ−1(ℓ)", Condition: "Λ ∩ Ψ>(ℓ) = ∅"},
	}
}

// ReferenceClassify is the independent, deliberately literal transcription
// of the Table 1 conditions used to cross-check Classify (see
// CheckTable1Conformance and the fuzz targets). It recomputes everything
// from the raw signal without the production decoding shortcuts.
func (a *AU) ReferenceClassify(q sa.State, sig sa.Signal) (TransitionType, sa.State) {
	self := a.Turn(q)
	ls := a.ls

	// Reconstruct the sensed turn set.
	var sensed []Turn
	for s := 0; s < a.NumStates(); s++ {
		if sig.Has(s) {
			sensed = append(sensed, a.Turn(s))
		}
	}
	sensesTurn := func(t Turn) bool {
		for _, s := range sensed {
			if s == t {
				return true
			}
		}
		return false
	}
	// Λ: the set of sensed levels.
	sensesLevel := func(l Level) bool {
		for _, s := range sensed {
			if s.Level == l {
				return true
			}
		}
		return false
	}
	// v ∈ V_p: every sensed level is adjacent to λ_v.
	protected := true
	for _, s := range sensed {
		if !ls.Adjacent(self.Level, s.Level) {
			protected = false
		}
	}
	// v is good: protected and senses no faulty turn.
	good := protected
	for _, s := range sensed {
		if s.Faulty {
			good = false
		}
	}

	if !self.Faulty {
		l := self.Level
		// AF has priority over AA in the implementation; the two conditions
		// are mutually exclusive anyway (AF requires not-protected or a
		// sensed faulty turn, both of which falsify "good").
		if abs(l) >= 2 {
			in, ok := ls.Psi(l, -1)
			sensesInFaulty := ok && abs(in) >= 2 && sensesTurn(Turn{Level: in, Faulty: true})
			if !protected || sensesInFaulty {
				return AF, a.MustState(Turn{Level: l, Faulty: true})
			}
		}
		if good {
			inSet := true
			for _, s := range sensed {
				if s.Level != l && s.Level != ls.Phi(l) {
					inSet = false
				}
			}
			if inSet {
				return AA, a.MustState(Turn{Level: ls.Phi(l)})
			}
		}
		return None, q
	}

	// FA: Λ ∩ Ψ>(ℓ) = ∅.
	l := self.Level
	for j := 1; ; j++ {
		out, ok := ls.Psi(l, j)
		if !ok {
			break
		}
		if sensesLevel(out) {
			return None, q
		}
	}
	in, _ := ls.Psi(l, -1)
	return FA, a.MustState(Turn{Level: in})
}

// Table1ConformanceReport summarizes a conformance enumeration.
type Table1ConformanceReport struct {
	D            int
	PairsChecked int
	CountByType  map[TransitionType]int
	Mismatches   []string
}

// CheckTable1Conformance enumerates (state, signal-basis-subset) pairs — the
// same exhaustive abstraction as DerivedEdges — and compares the production
// Classify against the literal reference transcription of Table 1. It
// returns a report; conformance holds iff Mismatches is empty.
func (a *AU) CheckTable1Conformance(maxMismatches int) Table1ConformanceReport {
	rep := Table1ConformanceReport{
		D:           a.d,
		CountByType: make(map[TransitionType]int),
	}
	for q := 0; q < a.NumStates(); q++ {
		basis := a.signalBasis(a.Turn(q))
		for mask := 0; mask < 1<<uint(len(basis)); mask++ {
			sig := sa.NewSignal(a.NumStates())
			sig.Set(q)
			for i, b := range basis {
				if mask&(1<<uint(i)) != 0 {
					sig.Set(b)
				}
			}
			gotType, gotNext := a.Classify(q, sig)
			wantType, wantNext := a.ReferenceClassify(q, sig)
			rep.PairsChecked++
			rep.CountByType[gotType]++
			if gotType != wantType || gotNext != wantNext {
				if len(rep.Mismatches) < maxMismatches {
					rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
						"state %v signal %v: got (%v, %v), want (%v, %v)",
						a.Turn(q), sig.States(), gotType, a.Turn(gotNext), wantType, a.Turn(wantNext)))
				}
			}
		}
	}
	return rep
}
