package core_test

import (
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/sa"
)

// FuzzClassifyAgainstReference cross-checks the production transition
// function against the independent Table 1 transcription on fuzzer-chosen
// (D, state, signal) inputs for D = 1 … 12: one-word signals (D ≤ 4),
// two-word ones (D = 5 … 10) and the pooled path (D ≥ 11). The two signal
// words give the sensed states mod 128. Run with
//
//	go test -run '^$' -fuzz '^FuzzClassifyAgainstReference$' ./internal/core
//
// to explore beyond the seed corpus; in normal test runs the corpus below
// is executed deterministically.
func FuzzClassifyAgainstReference(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint64(0), uint64(0))
	f.Add(uint8(2), uint8(7), uint64(0xdeadbeef), uint64(0))
	f.Add(uint8(3), uint8(41), uint64(0xffffffffffffffff), uint64(0))
	f.Add(uint8(4), uint8(12), uint64(1)<<53, uint64(0))
	// dRaw is D − 1: D = 5, D = 10 (order 64) and D = 11 (pooled path).
	f.Add(uint8(4), uint8(40), uint64(1)<<35|1<<2, uint64(1)<<1)
	f.Add(uint8(9), uint8(70), uint64(1)<<63|1<<1, uint64(1)<<61|1<<3)
	f.Add(uint8(9), uint8(125), uint64(1)<<62, uint64(1)<<60)
	f.Add(uint8(10), uint8(137), uint64(0x0f0f0f0f0f0f0f0f), uint64(0xf0f0f0f0f0f0f0f0))

	f.Fuzz(func(t *testing.T, dRaw, qRaw uint8, bits0, bits1 uint64) {
		d := 1 + int(dRaw)%12
		au, err := core.NewAU(d)
		if err != nil {
			t.Fatal(err)
		}
		q := int(qRaw) % au.NumStates()
		sig := sa.NewSignal(au.NumStates())
		sig.Set(q) // nodes always sense themselves
		words := [2]uint64{bits0, bits1}
		for s := 0; s < au.NumStates(); s++ {
			if words[s>>6&1]&(1<<uint(s&63)) != 0 {
				sig.Set(s)
			}
		}
		gotType, gotNext := au.Classify(q, sig)
		wantType, wantNext := au.ReferenceClassify(q, sig)
		if gotType != wantType || gotNext != wantNext {
			t.Fatalf("D=%d state=%v signal=%v: production (%v,%v) != reference (%v,%v)",
				d, au.Turn(q), sig.States(), gotType, au.Turn(gotNext), wantType, au.Turn(wantNext))
		}
		if gotNext < 0 || gotNext >= au.NumStates() {
			t.Fatalf("successor %d out of range", gotNext)
		}
	})
}

// FuzzLevelAlgebra checks φ/ψ/Dist identities on fuzzer-chosen inputs.
func FuzzLevelAlgebra(f *testing.F) {
	f.Add(uint8(2), int16(1), int8(1))
	f.Add(uint8(14), int16(-14), int8(-3))
	f.Add(uint8(5), int16(3), int8(0))

	f.Fuzz(func(t *testing.T, kRaw uint8, lRaw int16, j int8) {
		k := 2 + int(kRaw)%30
		ls, err := core.NewLevels(k)
		if err != nil {
			t.Fatal(err)
		}
		l := ls.FromIndex(int(lRaw))
		if !ls.Valid(l) {
			t.Fatalf("FromIndex produced invalid level %d for k=%d", l, k)
		}
		// φ round trips.
		if ls.PhiJ(ls.Phi(l), -1) != l {
			t.Fatalf("PhiJ(Phi(%d), -1) != %d (k=%d)", l, l, k)
		}
		// Dist to φ-successor is always 1; Dist is bounded by k.
		if ls.Dist(l, ls.Phi(l)) != 1 {
			t.Fatalf("Dist(%d, φ) != 1 (k=%d)", l, k)
		}
		if d := ls.Dist(l, ls.PhiJ(l, int(j))); d > k {
			t.Fatalf("Dist %d exceeds k=%d", d, k)
		}
		// ψ preserves sign and is inverted by the opposite step.
		if m, ok := ls.Psi(l, int(j)); ok {
			if (m > 0) != (l > 0) {
				t.Fatalf("Psi(%d, %d) = %d flipped sign", l, j, m)
			}
			back, ok2 := ls.Psi(m, -int(j))
			if !ok2 || back != l {
				t.Fatalf("Psi(Psi(%d,%d),%d) = %d, want %d", l, j, -j, back, l)
			}
		}
	})
}
