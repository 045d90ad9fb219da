package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"thinunison/internal/core"
)

func mustLevels(t *testing.T, k int) core.Levels {
	t.Helper()
	ls, err := core.NewLevels(k)
	if err != nil {
		t.Fatalf("NewLevels(%d): %v", k, err)
	}
	return ls
}

// randomLevel draws a uniformly random valid level for the given k.
func randomLevel(ls core.Levels, rng *rand.Rand) core.Level {
	return ls.FromIndex(rng.Intn(ls.Order()))
}

func TestLevelsConstruction(t *testing.T) {
	if _, err := core.NewLevels(1); err == nil {
		t.Error("NewLevels(1) should fail")
	}
	ls := mustLevels(t, 5)
	if ls.K() != 5 || ls.Order() != 10 {
		t.Errorf("K=%d Order=%d, want 5, 10", ls.K(), ls.Order())
	}
}

func TestPhiCycleStructure(t *testing.T) {
	// φ is the successor on the cycle -k, ..., -1, 1, ..., k, -k.
	ls := mustLevels(t, 4)
	wantOrder := []core.Level{-4, -3, -2, -1, 1, 2, 3, 4}
	cur := core.Level(-4)
	for i := 0; i < ls.Order(); i++ {
		if cur != wantOrder[i%len(wantOrder)] {
			t.Fatalf("position %d: got %d, want %d", i, cur, wantOrder[i%len(wantOrder)])
		}
		cur = ls.Phi(cur)
	}
	if cur != -4 {
		t.Errorf("after 2k applications of φ, got %d, want -4", cur)
	}
}

func TestPhiSpecialCases(t *testing.T) {
	ls := mustLevels(t, 3)
	cases := []struct{ in, want core.Level }{
		{-1, 1}, {3, -3}, {-3, -2}, {1, 2}, {2, 3}, {-2, -1},
	}
	for _, c := range cases {
		if got := ls.Phi(c.in); got != c.want {
			t.Errorf("Phi(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPhiBijective(t *testing.T) {
	// Property: φ is a bijection and PhiJ(l, -1) inverts it (quick over k).
	f := func(kSeed, lSeed uint8) bool {
		k := 2 + int(kSeed)%10
		ls, err := core.NewLevels(k)
		if err != nil {
			return false
		}
		l := ls.FromIndex(int(lSeed) % ls.Order())
		return ls.PhiJ(ls.Phi(l), -1) == l && ls.Phi(ls.PhiJ(l, -1)) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhiJComposition(t *testing.T) {
	// Property: PhiJ(l, a+b) == PhiJ(PhiJ(l, a), b).
	f := func(kSeed, lSeed uint8, a, b int8) bool {
		k := 2 + int(kSeed)%10
		ls, err := core.NewLevels(k)
		if err != nil {
			return false
		}
		l := ls.FromIndex(int(lSeed) % ls.Order())
		return ls.PhiJ(l, int(a)+int(b)) == ls.PhiJ(ls.PhiJ(l, int(a)), int(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	ls := mustLevels(t, 6)
	for _, l := range ls.All() {
		if got := ls.FromIndex(ls.Index(l)); got != l {
			t.Errorf("FromIndex(Index(%d)) = %d", l, got)
		}
	}
	for i := 0; i < ls.Order(); i++ {
		if got := ls.Index(ls.FromIndex(i)); got != i {
			t.Errorf("Index(FromIndex(%d)) = %d", i, got)
		}
	}
	// FromIndex must normalize out-of-range indices.
	if ls.FromIndex(-1) != ls.FromIndex(ls.Order()-1) {
		t.Error("FromIndex(-1) should wrap")
	}
	// Within three turns of the clock either way, FromIndex(i) is the level
	// at the double-modulo position of i.
	order := ls.Order()
	for i := -3 * order; i < 3*order; i++ {
		want := ls.FromIndex(((i % order) + order) % order)
		if got := ls.FromIndex(i); got != want {
			t.Errorf("FromIndex(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestDistMetricAxioms(t *testing.T) {
	// Property: Dist is a metric (identity, symmetry, triangle inequality)
	// and agrees with the recursive definition in the paper.
	f := func(kSeed, aSeed, bSeed, cSeed uint8) bool {
		k := 2 + int(kSeed)%8
		ls, err := core.NewLevels(k)
		if err != nil {
			return false
		}
		a := ls.FromIndex(int(aSeed) % ls.Order())
		b := ls.FromIndex(int(bSeed) % ls.Order())
		c := ls.FromIndex(int(cSeed) % ls.Order())
		if ls.Dist(a, a) != 0 {
			return false
		}
		if ls.Dist(a, b) != ls.Dist(b, a) {
			return false
		}
		if ls.Dist(a, c) > ls.Dist(a, b)+ls.Dist(b, c) {
			return false
		}
		if (ls.Dist(a, b) == 0) != (a == b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDistMatchesRecursiveDefinition(t *testing.T) {
	// Exhaustively compare Dist with the paper's recurrence for small k.
	ls := mustLevels(t, 4)
	var rec func(a, b core.Level, fuel int) int
	rec = func(a, b core.Level, fuel int) int {
		if a == b {
			return 0
		}
		if fuel == 0 {
			return 1 << 30
		}
		d1 := rec(a, ls.PhiJ(b, -1), fuel-1)
		d2 := rec(a, ls.Phi(b), fuel-1)
		if d2 < d1 {
			d1 = d2
		}
		return 1 + d1
	}
	for _, a := range ls.All() {
		for _, b := range ls.All() {
			want := rec(a, b, ls.Order())
			if got := ls.Dist(a, b); got != want {
				t.Errorf("Dist(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestAdjacentIffDistAtMostOne(t *testing.T) {
	ls := mustLevels(t, 5)
	for _, a := range ls.All() {
		for _, b := range ls.All() {
			want := ls.Dist(a, b) <= 1
			if got := ls.Adjacent(a, b); got != want {
				t.Errorf("Adjacent(%d,%d) = %v, Dist = %d", a, b, got, ls.Dist(a, b))
			}
		}
	}
}

func TestPsiOperator(t *testing.T) {
	ls := mustLevels(t, 5)
	cases := []struct {
		l    core.Level
		j    int
		want core.Level
		ok   bool
	}{
		{2, 1, 3, true},
		{2, -1, 1, true},
		{-2, 1, -3, true},
		{-2, -1, -1, true},
		{5, 1, 0, false},  // beyond k
		{1, -1, 0, false}, // below 1
		{-5, -4, -1, true},
		{3, 2, 5, true},
	}
	for _, c := range cases {
		got, ok := ls.Psi(c.l, c.j)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Psi(%d,%d) = (%d,%v), want (%d,%v)", c.l, c.j, got, ok, c.want, c.ok)
		}
	}
}

func TestPsiPreservesSign(t *testing.T) {
	f := func(kSeed, lSeed uint8, j int8) bool {
		k := 2 + int(kSeed)%10
		ls, err := core.NewLevels(k)
		if err != nil {
			return false
		}
		l := ls.FromIndex(int(lSeed) % ls.Order())
		m, ok := ls.Psi(l, int(j))
		if !ok {
			return true // out of range is fine
		}
		return (m > 0) == (l > 0) && ls.Valid(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOutwardsInwardsPartition(t *testing.T) {
	// For same-sign pairs, exactly one of {outwards, inwards, equal} holds;
	// StrictlyOutwards implies Outwards minus the ψ+1 case.
	ls := mustLevels(t, 6)
	for _, a := range ls.All() {
		for _, b := range ls.All() {
			if (a > 0) != (b > 0) {
				if ls.Outwards(a, b) || ls.Inwards(a, b) || ls.StrictlyOutwards(a, b) {
					t.Errorf("cross-sign pair (%d,%d) classified as out/inwards", a, b)
				}
				continue
			}
			out, in := ls.Outwards(a, b), ls.Inwards(a, b)
			eq := a == b
			n := 0
			for _, x := range []bool{out, in, eq} {
				if x {
					n++
				}
			}
			if n != 1 {
				t.Errorf("(%d,%d): outwards=%v inwards=%v equal=%v", a, b, out, in, eq)
			}
			plus1, ok := ls.Psi(a, 1)
			wantStrict := out && (!ok || b != plus1)
			if got := ls.StrictlyOutwards(a, b); got != wantStrict {
				t.Errorf("StrictlyOutwards(%d,%d) = %v, want %v", a, b, got, wantStrict)
			}
		}
	}
}

func TestAllLevels(t *testing.T) {
	ls := mustLevels(t, 3)
	want := []core.Level{-3, -2, -1, 1, 2, 3}
	got := ls.All()
	if len(got) != len(want) {
		t.Fatalf("All() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("All() = %v, want %v", got, want)
		}
	}
	if ls.Valid(0) {
		t.Error("level 0 must be invalid")
	}
	if err := ls.Check(0); err == nil {
		t.Error("Check(0) should fail")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if l := randomLevel(ls, rng); !ls.Valid(l) {
			t.Fatalf("randomLevel produced invalid level %d", l)
		}
	}
}
