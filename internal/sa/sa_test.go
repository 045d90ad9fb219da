package sa_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"thinunison/internal/sa"
)

func TestSignalBasicOps(t *testing.T) {
	s := sa.NewSignal(130) // spans three words
	for _, q := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(q) {
			t.Errorf("fresh signal has bit %d", q)
		}
		s.Set(q)
		if !s.Has(q) {
			t.Errorf("Set(%d) not visible", q)
		}
	}
	if got := s.Count(); got != 8 {
		t.Errorf("Count = %d, want 8", got)
	}
	clearState(s, 64)
	if s.Has(64) {
		t.Error("clearing 64 through Words not effective")
	}
	s.Reset()
	if s.Count() != 0 {
		t.Error("Reset not effective")
	}
}

// clearState unmarks state q through the signal's word view.
func clearState(s sa.Signal, q sa.State) { s.Words()[q>>6] &^= 1 << uint(q&63) }

// hasAny reports whether any of the given states is sensed.
func hasAny(s sa.Signal, qs ...sa.State) bool {
	for _, q := range qs {
		if s.Has(q) {
			return true
		}
	}
	return false
}

func TestSignalStatesSorted(t *testing.T) {
	s := sa.NewSignal(100)
	want := []int{3, 17, 64, 99, 0}
	for _, q := range want {
		s.Set(q)
	}
	sort.Ints(want)
	got := s.States()
	if len(got) != len(want) {
		t.Fatalf("States() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("States() = %v, want %v", got, want)
		}
	}
}

func TestSignalSubsetOf(t *testing.T) {
	s := sa.NewSignal(70)
	s.Set(1)
	s.Set(65)
	if !s.SubsetOf(1, 65, 3) {
		t.Error("subset should hold")
	}
	if s.SubsetOf(1, 3) {
		t.Error("subset should fail: 65 not allowed")
	}
	empty := sa.NewSignal(70)
	if !empty.SubsetOf() {
		t.Error("empty signal is a subset of anything")
	}
	if !hasAny(s, 99, 65) {
		t.Error("hasAny should find 65")
	}
	if hasAny(s, 2, 3) {
		t.Error("hasAny false positive")
	}
}

func TestSignalEqualClone(t *testing.T) {
	a := sa.NewSignal(64)
	b := sa.NewSignal(64)
	a.Set(5)
	if a.Equal(b) {
		t.Error("different signals equal")
	}
	b.Set(5)
	if !a.Equal(b) {
		t.Error("identical signals unequal")
	}
	c := a.Clone()
	if !c.Equal(a) {
		t.Error("clone differs")
	}
	c.Set(6)
	if a.Has(6) {
		t.Error("clone shares storage with original")
	}
	if a.Equal(sa.NewSignal(128)) {
		t.Error("different-size signals should not be equal")
	}
}

// TestSignalSetHasProperty: after setting an arbitrary subset, Has agrees
// with membership and States round-trips.
func TestSignalSetHasProperty(t *testing.T) {
	f := func(qsRaw []uint16) bool {
		const n = 300
		s := sa.NewSignal(n)
		set := map[int]bool{}
		for _, q := range qsRaw {
			v := int(q) % n
			s.Set(v)
			set[v] = true
		}
		for q := 0; q < n; q++ {
			if s.Has(q) != set[q] {
				return false
			}
		}
		states := s.States()
		if len(states) != len(set) || s.Count() != len(set) {
			return false
		}
		for _, q := range states {
			if !set[q] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConfigHelpers(t *testing.T) {
	c := slices.Repeat(sa.Config{7}, 4)
	d := c.Clone()
	d[0] = 1
	if c[0] != 7 {
		t.Error("Clone shares storage")
	}
	if c.Equal(d) {
		t.Error("Equal false positive")
	}
	if !c.Equal(slices.Repeat(sa.Config{7}, 4)) {
		t.Error("Equal false negative")
	}
	if c.Equal(slices.Repeat(sa.Config{7}, 5)) {
		t.Error("length mismatch should be unequal")
	}
	rng := rand.New(rand.NewSource(1))
	r := sa.Random(100, 9, rng)
	for _, q := range r {
		if q < 0 || q >= 9 {
			t.Fatalf("Random out of range: %d", q)
		}
	}
}

// parityAlg is a minimal test Algorithm: states {0,1}, output = state,
// transition flips when sensing the other parity.
type parityAlg struct{}

func (parityAlg) NumStates() int      { return 2 }
func (parityAlg) IsOutput(q int) bool { return q == 1 }
func (parityAlg) Output(q int) int    { return q }
func (parityAlg) Transition(q int, sig sa.Signal, _ *rand.Rand) int {
	if sig.Has(1 - q) {
		return 1 - q
	}
	return q
}

// isOutputConfig reports whether every node resides in an output state.
func isOutputConfig(c sa.Config, alg sa.Algorithm) bool {
	for _, q := range c {
		if !alg.IsOutput(q) {
			return false
		}
	}
	return true
}

func TestIsOutputConfigAndString(t *testing.T) {
	alg := parityAlg{}
	if !isOutputConfig(sa.Config{1, 1, 1}, alg) {
		t.Error("all-1 config should be output config")
	}
	if isOutputConfig(sa.Config{1, 0, 1}, alg) {
		t.Error("config containing 0 is not an output config")
	}
	if s := (sa.Config{0, 1}).String(alg); s != "[q0 q1]" {
		t.Errorf("String = %q", s)
	}
	if got := sa.StateName(alg, 0); got != "q0" {
		t.Errorf("StateName = %q", got)
	}
}

// TestBuildSignalsMatchesScalarSignal is the property test for the batched
// CSR OR-scan: over random graphs, configurations and node ranges, the
// one-word signals must equal the scalar sa.Signal built the slow way.
func TestBuildSignalsMatchesScalarSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, states := range []int{2, 63, 64} {
		for trial := 0; trial < 30; trial++ {
			n := 1 + rng.Intn(150)
			adj := make([][]int, n)
			for v := 0; v < n; v++ {
				for u := v + 1; u < n; u++ {
					if rng.Float64() < 0.08 {
						adj[v] = append(adj[v], u)
						adj[u] = append(adj[u], v)
					}
				}
			}
			offsets := make([]int, n+1)
			var neighbors []int
			for v := 0; v < n; v++ {
				offsets[v+1] = offsets[v] + len(adj[v])
				neighbors = append(neighbors, adj[v]...)
			}

			cfg := sa.Random(n, states, rng)
			self := make([]uint64, n)
			for v, q := range cfg {
				self[v] = 1 << uint(q)
			}

			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			sws := make([]uint64, hi-lo)
			sa.BuildSignals(self, offsets, neighbors, lo, hi, sws)

			for v := lo; v < hi; v++ {
				sig := sa.NewSignal(states)
				sig.Set(cfg[v])
				for _, u := range adj[v] {
					sig.Set(cfg[u])
				}
				if sws[v-lo] != sig.Words()[0] {
					t.Fatalf("states=%d trial=%d: signal word of node %d = %#x, scalar %#x",
						states, trial, v, sws[v-lo], sig.Words()[0])
				}
			}
		}
	}
}

// TestSubsetOfAllocs pins the guard-evaluation path: SubsetOf must not
// allocate, even for multi-word signals.
func TestSubsetOfAllocs(t *testing.T) {
	sig := sa.NewSignal(130)
	sig.Set(3)
	sig.Set(70)
	sig.Set(129)
	allowed := []sa.State{3, 70, 129}
	allocs := testing.AllocsPerRun(200, func() {
		if !sig.SubsetOf(allowed...) {
			t.Fatal("subset check failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Signal.SubsetOf allocates %v times per call, want 0", allocs)
	}
}
