package syncsim_test

import (
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
)

func newIntEngine(t *testing.T, n int) *asyncsim.Engine[int] {
	t.Helper()
	g, err := graph.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	step := func(self int, _ []int, _ *rand.Rand) int { return self }
	eng, err := asyncsim.New(g, step, make([]int, n), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestInjectFaultsClamps covers the degenerate counts the campaign fault
// specs can produce on a synchronous engine: negative counts inject
// nothing, oversized counts clamp to n, and the corrupted nodes are
// distinct.
func TestInjectFaultsClamps(t *testing.T) {
	random := func(rng *rand.Rand) int { return 1 + rng.Intn(9) }

	eng := newIntEngine(t, 8)
	if hit := eng.InjectFaults(-5, random); len(hit) != 0 {
		t.Errorf("negative count injected %d faults", len(hit))
	}
	for _, s := range eng.States() {
		if s != 0 {
			t.Error("negative count mutated state")
		}
	}

	hit := eng.InjectFaults(100, random)
	if len(hit) != 8 {
		t.Errorf("oversized count hit %d nodes, want all 8", len(hit))
	}
	seen := map[int]bool{}
	for _, v := range hit {
		if seen[v] {
			t.Errorf("node %d corrupted twice in one burst", v)
		}
		seen[v] = true
	}
	for _, s := range eng.States() {
		if s == 0 {
			t.Error("full-network burst left a node uncorrupted")
		}
	}
}
