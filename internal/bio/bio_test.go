package bio_test

import (
	"testing"

	"thinunison/internal/bio"
)

func maxRounds(n *bio.Network) int {
	k := n.AU().K()
	return 60*k*k*k + 500
}

// phases returns the current clock value of every cell, or -1 for cells in
// faulty turns.
func phases(n *bio.Network) []int {
	cfg := n.Engine().Config()
	out := make([]int, len(cfg))
	for v, q := range cfg {
		out[v] = -1
		if n.AU().IsOutput(q) {
			out[v] = n.AU().Output(q)
		}
	}
	return out
}

func TestNetworkValidation(t *testing.T) {
	if _, err := bio.NewNetwork(bio.Config{Cells: 1}); err == nil {
		t.Error("Cells=1 should fail")
	}
	if _, err := bio.NewNetwork(bio.Config{Cells: 20, DiameterBound: 1, Seed: 1}); err == nil {
		t.Error("random topology cannot satisfy diameter bound 1; expect failure")
	}
}

// TestSynchronizeFromScratch: an uninitialized cell population synchronizes
// its pulse clock (the biological premise: no coordinated initialization).
func TestSynchronizeFromScratch(t *testing.T) {
	n, err := bio.NewNetwork(bio.Config{Cells: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunUntilSynchronized(maxRounds(n)); err != nil {
		t.Fatalf("population did not synchronize: %v", err)
	}
	if !n.Synchronized() {
		t.Fatal("Synchronized() inconsistent")
	}
	// All phases are valid clock values after synchronization.
	for v, p := range phases(n) {
		if p < 0 {
			t.Errorf("cell %d still in a faulty turn", v)
		}
	}
	// Every cell keeps pulsing.
	counts, err := n.PulseCounts(30)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range counts {
		if c == 0 {
			t.Errorf("cell %d did not pulse in 30 rounds", v)
		}
	}
}

// TestRecoveryFromEnvironmentalShocks: repeated fault bursts, each recovered
// from (experiment E7's unit-scale version).
func TestRecoveryFromEnvironmentalShocks(t *testing.T) {
	n, err := bio.NewNetwork(bio.Config{Cells: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunUntilSynchronized(maxRounds(n)); err != nil {
		t.Fatal(err)
	}
	for burst := 0; burst < 4; burst++ {
		if _, err := n.MeasureRecovery(4, maxRounds(n)); err != nil {
			t.Fatalf("burst %d: %v", burst, err)
		}
	}
	if got := len(n.Recoveries()); got != 4 {
		t.Errorf("recorded %d recoveries, want 4", got)
	}
	if _, err := n.PulseCounts(10); err != nil {
		t.Errorf("network should be synchronized after recovery: %v", err)
	}
}

// TestChurnWithinDiameterBound: topology rewiring within the bound is a
// transient disruption the clock survives.
func TestChurnWithinDiameterBound(t *testing.T) {
	n, err := bio.NewNetwork(bio.Config{Cells: 14, EdgeDensity: 0.4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunUntilSynchronized(maxRounds(n)); err != nil {
		t.Fatal(err)
	}
	rewired := 0
	for i := 0; i < 3; i++ {
		ok, err := n.Churn(2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue // no admissible rewiring found this time; fine
		}
		rewired++
		if _, err := n.RunUntilSynchronized(maxRounds(n)); err != nil {
			t.Fatalf("no re-synchronization after churn %d: %v", i, err)
		}
		if n.Graph().Diameter() > n.AU().D() {
			t.Fatal("churn violated the diameter bound")
		}
	}
	t.Logf("%d/3 churn events applied", rewired)
}

// TestPulseCountsRequiresSync: PulseCounts refuses on unsynchronized
// networks.
func TestPulseCountsRequiresSync(t *testing.T) {
	n, err := bio.NewNetwork(bio.Config{Cells: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	n.InjectTransientFaults(10)
	if n.Synchronized() {
		t.Skip("randomly landed synchronized; skip")
	}
	if _, err := n.PulseCounts(5); err == nil {
		t.Error("PulseCounts should fail on unsynchronized network")
	}
}

// TestChurnUsesDeltaPath pins the delta-path rewrite of Churn: the network
// keeps its graph and engine identities across rewirings (topology mutates
// in place instead of rebuilding both), the diameter bound is enforced after
// every successful rewiring, a failed search leaves the edge set untouched,
// and the surviving engine still drives the clock.
func TestChurnUsesDeltaPath(t *testing.T) {
	n, err := bio.NewNetwork(bio.Config{Cells: 16, EdgeDensity: 0.4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g, eng := n.Graph(), n.Engine()
	if _, err := n.RunUntilSynchronized(maxRounds(n)); err != nil {
		t.Fatal(err)
	}
	applied := 0
	for i := 0; i < 8; i++ {
		before := g.Edges()
		ok, err := n.Churn(2)
		if err != nil {
			t.Fatal(err)
		}
		if n.Graph() != g || n.Engine() != eng {
			t.Fatal("Churn replaced the graph or engine instead of mutating in place")
		}
		if !ok {
			after := g.Edges()
			if len(after) != len(before) {
				t.Fatalf("failed churn changed the edge set: %d -> %d edges", len(before), len(after))
			}
			for j := range after {
				if after[j] != before[j] {
					t.Fatalf("failed churn changed the edge set at %d: %v -> %v", j, before[j], after[j])
				}
			}
			continue
		}
		applied++
		if err := g.Validate(); err != nil {
			t.Fatalf("churned topology invalid: %v", err)
		}
		if d := g.Diameter(); d > n.AU().D() {
			t.Fatalf("churn violated the diameter bound: diameter %d > D %d", d, n.AU().D())
		}
		if _, err := n.RunUntilSynchronized(maxRounds(n)); err != nil {
			t.Fatalf("no re-synchronization after in-place churn %d: %v", i, err)
		}
	}
	if applied == 0 {
		t.Skip("no admissible rewiring found for any attempt; diameter/identity checks not exercised")
	}
	t.Logf("%d/8 churn events applied in place", applied)
}
