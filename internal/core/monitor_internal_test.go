package core

import (
	"slices"
	"testing"

	"thinunison/internal/graph"
	"thinunison/internal/sa"
)

// TestGoodDeferredStopsAtFirstBadWitness: the deferred verdict answers
// false at the first cached witness still bad. The healed witnesses before
// it are dropped, and it and the untested ones after it stay cached; once
// every witness has healed, the scan decides and promotes.
func TestGoodDeferredStopsAtFirstBadWitness(t *testing.T) {
	g, err := graph.Path(12)
	if err != nil {
		t.Fatal(err)
	}
	au, err := NewAU(2)
	if err != nil {
		t.Fatal(err)
	}
	able := au.MustState(Turn{Level: 1})
	cfg := make(sa.Config, g.N())
	for v := range cfg {
		cfg[v] = able
	}
	cfg[8] = au.MustState(Turn{Level: 2, Faulty: true})
	m := NewGoodMonitor(au, g, cfg)

	// Node 2 has healed, node 8 is bad, and node 11 is good too: a test of
	// it would drop it, so keeping it shows it was not tested.
	m.witnesses = append(m.witnesses[:0], 2, 8, 11)
	if m.Good() {
		t.Fatal("Good() = true with faulty node 8")
	}
	if want := []int{8, 11}; !slices.Equal(m.witnesses, want) {
		t.Fatalf("witnesses %v, want %v", m.witnesses, want)
	}
	// The first witness is still bad: the cache stays as it is.
	if m.Good() {
		t.Fatal("Good() = true with faulty node 8")
	}
	if want := []int{8, 11}; !slices.Equal(m.witnesses, want) {
		t.Fatalf("witnesses %v after a second verdict, want %v", m.witnesses, want)
	}
	if !m.deferred {
		t.Fatal("monitor left the deferred regime on a bad graph")
	}

	// Every witness healed: the scan finds the graph good and promotes.
	m.Apply(8, able)
	if !m.Good() {
		t.Fatal("Good() = false on a uniform able configuration")
	}
	if m.deferred || len(m.witnesses) != 0 {
		t.Fatalf("after the clean scan: deferred=%v witnesses %v, want promoted and empty", m.deferred, m.witnesses)
	}
}
