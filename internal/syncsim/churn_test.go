package syncsim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
)

// gossip adopts the maximum value it senses, flipping a cosmetic coin when
// it does, so evaluations consume randomness exactly while a new maximum
// spreads.
type gossip struct {
	Val  int
	Coin bool
}

func gossipStep(self gossip, sensed []gossip, rng *rand.Rand) gossip {
	m := self.Val
	for _, u := range sensed {
		if u.Val > m {
			m = u.Val
		}
	}
	if m > self.Val {
		return gossip{Val: m, Coin: rng.Intn(2) == 1}
	}
	return self
}

func gossipGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.BoundedDiameter(72, 4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func gossipInitial(n int, seed int64) []gossip {
	rng := rand.New(rand.NewSource(seed))
	init := make([]gossip, n)
	for v := range init {
		init[v] = gossip{Val: rng.Intn(1000)}
	}
	return init
}

// TestSyncsimApplyDeltaDifferential: mid-run topology churn must keep the
// synchronous engines at p = 3 and 8 on the byte-identical trajectory of
// the one at p = 1 — all draw from the same per-(round, node) streams, so
// positive p are interchangeable. Each engine works its own graph copy with
// its own delta; the op stream is shared.
func TestSyncsimApplyDeltaDifferential(t *testing.T) {
	base := gossipGraph(t)
	init := gossipInitial(base.N(), 5)
	type eng struct {
		p int
		g *graph.Graph
		e *asyncsim.Engine[gossip]
		d *graph.Delta
	}
	var engines []*eng
	for _, p := range []int{1, 3, 8} {
		g, err := graph.New(base.N(), base.Edges())
		if err != nil {
			t.Fatal(err)
		}
		e, err := asyncsim.NewParallel(g, gossipStep, init, nil, 9, p)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, &eng{p: p, g: g, e: e, d: graph.NewDelta(g)})
	}
	ref := engines[0]
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 120; round++ {
		if round%10 == 5 {
			u, v := rng.Intn(base.N()), rng.Intn(base.N()-1)
			if v >= u {
				v++
			}
			for _, en := range engines {
				if en.d.HasEdge(u, v) {
					if err := en.d.DeleteEdge(u, v); err != nil {
						t.Fatal(err)
					}
					if !en.d.Connected() {
						if err := en.d.InsertEdge(u, v); err != nil {
							t.Fatal(err)
						}
					}
				} else if err := en.d.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
				if _, err := en.e.ApplyDelta(en.d); err != nil {
					t.Fatalf("p=%d: %v", en.p, err)
				}
			}
		}
		if round%25 == 20 {
			for _, en := range engines {
				en.e.SetState(3, gossip{Val: round * 1000})
			}
		}
		for _, en := range engines {
			en.e.Step()
		}
		for _, en := range engines[1:] {
			if en.g.M() != ref.g.M() {
				t.Fatalf("round %d: p=%d at m=%d, p=1 at m=%d", round, en.p, en.g.M(), ref.g.M())
			}
			if !reflect.DeepEqual(en.e.View(), ref.e.View()) {
				t.Fatalf("round %d: p=%d diverged from p=1", round, en.p)
			}
			got := append([]int{}, en.e.Changed()...)
			want := append([]int{}, ref.e.Changed()...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: p=%d Changed=%v, p=1 %v", round, en.p, got, want)
			}
		}
	}
}

// TestSyncsimApplyDeltaForeignGraph pins the refusal path.
func TestSyncsimApplyDeltaForeignGraph(t *testing.T) {
	g := gossipGraph(t)
	other := gossipGraph(t)
	e, err := asyncsim.New(g, gossipStep, gossipInitial(g.N(), 1), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyDelta(graph.NewDelta(other)); err == nil {
		t.Fatal("delta over a foreign graph must be rejected")
	}
	// Touched nodes come back so dirty-set stability checks know what to
	// recheck.
	d := graph.NewDelta(g)
	if err := d.InsertEdge(0, g.N()-1); err != nil {
		t.Fatal(err)
	}
	touched, err := e.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, g.N() - 1}; !reflect.DeepEqual(touched, want) {
		t.Fatalf("touched = %v, want %v", touched, want)
	}
}
