package asyncsim_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
)

// maxStep adopts the maximum sensed value — a deterministic program whose
// output is a pure function of the (mutating) topology, so the test can pin
// churn semantics exactly.
func maxStep(self int, sensed []int, _ *rand.Rand) int {
	m := self
	for _, u := range sensed {
		if u > m {
			m = u
		}
	}
	return m
}

// TestAsyncsimApplyDelta: a mid-run edge insertion must open a propagation
// path (and a deletion close one) for the running engine — the graph pointer
// the engine holds is re-compacted in place.
func TestAsyncsimApplyDelta(t *testing.T) {
	g, err := graph.Path(6)
	if err != nil {
		t.Fatal(err)
	}
	init := []int{9, 0, 0, 0, 0, 0}
	e, err := asyncsim.New(g, maxStep, init, sched.NewSynchronous(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the path behind node 1 and bridge 0 straight to 5 instead: the 9
	// must now reach node 5 in one step and nodes 2..4 over the reversed
	// path, proving the engine senses the new topology.
	d := graph.NewDelta(g)
	if err := d.InsertEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	touched, err := e.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 5}; !reflect.DeepEqual(touched, want) {
		t.Fatalf("touched = %v, want %v", touched, want)
	}
	e.Step()
	if e.State(5) != 9 || e.State(1) != 9 {
		t.Fatalf("new edge not sensed: states %v", e.States())
	}
	if e.State(2) != 0 {
		t.Fatalf("deleted edge still sensed: states %v", e.States())
	}
	for i := 0; i < 4; i++ {
		e.Step()
	}
	if want := []int{9, 9, 9, 9, 9, 9}; !reflect.DeepEqual(e.States(), want) {
		t.Fatalf("flood over churned topology = %v, want %v", e.States(), want)
	}
	if _, err := e.ApplyDelta(graph.NewDelta(mustPath(t, 6))); err == nil {
		t.Fatal("delta over a foreign graph must be rejected")
	}
}

func mustPath(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

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

// TestApplyDeltaDifferential: mid-run topology churn must keep the engine
// on the reference trajectory with either coin source, with each engine and
// each reference working its own copy of the graph under one shared stream
// of guarded edge flips.
func TestApplyDeltaDifferential(t *testing.T) {
	base, err := graph.BoundedDiameter(72, 4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	initRNG := rand.New(rand.NewSource(5))
	init := make([]gossip, base.N())
	for v := range init {
		init[v] = gossip{Val: initRNG.Intn(1000)}
	}
	clone := func() (*graph.Graph, *graph.Delta) {
		g, err := graph.New(base.N(), base.Edges())
		if err != nil {
			t.Fatal(err)
		}
		return g, graph.NewDelta(g)
	}
	type cell struct {
		p   int
		e   *asyncsim.Engine[gossip]
		ref *refEngine[gossip]
		ds  [2]*graph.Delta // the engine's and the reference's
	}
	var cells []*cell
	for _, p := range []int{0, 1, 3, 8} {
		g, d := clone()
		e, err := asyncsim.NewParallel(g, gossipStep, init, nil, 9, p)
		if err != nil {
			t.Fatal(err)
		}
		rg, rd := clone()
		coins := sharedCoins(9)
		if p >= 1 {
			coins = nodeSeedCoins(9)
		}
		cells = append(cells, &cell{p: p, e: e, ref: newRefEngine(rg, gossipStep, nil, init, coins), ds: [2]*graph.Delta{d, rd}})
	}
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 120; round++ {
		if round%10 == 5 {
			u, v := rng.Intn(base.N()), rng.Intn(base.N()-1)
			if v >= u {
				v++
			}
			for _, c := range cells {
				for _, d := range c.ds {
					if d.HasEdge(u, v) {
						if err := d.DeleteEdge(u, v); err != nil {
							t.Fatal(err)
						}
						if !d.Connected() {
							if err := d.InsertEdge(u, v); err != nil {
								t.Fatal(err)
							}
						}
					} else if err := d.InsertEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := c.e.ApplyDelta(c.ds[0]); err != nil {
					t.Fatalf("p=%d: %v", c.p, err)
				}
				c.ds[1].Apply()
			}
		}
		if round%25 == 20 {
			for _, c := range cells {
				c.e.SetState(3, gossip{Val: round * 1000})
				c.ref.states[3] = gossip{Val: round * 1000}
			}
		}
		for _, c := range cells {
			c.e.Step()
			c.ref.Step()
			if !slices.Equal(c.e.View(), c.ref.states) {
				t.Fatalf("round %d: p=%d diverged from the reference", round, c.p)
			}
			if !slices.Equal(c.e.Changed(), c.ref.changed) {
				t.Fatalf("round %d: p=%d Changed=%v, reference %v", round, c.p, c.e.Changed(), c.ref.changed)
			}
		}
	}
}
