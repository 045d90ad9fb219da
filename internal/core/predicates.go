package core

import (
	"thinunison/internal/graph"
	"thinunison/internal/sa"
)

// This file implements the configuration predicates of Sec. 2.3 (protected,
// out-protected, good, justifiably faulty, grounded) as checkable functions
// over a graph and a configuration. They power the stabilization detectors,
// the invariant hooks (Obs. 2.1–2.6, Lem. 2.16) and the tests.

// LevelOf returns the level λ_v of node v under cfg.
func (a *AU) LevelOf(cfg sa.Config, v graph.NodeID) Level {
	return a.Turn(cfg[v]).Level
}

// IsFaultyNode reports whether node v resides in a faulty turn under cfg.
func (a *AU) IsFaultyNode(cfg sa.Config, v graph.NodeID) bool {
	return a.Turn(cfg[v]).Faulty
}

// EdgeProtected reports whether edge (u, v) is protected under cfg: the
// levels of its endpoints are adjacent.
func (a *AU) EdgeProtected(cfg sa.Config, u, v graph.NodeID) bool {
	return a.ls.Adjacent(a.LevelOf(cfg, u), a.LevelOf(cfg, v))
}

// NodeProtected reports whether all edges incident to v are protected.
func (a *AU) NodeProtected(g *graph.Graph, cfg sa.Config, v graph.NodeID) bool {
	for _, u := range g.Neighbors(v) {
		if !a.EdgeProtected(cfg, u, v) {
			return false
		}
	}
	return true
}

// NodeGood reports whether v is good: protected and sensing no faulty turn
// in its inclusive neighborhood.
func (a *AU) NodeGood(g *graph.Graph, cfg sa.Config, v graph.NodeID) bool {
	if a.IsFaultyNode(cfg, v) || !a.NodeProtected(g, cfg, v) {
		return false
	}
	for _, u := range g.Neighbors(v) {
		if a.IsFaultyNode(cfg, u) {
			return false
		}
	}
	return true
}

// NodeOutProtected reports whether v is out-protected: no sensed level lies
// strictly outwards of λ_v by more than one unit, i.e. Λ_v ∩ Ψ≫(λ_v) = ∅.
func (a *AU) NodeOutProtected(g *graph.Graph, cfg sa.Config, v graph.NodeID) bool {
	l := a.LevelOf(cfg, v)
	for _, u := range g.Neighbors(v) {
		if a.ls.StrictlyOutwards(l, a.LevelOf(cfg, u)) {
			return false
		}
	}
	return true
}

// GraphProtected reports whether every node (equivalently, every edge) is
// protected under cfg.
func (a *AU) GraphProtected(g *graph.Graph, cfg sa.Config) bool {
	for _, e := range g.Edges() {
		if !a.EdgeProtected(cfg, e[0], e[1]) {
			return false
		}
	}
	return true
}

// GraphGood reports whether every node is good under cfg. By Lem. 2.10 and
// 2.11, a good graph stays good forever and satisfies the AU task from that
// time on — so "good graph" is exactly the stabilization condition of AlgAU.
// Each node is tested from the instance's per-state tables, not through
// NodeGood's turn decoding, since fork futures and the stabilization loops
// scan whole 10⁵-node graphs with it.
func (a *AU) GraphGood(g *graph.Graph, cfg sa.Config) bool {
	for v := 0; v < g.N(); v++ {
		if !a.turns.goodIn(g, cfg, v) {
			return false
		}
	}
	return true
}

// GraphOutProtected reports whether every node is out-protected under cfg.
func (a *AU) GraphOutProtected(g *graph.Graph, cfg sa.Config) bool {
	for v := 0; v < g.N(); v++ {
		if !a.NodeOutProtected(g, cfg, v) {
			return false
		}
	}
	return true
}

// LOutProtected reports whether the graph is ℓ-out-protected: every node
// whose level belongs to Ψ≥(ℓ) is out-protected.
func (a *AU) LOutProtected(g *graph.Graph, cfg sa.Config, l Level) bool {
	for v := 0; v < g.N(); v++ {
		lv := a.LevelOf(cfg, v)
		if lv == l || a.ls.Outwards(l, lv) {
			if !a.NodeOutProtected(g, cfg, v) {
				return false
			}
		}
	}
	return true
}

// JustifiablyFaulty reports whether faulty node v is justifiably faulty:
// it is not protected, or it has a neighbor in the faulty turn one unit
// inwards of its level. Calling it for an able node returns false.
func (a *AU) JustifiablyFaulty(g *graph.Graph, cfg sa.Config, v graph.NodeID) bool {
	if !a.IsFaultyNode(cfg, v) {
		return false
	}
	if !a.NodeProtected(g, cfg, v) {
		return true
	}
	l := a.LevelOf(cfg, v)
	in, ok := a.ls.Psi(l, -1)
	if !ok || abs(in) < 2 {
		return false
	}
	for _, u := range g.Neighbors(v) {
		t := a.Turn(cfg[u])
		if t.Faulty && t.Level == in {
			return true
		}
	}
	return false
}

// GraphJustified reports whether no node is unjustifiably faulty.
func (a *AU) GraphJustified(g *graph.Graph, cfg sa.Config) bool {
	for v := 0; v < g.N(); v++ {
		if a.IsFaultyNode(cfg, v) && !a.JustifiablyFaulty(g, cfg, v) {
			return false
		}
	}
	return true
}

// Grounded reports whether node v is grounded: v lies on a path of length at
// most D consisting entirely of protected nodes with an endpoint at level ±1.
// Equivalently: v is protected and within distance D of a protected node at
// level ±1 inside the subgraph induced by protected nodes.
func (a *AU) Grounded(g *graph.Graph, cfg sa.Config, v graph.NodeID) bool {
	prot := make([]bool, g.N())
	for u := 0; u < g.N(); u++ {
		prot[u] = a.NodeProtected(g, cfg, u)
	}
	if !prot[v] {
		return false
	}
	// BFS from v inside the protected subgraph, depth at most D.
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	queue := []graph.NodeID{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if l := a.LevelOf(cfg, u); l == 1 || l == -1 {
			return true
		}
		if dist[u] == a.d {
			continue
		}
		for _, w := range g.Neighbors(u) {
			if prot[w] && dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return false
}

// ProtectedEdgeCount returns the number of protected edges (used by traces
// and progress reports).
func (a *AU) ProtectedEdgeCount(g *graph.Graph, cfg sa.Config) int {
	n := 0
	for _, e := range g.Edges() {
		if a.EdgeProtected(cfg, e[0], e[1]) {
			n++
		}
	}
	return n
}

// FaultyNodeCount returns the number of nodes residing in faulty turns.
func (a *AU) FaultyNodeCount(cfg sa.Config) int {
	n := 0
	for v := range cfg {
		if a.IsFaultyNode(cfg, v) {
			n++
		}
	}
	return n
}

// ClockSpread returns the minimal arc length on the clock cycle covering all
// able nodes' levels (0 = all nodes at one clock position), or -1 if any node
// is faulty. It is the convergence progress measure sampled by the trace
// recorder and the campaign step tracer.
func (a *AU) ClockSpread(cfg sa.Config) int {
	ls := a.Levels()
	order := ls.Order()
	occupied := make([]bool, order)
	for _, q := range cfg {
		t := a.Turn(q)
		if t.Faulty {
			return -1
		}
		occupied[ls.Index(t.Level)] = true
	}
	// The spread is order minus the largest empty gap.
	largestGap, cur := 0, 0
	for i := 0; i < 2*order; i++ { // doubled scan handles wraparound
		if occupied[i%order] {
			if cur > largestGap {
				largestGap = cur
			}
			cur = 0
			if i >= order {
				break
			}
		} else {
			cur++
			if cur >= order {
				largestGap = order
				break
			}
		}
	}
	spread := order - largestGap - 1
	if spread < 0 {
		spread = 0
	}
	return spread
}

// SafetyHolds checks the AU safety condition on an output configuration:
// every node is able and neighboring clock values differ by at most one in
// the cyclic group K. It returns false if any node is faulty.
func (a *AU) SafetyHolds(g *graph.Graph, cfg sa.Config) bool {
	for v := range cfg {
		if a.IsFaultyNode(cfg, v) {
			return false
		}
	}
	for _, e := range g.Edges() {
		if a.ls.Dist(a.LevelOf(cfg, e[0]), a.LevelOf(cfg, e[1])) > 1 {
			return false
		}
	}
	return true
}
