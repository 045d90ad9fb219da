// Package mc is an explicit-state model checker for deterministic stone age
// algorithms on small graphs. It builds the full transition system whose
// states are configurations and whose labeled edges are the adversary's
// moves (every non-empty activation set), and decides two properties that
// simulation alone cannot:
//
//   - Closure: a predicate holds forever once it holds, under EVERY
//     adversarial move (Lemma 2.10 as a machine-checked fact, not a sampled
//     one).
//
//   - Fair divergence: whether some FAIR schedule (every node activated
//     infinitely often) can avoid the target set forever. For deterministic
//     algorithms this is exact: a fair avoiding execution exists iff some
//     strongly connected component of the transition system restricted to
//     non-target configurations contains, for every node v, an internal
//     edge whose activation set includes v. Absence of such a component
//     PROVES self-stabilization on the instance — over all schedules and
//     all initial configurations at once (Theorem 1.1 verified exhaustively
//     on small instances); presence exhibits a live-lock (Appendix A).
//
// The construction enumerates |Q|^n configurations and 2^n − 1 moves per
// configuration, so it is meant for n ≤ 4-ish nodes with AlgAU's D = 1
// (18 states) or the Appendix A algorithm (10 states), or for the subspace
// reachable from a given configuration.
package mc

import (
	"fmt"
	"math"
	"math/rand"

	"thinunison/internal/graph"
	"thinunison/internal/sa"
)

// System is an explicit transition system over configurations.
type System struct {
	g   *graph.Graph
	alg sa.Algorithm

	n         int
	numStates int
	// size is numStates^n (total configurations) when exhaustive; when
	// built from roots, configs are indexed densely via ids.
	ids     map[string]int
	key     []byte // intern's reused key buffer: two bytes per state
	configs []sa.Config
	// succ[c][m] is the successor configuration index of configs[c] under
	// activation-set mask m+1 (masks run 1..2^n-1).
	succ [][]int
}

// maxExhaustiveConfigs caps the exhaustive construction.
const maxExhaustiveConfigs = 1 << 22

// Build constructs the full transition system (all |Q|^n configurations).
func Build(g *graph.Graph, alg sa.Algorithm) (*System, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	total := math.Pow(float64(alg.NumStates()), float64(n))
	if total > maxExhaustiveConfigs {
		return nil, fmt.Errorf("mc: %v configurations exceed the exhaustive cap %d; use BuildReachable",
			total, maxExhaustiveConfigs)
	}
	s, err := newSystem(g, alg)
	if err != nil {
		return nil, err
	}
	// Enumerate all configurations as roots; reachability closure then
	// covers everything (successors are configurations too).
	cfg := make(sa.Config, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			s.intern(cfg)
			return
		}
		for q := 0; q < alg.NumStates(); q++ {
			cfg[i] = q
			rec(i + 1)
		}
	}
	rec(0)
	s.computeSuccessors()
	return s, nil
}

// BuildReachable constructs the sub-system reachable from the given root
// configurations (useful when |Q|^n is too large but the orbit is small).
// maxConfigs caps the exploration (0 means the exhaustive cap).
func BuildReachable(g *graph.Graph, alg sa.Algorithm, roots []sa.Config, maxConfigs int) (*System, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if maxConfigs <= 0 {
		maxConfigs = maxExhaustiveConfigs
	}
	s, err := newSystem(g, alg)
	if err != nil {
		return nil, err
	}
	queue := make([]int, 0, len(roots))
	for _, r := range roots {
		if len(r) != g.N() {
			return nil, fmt.Errorf("mc: root has %d states for %d nodes", len(r), g.N())
		}
		queue = append(queue, s.intern(r))
	}
	sig := sa.NewSignal(alg.NumStates())
	next := make(sa.Config, g.N())
	for len(queue) > 0 {
		ci := queue[0]
		queue = queue[1:]
		if s.succ[ci] != nil {
			continue
		}
		s.succ[ci] = make([]int, (1<<uint(g.N()))-1)
		for mask := 1; mask < 1<<uint(g.N()); mask++ {
			s.successor(s.configs[ci], mask, sig, next)
			before := len(s.configs)
			ni := s.intern(next)
			if ni == before { // newly discovered
				if len(s.configs) > maxConfigs {
					return nil, fmt.Errorf("mc: reachable set exceeds cap %d", maxConfigs)
				}
				queue = append(queue, ni)
			}
			s.succ[ci][mask-1] = ni
		}
	}
	// Any interned config without successors (shouldn't happen after BFS).
	for ci := range s.succ {
		if s.succ[ci] == nil {
			return nil, fmt.Errorf("mc: internal error: config %d unexpanded", ci)
		}
	}
	return s, nil
}

func newSystem(g *graph.Graph, alg sa.Algorithm) (*System, error) {
	if q := alg.NumStates(); q > 1<<16 {
		return nil, fmt.Errorf("mc: %d states do not fit the two-byte configuration key", q)
	}
	return &System{
		g:         g,
		alg:       alg,
		n:         g.N(),
		numStates: alg.NumStates(),
		ids:       make(map[string]int),
		key:       make([]byte, 0, 2*g.N()),
	}, nil
}

// intern registers a configuration and returns its index. Its key is the
// configuration at two bytes per state, written into a reused buffer; a
// lookup converts it without allocating, and only a new configuration's
// key is copied into the map.
func (s *System) intern(c sa.Config) int {
	s.key = s.key[:0]
	for _, q := range c {
		s.key = append(s.key, byte(q), byte(q>>8))
	}
	if id, ok := s.ids[string(s.key)]; ok {
		return id
	}
	id := len(s.configs)
	s.ids[string(s.key)] = id
	s.configs = append(s.configs, c.Clone())
	s.succ = append(s.succ, nil)
	return id
}

// successor computes the successor of cfg under the activation mask into out.
func (s *System) successor(cfg sa.Config, mask int, sig sa.Signal, out sa.Config) {
	copy(out, cfg)
	for v := 0; v < s.n; v++ {
		if mask&(1<<uint(v)) == 0 {
			continue
		}
		sig.Reset()
		sig.Set(cfg[v])
		for _, u := range s.g.Neighbors(v) {
			sig.Set(cfg[u])
		}
		// The checker targets deterministic algorithms; a fixed-seed rng
		// is supplied for interface compatibility.
		out[v] = s.alg.Transition(cfg[v], sig, deterministicRng)
	}
}

// deterministicRng is only consulted by randomized algorithms, which the
// checker does not support; AlgAU and the Appendix A algorithm ignore it.
var deterministicRng = rand.New(rand.NewSource(0))

func (s *System) computeSuccessors() {
	sig := sa.NewSignal(s.numStates)
	next := make(sa.Config, s.n)
	for ci := range s.configs {
		if s.succ[ci] != nil {
			continue
		}
		s.succ[ci] = make([]int, (1<<uint(s.n))-1)
		for mask := 1; mask < 1<<uint(s.n); mask++ {
			s.successor(s.configs[ci], mask, sig, next)
			s.succ[ci][mask-1] = s.intern(next)
			// Interning may append configs; the outer loop picks them up
			// because it ranges by index over the growing slice.
		}
	}
	// Expand any configurations discovered during the loop.
	for ci := 0; ci < len(s.configs); ci++ {
		if s.succ[ci] == nil {
			s.succ[ci] = make([]int, (1<<uint(s.n))-1)
			for mask := 1; mask < 1<<uint(s.n); mask++ {
				s.successor(s.configs[ci], mask, sig, next)
				s.succ[ci][mask-1] = s.intern(next)
			}
		}
	}
}

// Size returns the number of configurations in the system.
func (s *System) Size() int { return len(s.configs) }

// Config returns configuration i.
func (s *System) Config(i int) sa.Config { return s.configs[i].Clone() }

// CheckClosure verifies that pred is closed under every adversarial move:
// for every configuration satisfying pred, all successors satisfy pred. It
// returns a violating (config, mask) pair if any.
func (s *System) CheckClosure(pred func(sa.Config) bool) (ok bool, fromCfg sa.Config, mask int) {
	for ci, cfg := range s.configs {
		if !pred(cfg) {
			continue
		}
		for m, ni := range s.succ[ci] {
			if !pred(s.configs[ni]) {
				return false, cfg.Clone(), m + 1
			}
		}
	}
	return true, nil, 0
}

// FairDivergence decides whether a fair schedule can avoid target forever.
// It returns a witness SCC (as configuration indices) if one exists. For a
// deterministic algorithm this is exact (see the package comment).
func (s *System) FairDivergence(target func(sa.Config) bool) (witness []int, exists bool) {
	// Restrict to non-target configurations.
	allowed := make([]bool, len(s.configs))
	for ci, cfg := range s.configs {
		allowed[ci] = !target(cfg)
	}
	comp, compCount := s.sccs(allowed)

	// For each SCC, collect which nodes are activated on internal edges and
	// whether the SCC has any internal edge at all.
	activated := make([]uint64, compCount) // bitmask over nodes (n <= 6 here)
	hasEdge := make([]bool, compCount)
	for ci := range s.configs {
		if !allowed[ci] {
			continue
		}
		for m, ni := range s.succ[ci] {
			if !allowed[ni] || comp[ni] != comp[ci] {
				continue
			}
			// Self-loops count: staying put under a move is an edge.
			hasEdge[comp[ci]] = true
			activated[comp[ci]] |= uint64(m + 1)
		}
	}
	full := uint64(1<<uint(s.n)) - 1
	for c := 0; c < compCount; c++ {
		if hasEdge[c] && activated[c] == full {
			var w []int
			for ci := range s.configs {
				if allowed[ci] && comp[ci] == c {
					w = append(w, ci)
				}
			}
			return w, true
		}
	}
	return nil, false
}

// sccs runs an iterative Tarjan over the sub-graph induced by allowed and
// returns the component index of each configuration (-1 for disallowed) and
// the component count.
func (s *System) sccs(allowed []bool) ([]int, int) {
	n := len(s.configs)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	counter := 0
	compCount := 0

	type frame struct {
		v    int
		succ int
	}
	for root := 0; root < n; root++ {
		if !allowed[root] || index[root] != -1 {
			continue
		}
		frames := []frame{{v: root}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			for f.succ < len(s.succ[v]) {
				w := s.succ[v][f.succ]
				f.succ++
				if !allowed[w] {
					continue
				}
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// Pop v.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = compCount
					if w == v {
						break
					}
				}
				compCount++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, compCount
}
