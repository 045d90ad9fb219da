// Package graph provides the undirected-graph substrate on which all stone
// age (SA) algorithms in this repository run.
//
// Graphs are finite, simple, connected and undirected, matching the model of
// Emek & Keren (PODC 2021). Nodes are identified by dense integer IDs in
// [0, N). The package offers constructors for the graph families used in the
// experiments (paths, cycles, stars, complete graphs, grids, trees, random
// connected graphs and bounded-diameter families) together with the metric
// helpers (BFS, distance, eccentricity, diameter) that the analysis of the
// paper is phrased in.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node of a Graph. IDs are dense integers in [0, N).
type NodeID = int

var (
	// ErrEmptyGraph is returned when a graph with zero nodes is requested.
	ErrEmptyGraph = errors.New("graph: graph must have at least one node")

	// ErrDisconnected is returned by validation helpers when the graph is
	// not connected. The SA model is defined over connected graphs only.
	ErrDisconnected = errors.New("graph: graph is not connected")

	// ErrSelfLoop is returned when an edge (v, v) is added.
	ErrSelfLoop = errors.New("graph: self loops are not allowed")
)

// OutOfRangeError reports a node identifier outside [0, N).
type OutOfRangeError struct {
	ID NodeID
	N  int
}

func (e *OutOfRangeError) Error() string {
	return fmt.Sprintf("graph: node %d out of range [0, %d)", e.ID, e.N)
}

// Graph is a finite simple undirected graph with nodes 0..N-1.
//
// The zero value is not usable; construct graphs with New or one of the
// family builders in this package. Graph values are immutable through this
// type's own API (Builder freezes adjacency lists), so they may be shared
// freely across goroutines; the one sanctioned mutation path is a Delta
// overlay, whose Apply re-compacts the CSR arrays in place at a point where
// no reader is iterating (engines apply churn at step boundaries, on the
// coordinator).
//
// Adjacency is stored in compressed sparse row (CSR) form: one flat
// neighbors slice plus per-node offsets. Iterating a node's neighborhood —
// the innermost loop of every simulation step — then walks contiguous
// memory, which matters at 10^5 nodes where per-node slices would scatter
// across the heap.
type Graph struct {
	n         int
	m         int      // number of edges
	offsets   []int    // offsets[v]..offsets[v+1] delimit v's neighbors; len n+1
	neighbors []NodeID // concatenated sorted adjacency lists; len 2m
}

// Builder incrementally assembles a Graph. It rejects self loops and
// out-of-range endpoints; repeated edges are allowed and count once. The
// edges are kept in a plain slice in the order they were added, and Build
// turns them into CSR with a counting sort, so assembling a graph costs
// O(n + m) plus the per-node sorts. The zero value is not usable; use
// NewBuilder.
type Builder struct {
	n     int
	edges [][2]NodeID // (u, v) with u < v, in insertion order, repeats kept
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) (*Builder, error) { return newBuilder(n, 0) }

// newBuilder is NewBuilder with room for m edges. The constructors of this
// package that know their edge count (or a bound on it) up front use it, so
// the edge list is allocated once instead of grown by append.
func newBuilder(n, m int) (*Builder, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	return &Builder{n: n, edges: make([][2]NodeID, 0, m)}, nil
}

// AddEdge records the undirected edge (u, v). Adding an existing edge is a
// no-op. Self loops and out-of-range endpoints are errors.
func (b *Builder) AddEdge(u, v NodeID) error {
	if u == v {
		return ErrSelfLoop
	}
	for _, x := range [2]NodeID{u, v} {
		if x < 0 || x >= b.n {
			return &OutOfRangeError{ID: x, N: b.n}
		}
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]NodeID{u, v})
	return nil
}

// Build freezes the builder into an immutable CSR Graph. It does not require
// connectivity; call Graph.Validate if the graph must be connected.
//
// A counting sort scatters both orientations of every recorded edge into
// their endpoints' lists; each list is then sorted and its repeats dropped
// in place, compacting the whole array toward the front. The result is the
// canonical CSR (sorted, duplicate-free lists) whatever the insertion order.
func (b *Builder) Build() *Graph {
	n := b.n
	offsets := make([]int, n+1)
	for _, e := range b.edges {
		offsets[e[0]+1]++
		offsets[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]NodeID, 2*len(b.edges))
	fill := make([]int, n)
	copy(fill, offsets[:n])
	for _, e := range b.edges {
		neighbors[fill[e[0]]] = e[1]
		fill[e[0]]++
		neighbors[fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	// Compact: w never passes the read position, so the writes land on
	// entries already read.
	w := 0
	for v := 0; v < n; v++ {
		l := neighbors[offsets[v]:offsets[v+1]]
		slices.Sort(l)
		offsets[v] = w
		prev := -1
		for _, u := range l {
			if u != prev {
				neighbors[w] = u
				w++
				prev = u
			}
		}
	}
	offsets[n] = w
	return &Graph{n: n, m: w / 2, offsets: offsets, neighbors: neighbors[:w]}
}

// New constructs a graph on n nodes from an explicit edge list.
func New(n int, edges [][2]NodeID) (*Graph, error) {
	b, err := newBuilder(n, len(edges))
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// FromCSR reconstructs a graph directly from its compressed-sparse-row
// adjacency (the inverse of CSR), validating it: offsets must be a
// non-decreasing [0..2m] ramp of length n+1, every adjacency list must be
// sorted, self-loop-free and in range, and the relation must be symmetric.
// It exists for checkpoint restore (internal/snapshot), where a saved graph
// — possibly mutated mid-run by Delta churn, so not reproducible from any
// family builder — must come back byte-identical. The slices are copied;
// the caller keeps ownership.
//
// Symmetry costs one linear pass: walking v in ascending order, each
// w ∈ N(v) must find v at the next unconsumed slot of w's sorted list.
func FromCSR(n int, offsets []int, neighbors []NodeID) (*Graph, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	if len(offsets) != n+1 || offsets[0] != 0 || offsets[n] != len(neighbors) || len(neighbors)%2 != 0 {
		return nil, fmt.Errorf("graph: malformed CSR (%d offsets, %d adjacency entries)", len(offsets), len(neighbors))
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: CSR offsets decrease at node %d", v)
		}
	}
	g := &Graph{
		n:         n,
		m:         len(neighbors) / 2,
		offsets:   make([]int, n+1),
		neighbors: make([]NodeID, len(neighbors)),
	}
	copy(g.offsets, offsets)
	copy(g.neighbors, neighbors)
	next := make([]int, n) // next[w]: the first slot of N(w) no earlier v matched
	copy(next, offsets[:n])
	for v := 0; v < n; v++ {
		prev := -1
		for _, w := range g.Neighbors(v) {
			if w < 0 || w >= n {
				return nil, &OutOfRangeError{ID: w, N: n}
			}
			if w == v {
				return nil, ErrSelfLoop
			}
			if w <= prev {
				return nil, fmt.Errorf("graph: adjacency of node %d unsorted or duplicated", v)
			}
			prev = w
			if next[w] == offsets[w+1] || neighbors[next[w]] != v {
				return nil, fmt.Errorf("graph: node %d lists %d, which does not list it", v, w)
			}
			next[w]++
		}
	}
	return g, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Neighbors returns the sorted adjacency list of v: a view into the graph's
// CSR storage. The returned slice is owned by the graph and must not be
// modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int { return g.offsets[v+1] - g.offsets[v] }

// CSR exposes the raw compressed-sparse-row adjacency: offsets has length
// N()+1 and neighbors[offsets[v]:offsets[v+1]] is the sorted neighbor list of
// v. The slices are the live storage, shared with the graph, and must be
// treated as read-only; after a Delta.Apply re-compaction they must be
// re-fetched (the backing arrays may have been replaced). Batch kernels
// (sa.BuildSignals) consume them directly — NodeID is an alias of int, so
// neighbors passes as []int without copying.
func (g *Graph) CSR() (offsets []int, neighbors []NodeID) {
	return g.offsets, g.neighbors
}

// HasEdge reports whether the edge (u, v) is present.
func (g *Graph) HasEdge(u, v NodeID) bool {
	l := g.Neighbors(u)
	i := sort.SearchInts(l, v)
	return i < len(l) && l[i] == v
}

// Edges returns all edges as (u, v) pairs with u < v, sorted
// lexicographically. The slice is freshly allocated.
func (g *Graph) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]NodeID{u, v})
			}
		}
	}
	return out
}

// Validate checks that the graph is connected (the SA model requires it).
func (g *Graph) Validate() error {
	if g.n == 0 {
		return ErrEmptyGraph
	}
	if !g.Connected() {
		return ErrDisconnected
	}
	return nil
}

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return false
	}
	seen := 0
	for _, d := range g.BFS(0) {
		if d >= 0 {
			seen++
		}
	}
	return seen == g.n
}

// BFS returns the BFS distance from src to every node; unreachable nodes get
// distance -1. The returned map is a dense slice indexed by NodeID.
func (g *Graph) BFS(src NodeID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum BFS distance from v to any node, or -1 if
// the graph is disconnected.
func (g *Graph) Eccentricity(v NodeID) int {
	ecc := 0
	for _, d := range g.BFS(v) {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the diameter of the graph (maximum eccentricity), or -1
// if the graph is disconnected. It runs a BFS from every node, which is fine
// for the laptop-scale instances used in the experiments.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		e := g.Eccentricity(v)
		if e == -1 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// DiameterBounds returns cheap lower and upper bounds on the diameter using
// a double BFS sweep (two BFS traversals total, O(n + m)): the lower bound is
// the eccentricity of the node found farthest from node 0, and the upper
// bound is twice the smaller of the two observed eccentricities (diam <=
// 2 ecc(v) for every v). On trees the lower bound is the exact diameter.
// Both are -1 if the graph is disconnected. Large-scale campaigns use this
// instead of the exact all-pairs Diameter, which is quadratic in n.
func (g *Graph) DiameterBounds() (lower, upper int) {
	ecc0 := 0
	far := 0
	for v, d := range g.BFS(0) {
		if d == -1 {
			return -1, -1
		}
		if d > ecc0 {
			ecc0 = d
			far = v
		}
	}
	eccFar := g.Eccentricity(far)
	lower = eccFar
	upper = 2 * ecc0
	if 2*eccFar < upper {
		upper = 2 * eccFar
	}
	if upper < lower {
		upper = lower
	}
	return lower, upper
}

// IsIndependentSet reports whether the given node set is independent.
func (g *Graph) IsIndependentSet(set []NodeID) bool {
	in := make(map[NodeID]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		for _, u := range g.Neighbors(v) {
			if in[u] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether the given node set is an MIS:
// independent, and every node outside the set has a neighbor inside it.
func (g *Graph) IsMaximalIndependentSet(set []NodeID) bool {
	if !g.IsIndependentSet(set) {
		return false
	}
	in := make(map[NodeID]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for v := 0; v < g.n; v++ {
		if in[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// String returns a short human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.n, g.m)
}
