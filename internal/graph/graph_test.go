package graph_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"thinunison/internal/graph"
)

func TestBuilderValidation(t *testing.T) {
	if _, err := graph.NewBuilder(0); !errors.Is(err, graph.ErrEmptyGraph) {
		t.Errorf("NewBuilder(0) = %v, want ErrEmptyGraph", err)
	}
	b, err := graph.NewBuilder(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 1); !errors.Is(err, graph.ErrSelfLoop) {
		t.Errorf("self loop = %v, want ErrSelfLoop", err)
	}
	var oor *graph.OutOfRangeError
	if err := b.AddEdge(0, 3); !errors.As(err, &oor) {
		t.Errorf("out of range = %v, want OutOfRangeError", err)
	}
	if err := b.AddEdge(-1, 0); !errors.As(err, &oor) {
		t.Errorf("negative node = %v, want OutOfRangeError", err)
	}
}

func TestEdgeDeduplication(t *testing.T) {
	g, err := graph.New(3, [][2]int{{0, 1}, {1, 0}, {0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Errorf("M() = %d, want 2 (edges deduplicated)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge must be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
	if g.Degree(1) != 2 || g.Degree(2) != 1 {
		t.Errorf("degrees: %d %d", g.Degree(1), g.Degree(2))
	}
}

func TestValidateConnectivity(t *testing.T) {
	g, err := graph.New(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("Validate() = %v, want ErrDisconnected", err)
	}
	if g.Diameter() != -1 {
		t.Errorf("disconnected diameter = %d, want -1", g.Diameter())
	}
	if g.BFS(0)[3] != -1 {
		t.Error("cross-component distance should be -1")
	}
}

func TestFamilyDiameters(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
		wantN int
		wantD int
	}{
		{"path5", func() (*graph.Graph, error) { return graph.Path(5) }, 5, 4},
		{"cycle6", func() (*graph.Graph, error) { return graph.Cycle(6) }, 6, 3},
		{"cycle7", func() (*graph.Graph, error) { return graph.Cycle(7) }, 7, 3},
		{"star5", func() (*graph.Graph, error) { return graph.Star(5) }, 5, 2},
		{"k4", func() (*graph.Graph, error) { return graph.Complete(4) }, 4, 1},
		{"grid3x4", func() (*graph.Graph, error) { return graph.Grid(3, 4) }, 12, 5},
		{"tree7", func() (*graph.Graph, error) { return graph.CompleteBinaryTree(7) }, 7, 4},
		{"hyper3", func() (*graph.Graph, error) { return hypercube(3) }, 8, 3},
		{"single", func() (*graph.Graph, error) { return graph.Path(1) }, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != c.wantN {
				t.Errorf("N = %d, want %d", g.N(), c.wantN)
			}
			if got := g.Diameter(); got != c.wantD {
				t.Errorf("Diameter = %d, want %d", got, c.wantD)
			}
			if err := g.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
		})
	}
	if _, err := graph.Cycle(2); err == nil {
		t.Error("Cycle(2) should fail")
	}
}

// hypercube returns the dim-dimensional hypercube (n = 2^dim, diameter dim).
func hypercube(dim int) (*graph.Graph, error) {
	n := 1 << uint(dim)
	b, err := graph.NewBuilder(n)
	if err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			if u := v ^ (1 << uint(bit)); v < u {
				if err := b.AddEdge(v, u); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build(), nil
}

// randomTree returns a random labeled tree on n nodes: each node i >= 1
// attaches to a uniformly random earlier node.
func randomTree(n int, rng *rand.Rand) (*graph.Graph, error) {
	b, err := graph.NewBuilder(n)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if err := b.AddEdge(i, rng.Intn(i)); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

func TestRandomFamiliesConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		g, err := graph.RandomConnected(2+rng.Intn(30), rng.Float64()*0.3, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Fatal("RandomConnected produced a disconnected graph")
		}
		tr, err := randomTree(2+rng.Intn(30), rng)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Connected() || tr.M() != tr.N()-1 {
			t.Fatalf("randomTree not a tree: n=%d m=%d", tr.N(), tr.M())
		}
	}
}

func TestBoundedDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range []struct{ n, d int }{{8, 2}, {12, 3}, {20, 4}, {30, 5}, {10, 1}} {
		g, err := graph.BoundedDiameter(c.n, c.d, rng)
		if err != nil {
			t.Fatalf("BoundedDiameter(%d,%d): %v", c.n, c.d, err)
		}
		if got := g.Diameter(); got != c.d {
			t.Errorf("BoundedDiameter(%d,%d) has diameter %d", c.n, c.d, got)
		}
	}
	if _, err := graph.BoundedDiameter(5, 5, rng); err == nil {
		t.Error("d >= n should fail")
	}
	if _, err := graph.BoundedDiameter(5, 0, rng); err == nil {
		t.Error("d = 0 with n > 1 should fail")
	}
}

// shortestPath returns one shortest path from u to v (inclusive of both
// endpoints), or nil if v is unreachable from u.
func shortestPath(g *graph.Graph, u, v int) []int {
	dist := g.BFS(u)
	if dist[v] == -1 {
		return nil
	}
	path := make([]int, dist[v]+1)
	path[dist[v]] = v
	cur := v
	for d := dist[v] - 1; d >= 0; d-- {
		for _, w := range g.Neighbors(cur) {
			if dist[w] == d {
				cur = w
				break
			}
		}
		path[d] = cur
	}
	return path
}

// ball returns all nodes within hop distance at most r from v, sorted.
func ball(g *graph.Graph, v, r int) []int {
	var out []int
	for u, d := range g.BFS(v) {
		if d >= 0 && d <= r {
			out = append(out, u)
		}
	}
	return out
}

func TestShortestPathAndBall(t *testing.T) {
	g, err := graph.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := shortestPath(g, 0, 8)
	if d := g.BFS(0)[8]; len(p) != d+1 {
		t.Fatalf("path length %d, want %d", len(p)-1, d)
	}
	if p[0] != 0 || p[len(p)-1] != 8 {
		t.Errorf("path endpoints %d..%d", p[0], p[len(p)-1])
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Errorf("path step %d-%d is not an edge", p[i], p[i+1])
		}
	}
	if got := ball(g, 4, 1); len(got) != 5 { // center of the grid
		t.Errorf("ball(center,1) = %v, want 5 nodes", got)
	}
	if got := ball(g, 0, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("ball(0,0) = %v", got)
	}
}

func TestIndependentSetPredicates(t *testing.T) {
	g, err := graph.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		set   []int
		indep bool
	}{
		{[]int{0, 2, 4}, true},
		{[]int{0, 3}, true},
		{[]int{1, 4}, true},
		{[]int{0, 1}, false}, // adjacent
		{[]int{}, true},
	}
	for i, c := range cases {
		indep := g.IsIndependentSet(c.set)
		if indep != c.indep {
			t.Errorf("case %d: IsIndependentSet(%v) = %v, want %v", i, c.set, indep, c.indep)
		}
	}
	if !g.IsMaximalIndependentSet([]int{0, 2, 4}) {
		t.Error("{0,2,4} is an MIS of P5")
	}
	if g.IsMaximalIndependentSet([]int{0}) {
		t.Error("{0} is not maximal in P5")
	}
	if g.IsMaximalIndependentSet([]int{0, 1}) {
		t.Error("{0,1} is not independent")
	}
}

// TestBFSProperties is a property test: BFS distances satisfy the triangle
// inequality along edges and are realized by shortest paths.
func TestBFSProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%20
		g, err := graph.RandomConnected(n, 0.2, rng)
		if err != nil {
			return false
		}
		dist := g.BFS(0)
		for _, e := range g.Edges() {
			d := dist[e[0]] - dist[e[1]]
			if d > 1 || d < -1 {
				return false
			}
		}
		for v := 0; v < n; v++ {
			p := shortestPath(g, 0, v)
			if len(p)-1 != dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEdgesSortedAndOwned(t *testing.T) {
	g, err := graph.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	if len(edges) != 5 {
		t.Fatalf("got %d edges", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Errorf("edges not sorted: %v before %v", a, b)
		}
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not normalized u < v", e)
		}
	}
	if g.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestFromFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range []graph.Family{
		graph.FamilyPath, graph.FamilyCycle, graph.FamilyStar, graph.FamilyComplete,
		graph.FamilyGrid, graph.FamilyTree, graph.FamilyRandom,
	} {
		g, err := graph.FromFamily(f, 9, 3, rng)
		if err != nil {
			t.Errorf("FromFamily(%s): %v", f, err)
			continue
		}
		if !g.Connected() {
			t.Errorf("FromFamily(%s) disconnected", f)
		}
	}
	g, err := graph.FromFamily(graph.FamilyBoundedD, 9, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.Diameter() != 3 {
		t.Errorf("boundedD diameter = %d", g.Diameter())
	}
	if _, err := graph.FromFamily("nope", 5, 1, rng); err == nil {
		t.Error("unknown family should fail")
	}
}

// csrBytes packs a graph's CSR into the fuzz encoding of FuzzFromCSR, one
// signed byte per entry.
func csrBytes(g *graph.Graph) (offsets, neighbors []byte) {
	off, nb := g.CSR()
	for _, x := range off {
		offsets = append(offsets, byte(int8(x)))
	}
	for _, x := range nb {
		neighbors = append(neighbors, byte(int8(x)))
	}
	return offsets, neighbors
}

// FuzzFromCSR feeds arbitrary (n, offsets, neighbors) triples, one signed
// byte per entry, to FromCSR. Whatever it accepts must be a graph: every
// listed pair (v, w) has its reverse edge, and CSR returns the input.
func FuzzFromCSR(f *testing.F) {
	cycle, err := graph.Cycle(12)
	if err != nil {
		f.Fatal(err)
	}
	off, nb := csrBytes(cycle)
	f.Add(12, off, nb)
	// The one-way case: N(0) = {1, 11} rewritten to {1, 2}.
	oneWay := append([]byte(nil), nb...)
	oneWay[1] = 2
	f.Add(12, off, oneWay)
	// Offsets that rise past the adjacency array before they fall back.
	f.Add(2, []byte{0, 4, 2}, []byte{1, 0})
	f.Fuzz(func(t *testing.T, n int, offBytes, nbBytes []byte) {
		ints := func(b []byte) []int {
			out := make([]int, len(b))
			for i, x := range b {
				out[i] = int(int8(x))
			}
			return out
		}
		offsets, neighbors := ints(offBytes), ints(nbBytes)
		g, err := graph.FromCSR(n, offsets, neighbors)
		if err != nil {
			return
		}
		for v := 0; v < g.N(); v++ {
			for _, w := range g.Neighbors(v) {
				if !g.HasEdge(w, v) {
					t.Fatalf("accepted a one-way edge: %d lists %d, which does not list it", v, w)
				}
			}
		}
		gotOff, gotNb := g.CSR()
		if !slices.Equal(gotOff, offsets) || !slices.Equal(gotNb, neighbors) || 2*g.M() != len(neighbors) {
			t.Fatalf("CSR round trip changed the input: offsets %v → %v, neighbors %v → %v", offsets, gotOff, neighbors, gotNb)
		}
	})
}

// FuzzBuild feeds n and a list of endpoint pairs, one signed byte per
// endpoint, to a Builder: repeats, both orientations, self loops and
// out-of-range nodes included. AddEdge must reject exactly the self loops
// and the out-of-range pairs, and Build must give, for the pairs AddEdge
// accepted, the sorted duplicate-free adjacency of an adjacency-matrix
// reference, M() the number of distinct edges, and a CSR that FromCSR
// accepts.
func FuzzBuild(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 0, 0, 1, 1, 2}) // TestEdgeDeduplication's list
	// Both sides of a word boundary, a self loop, an out-of-range and a
	// negative endpoint, and N(0) arriving as 5, 3, 1.
	f.Add(uint8(70), []byte{63, 64, 2, 2, 64, 63, 69, 70, 0xff, 1, 5, 0, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, n uint8, pairs []byte) {
		b, err := graph.NewBuilder(int(n))
		if n == 0 {
			if !errors.Is(err, graph.ErrEmptyGraph) {
				t.Fatalf("NewBuilder(0) = %v, want ErrEmptyGraph", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		size := int(n)
		adj := make([][]bool, size)
		for v := range adj {
			adj[v] = make([]bool, size)
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			u, v := int(int8(pairs[i])), int(int8(pairs[i+1]))
			valid := u != v && u >= 0 && u < size && v >= 0 && v < size
			if err := b.AddEdge(u, v); (err == nil) != valid {
				t.Fatalf("AddEdge(%d, %d) on %d nodes = %v", u, v, size, err)
			}
			if valid {
				adj[u][v], adj[v][u] = true, true
			}
		}
		g := b.Build()
		degSum := 0
		for v := 0; v < size; v++ {
			var want []int
			for w, ok := range adj[v] {
				if ok {
					want = append(want, w)
				}
			}
			degSum += len(want)
			if got := g.Neighbors(v); !slices.Equal(got, want) {
				t.Fatalf("N(%d) = %v, want %v", v, got, want)
			}
		}
		if g.N() != size || 2*g.M() != degSum {
			t.Fatalf("N, M = %d, %d, want %d, %d", g.N(), g.M(), size, degSum/2)
		}
		off, nb := g.CSR()
		if _, err := graph.FromCSR(size, off, nb); err != nil {
			t.Fatalf("FromCSR rejects the built graph: %v", err)
		}
	})
}
