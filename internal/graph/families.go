package graph

import (
	"fmt"
	"math/rand"
)

// Path returns the path graph P_n (diameter n-1).
func Path(n int) (*Graph, error) {
	b, err := newBuilder(n, n-1)
	if err != nil {
		return nil, err
	}
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Cycle returns the cycle graph C_n for n >= 3 (diameter floor(n/2)).
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs n >= 3, got %d", n)
	}
	b, err := newBuilder(n, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := b.AddEdge(i, (i+1)%n); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Star returns the star graph on n nodes with node 0 at the center
// (diameter 2 for n >= 3).
func Star(n int) (*Graph, error) {
	b, err := newBuilder(n, n-1)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if err := b.AddEdge(0, i); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Complete returns the complete graph K_n (diameter 1 for n >= 2). Complete
// graphs are the paper's motivating special case: bounded-diameter graphs are
// "a natural extension of complete graphs".
func Complete(n int) (*Graph, error) {
	b, err := newBuilder(n, n*(n-1)/2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := b.AddEdge(i, j); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// Grid returns the rows x cols grid graph (diameter rows+cols-2).
func Grid(rows, cols int) (*Graph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, ErrEmptyGraph
	}
	b, err := newBuilder(rows*cols, rows*(cols-1)+cols*(rows-1))
	if err != nil {
		return nil, err
	}
	id := func(r, c int) NodeID { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := b.AddEdge(id(r, c), id(r, c+1)); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := b.AddEdge(id(r, c), id(r+1, c)); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build(), nil
}

// CompleteBinaryTree returns a complete binary tree on n nodes where node i
// has children 2i+1 and 2i+2.
func CompleteBinaryTree(n int) (*Graph, error) {
	b, err := newBuilder(n, n-1)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if err := b.AddEdge(i, (i-1)/2); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// RandomConnected returns a connected Erdős–Rényi-style graph: a random
// spanning tree plus each remaining pair independently with probability p.
func RandomConnected(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: probability %v out of [0,1]", p)
	}
	b, err := NewBuilder(n)
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		if err := b.AddEdge(perm[i], perm[rng.Intn(i)]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				if err := b.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build(), nil
}

// BoundedDiameter returns a connected graph on n nodes whose diameter is
// exactly d (requires 1 <= d < n). The construction is a path 0-1-...-d of
// length d (realizing the diameter) with each of the remaining n-d-1 nodes
// attached to the path's midpoint d/2, plus random chords among those
// cluster nodes, which never increase the diameter. The midpoint is then a
// hub of degree n-d+1. This is the "almost complete but for some broken
// links" family the paper motivates.
func BoundedDiameter(n, d int, rng *rand.Rand) (*Graph, error) {
	switch {
	case n <= 0:
		return nil, ErrEmptyGraph
	case d < 1 && n > 1:
		return nil, fmt.Errorf("graph: diameter bound %d too small for n=%d", d, n)
	case d >= n:
		return nil, fmt.Errorf("graph: diameter %d impossible with n=%d nodes", d, n)
	}
	if n == 1 {
		return New(1, nil)
	}
	if d == 1 {
		return Complete(n) // diameter 1 forces the complete graph
	}
	// d spine edges, one hub edge per cluster node and at most one chord
	// per cluster node.
	b, err := newBuilder(n, d+2*(n-d-1))
	if err != nil {
		return nil, err
	}
	// Spine path 0-1-...-d realizes the diameter.
	for i := 0; i < d; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			return nil, err
		}
	}
	// Remaining nodes cluster around the spine's midpoint so they cannot
	// stretch the diameter: each attaches to the mid node and, with
	// probability 1/2, to a random earlier cluster node.
	mid := d / 2
	for v := d + 1; v < n; v++ {
		if err := b.AddEdge(v, mid); err != nil {
			return nil, err
		}
		// Random extra chord among cluster nodes (keeps distances <= d).
		if v > d+1 && rng.Intn(2) == 0 {
			if err := b.AddEdge(v, d+1+rng.Intn(v-d-1)); err != nil {
				return nil, err
			}
		}
	}
	g := b.Build()
	// Certify diameter == d with two BFS traversals instead of the quadratic
	// all-pairs Diameter: ecc(0) == d gives the lower bound (0 and the far
	// spine end realize it), and every pair is joined through the spine
	// midpoint, so the sum of the two largest BFS-from-mid distances is an
	// upper bound. Both equal d for this construction, and the O(n + m) check
	// keeps 10^5-node campaign instances affordable.
	if ecc := g.Eccentricity(0); ecc != d {
		return nil, fmt.Errorf("graph: bounded-diameter construction has ecc(0)=%d, want %d", ecc, d)
	}
	top1, top2 := 0, 0
	for _, dist := range g.BFS(mid) {
		if dist > top1 {
			top1, top2 = dist, top1
		} else if dist > top2 {
			top2 = dist
		}
	}
	if top1+top2 > d {
		return nil, fmt.Errorf("graph: bounded-diameter construction certifies only diameter <= %d, want %d", top1+top2, d)
	}
	return g, nil
}

// Family identifies a named graph family used by the experiment sweeps.
type Family string

// Families used throughout the experiments.
const (
	FamilyPath     Family = "path"
	FamilyCycle    Family = "cycle"
	FamilyStar     Family = "star"
	FamilyComplete Family = "complete"
	FamilyGrid     Family = "grid"
	FamilyTree     Family = "tree"
	FamilyRandom   Family = "random"
	FamilyBoundedD Family = "boundedD"
)

// Families returns every named family, in a fixed order.
func Families() []Family {
	return []Family{
		FamilyPath, FamilyCycle, FamilyStar, FamilyComplete,
		FamilyGrid, FamilyTree, FamilyRandom, FamilyBoundedD,
	}
}

// ParseFamily resolves a family name as used in campaign specs and CLI flags.
func ParseFamily(name string) (Family, error) {
	for _, f := range Families() {
		if string(f) == name {
			return f, nil
		}
	}
	return "", fmt.Errorf("graph: unknown family %q", name)
}

// gridSide returns the side length FromFamily uses for FamilyGrid.
func gridSide(n int) int {
	side := 1
	for side*side < n {
		side++
	}
	return side
}

// KnownDiameter returns the analytically known diameter of an n-node member
// of the family (d is the FamilyBoundedD parameter), or ok=false for families
// whose diameter depends on random choices (FamilyRandom) and must be
// measured. Campaigns use it to parameterize AlgAU on 10^5-node instances
// without an exact all-pairs diameter computation.
func KnownDiameter(f Family, n, d int) (int, bool) {
	if n == 1 {
		return 0, true
	}
	switch f {
	case FamilyPath:
		return n - 1, true
	case FamilyCycle:
		return n / 2, true
	case FamilyStar:
		if n == 2 {
			return 1, true
		}
		return 2, true
	case FamilyComplete:
		return 1, true
	case FamilyGrid:
		return 2 * (gridSide(n) - 1), true
	case FamilyTree:
		// Complete binary tree (children of i are 2i+1, 2i+2, bottom level
		// filled left to right): the diameter joins the deepest leaves of the
		// root's two subtrees, and within any subtree the leftmost descent is
		// a longest root-to-leaf path.
		if n <= 2 {
			return n - 1, true
		}
		return (1 + leftmostDepth(1, n)) + (1 + leftmostDepth(2, n)), true
	case FamilyBoundedD:
		if d >= n {
			return n - 1, false
		}
		return d, true
	default:
		return 0, false
	}
}

// leftmostDepth returns the depth (edges below r) of the leftmost descent
// from node r in the complete binary tree on n nodes.
func leftmostDepth(r, n int) int {
	depth := 0
	for v := 2*r + 1; v < n; v = 2*v + 1 {
		depth++
	}
	return depth
}

// FromFamily builds an n-node member of the family. The rng is only used by
// randomized families; d is only used by FamilyBoundedD.
func FromFamily(f Family, n, d int, rng *rand.Rand) (*Graph, error) {
	switch f {
	case FamilyPath:
		return Path(n)
	case FamilyCycle:
		return Cycle(n)
	case FamilyStar:
		return Star(n)
	case FamilyComplete:
		return Complete(n)
	case FamilyGrid:
		side := gridSide(n)
		return Grid(side, side)
	case FamilyTree:
		return CompleteBinaryTree(n)
	case FamilyRandom:
		return RandomConnected(n, 0.15, rng)
	case FamilyBoundedD:
		return BoundedDiameter(n, d, rng)
	default:
		return nil, fmt.Errorf("graph: unknown family %q", f)
	}
}
