package graph

import (
	"fmt"
	"sort"
)

// EdgeChange is one committed topology mutation: the undirected edge (U, V)
// with U < V was added (Added) or removed. Delta.Apply reports the changes it
// committed so engines can repair incremental state (frontier dirty bits,
// GoodMonitor violation counters) edge by edge instead of rebuilding it from
// scratch.
type EdgeChange struct {
	U, V  NodeID
	Added bool
}

// ErrCrashed is returned when an edge operation names a crashed endpoint.
var ErrCrashed = fmt.Errorf("graph: endpoint is crashed")

// Delta is a mutation overlay over a Graph: a batch of edge insertions and
// deletions (plus the node crash/revive macros built on them) staged against
// the base topology and committed in one amortized CSR re-compaction.
//
// Staged operations are overrides of the base adjacency, so they cancel
// exactly: deleting a staged insertion (or re-inserting a staged deletion)
// returns the edge to its base state at zero cost. The merged view —
// base graph plus staged overrides — is queryable at any time (HasEdge,
// Degree, Connected, DiameterBounds), which is what lets churn drivers
// test an operation's admissibility (connectivity, diameter drift) before
// committing anything.
//
// Apply commits the staged batch by rebuilding the base graph's CSR arrays
// IN PLACE: every holder of the *Graph — engines, monitors —
// observes the new topology through the pointer it already has, with no
// re-plumbing. One Apply costs O(n + m + ops); batching b operations per
// Apply amortizes the compaction to O((n + m)/b) per op. Apply must only run
// while no reader is iterating the graph (engines call it at step
// boundaries, on the coordinator).
//
// The node set is fixed: a "crashed" node stays in [0, N) but loses all its
// incident edges (its saved adjacency is restored by Revive). Deltas are not
// safe for concurrent use.
type Delta struct {
	g *Graph

	// over[u][v] overrides the presence of edge (u, v) in the merged view:
	// true = present (staged insertion), false = absent (staged deletion).
	// Entries exist only where the merged view differs from the base graph,
	// and always symmetrically for both endpoints.
	over map[NodeID]map[NodeID]bool

	crashed map[NodeID]bool
	saved   map[NodeID][]NodeID // adjacency to restore on Revive

	applied int // committed ops across all Applies
}

// NewDelta returns an empty overlay over g. The delta retains g and mutates
// it on Apply.
func NewDelta(g *Graph) *Delta {
	return &Delta{
		g:       g,
		over:    make(map[NodeID]map[NodeID]bool),
		crashed: make(map[NodeID]bool),
		saved:   make(map[NodeID][]NodeID),
	}
}

// Graph returns the base graph the delta mutates.
func (d *Delta) Graph() *Graph { return d.g }

func (d *Delta) check(u, v NodeID) error {
	if u == v {
		return ErrSelfLoop
	}
	for _, x := range [2]NodeID{u, v} {
		if x < 0 || x >= d.g.n {
			return &OutOfRangeError{ID: x, N: d.g.n}
		}
	}
	return nil
}

// setOver stages edge (u, v) to state present, cancelling the override when
// it matches the base graph.
func (d *Delta) setOver(u, v NodeID, present bool) {
	if d.g.HasEdge(u, v) == present {
		d.clearOver(u, v)
		return
	}
	for _, p := range [2][2]NodeID{{u, v}, {v, u}} {
		m := d.over[p[0]]
		if m == nil {
			m = make(map[NodeID]bool)
			d.over[p[0]] = m
		}
		m[p[1]] = present
	}
}

func (d *Delta) clearOver(u, v NodeID) {
	for _, p := range [2][2]NodeID{{u, v}, {v, u}} {
		if m := d.over[p[0]]; m != nil {
			delete(m, p[1])
			if len(m) == 0 {
				delete(d.over, p[0])
			}
		}
	}
}

// HasEdge reports whether the merged view (base graph plus staged overrides)
// contains the edge (u, v).
func (d *Delta) HasEdge(u, v NodeID) bool {
	if m := d.over[u]; m != nil {
		if present, ok := m[v]; ok {
			return present
		}
	}
	return d.g.HasEdge(u, v)
}

// InsertEdge stages the insertion of edge (u, v). Inserting an edge already
// present in the merged view is a no-op; inserting a staged deletion cancels
// it. Crashed endpoints are rejected (revive the node first).
func (d *Delta) InsertEdge(u, v NodeID) error {
	if err := d.check(u, v); err != nil {
		return err
	}
	if d.crashed[u] || d.crashed[v] {
		return fmt.Errorf("graph: insert (%d, %d): %w", u, v, ErrCrashed)
	}
	if !d.HasEdge(u, v) {
		d.setOver(u, v, true)
	}
	return nil
}

// DeleteEdge stages the deletion of edge (u, v). Deleting an edge absent
// from the merged view is a no-op; deleting a staged insertion cancels it.
func (d *Delta) DeleteEdge(u, v NodeID) error {
	if err := d.check(u, v); err != nil {
		return err
	}
	if d.HasEdge(u, v) {
		d.setOver(u, v, false)
	}
	return nil
}

// Crashed reports whether node v is currently crashed.
func (d *Delta) Crashed(v NodeID) bool { return d.crashed[v] }

// Crash stages the removal of every edge incident to v in the merged view,
// saving them for Revive. Crashing a crashed node is a no-op.
func (d *Delta) Crash(v NodeID) error {
	if v < 0 || v >= d.g.n {
		return &OutOfRangeError{ID: v, N: d.g.n}
	}
	if d.crashed[v] {
		return nil
	}
	nbrs := d.appendMergedNeighbors(nil, v)
	for _, u := range nbrs {
		d.setOver(v, u, false)
	}
	d.crashed[v] = true
	d.saved[v] = nbrs
	return nil
}

// Revive restores the saved adjacency of a crashed node. Edges to endpoints
// that are themselves still crashed are handed over to their saved lists, so
// they resurface when (and only when) the other endpoint revives too.
// Reviving an alive node is a no-op.
func (d *Delta) Revive(v NodeID) error {
	if v < 0 || v >= d.g.n {
		return &OutOfRangeError{ID: v, N: d.g.n}
	}
	if !d.crashed[v] {
		return nil
	}
	delete(d.crashed, v)
	for _, u := range d.saved[v] {
		if d.crashed[u] {
			d.saved[u] = append(d.saved[u], v)
			continue
		}
		d.setOver(v, u, true)
	}
	delete(d.saved, v)
	return nil
}

// appendMergedNeighbors appends the merged-view neighbors of v to buf, in no
// particular order.
func (d *Delta) appendMergedNeighbors(buf []NodeID, v NodeID) []NodeID {
	m := d.over[v]
	for _, u := range d.g.Neighbors(v) {
		if present, ok := m[u]; ok && !present {
			continue
		}
		buf = append(buf, u)
	}
	for u, present := range m {
		if present {
			buf = append(buf, u)
		}
	}
	return buf
}

// Degree returns the merged-view degree of v.
func (d *Delta) Degree(v NodeID) int {
	deg := d.g.Degree(v)
	for _, present := range d.over[v] {
		if present {
			deg++
		} else {
			deg--
		}
	}
	return deg
}

// Pending returns the number of staged edge operations (changes relative to
// the base graph).
func (d *Delta) Pending() int {
	pending := 0
	for _, m := range d.over {
		pending += len(m)
	}
	return pending / 2 // overrides are stored symmetrically
}

// bfs runs a BFS over the merged view from src, skipping crashed nodes, and
// returns the distance slice (-1 for unreached) plus the farthest reached
// node and its distance. The far node is the smallest-ID node at maximum
// distance: appendMergedNeighbors ranges over the override maps, so the
// visit order is not deterministic, and the double-sweep diameter bound —
// which feeds the churn admissibility guards and hence the equal-seed
// determinism contract — must not inherit a map-order tie-break.
func (d *Delta) bfs(src NodeID) (dist []int, far NodeID, ecc int) {
	dist = make([]int, d.g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, d.g.n)
	queue = append(queue, src)
	var nbrs []NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbrs = d.appendMergedNeighbors(nbrs[:0], u)
		for _, w := range nbrs {
			if dist[w] == -1 && !d.crashed[w] {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	far = src
	for v, dd := range dist {
		if dd > ecc {
			ecc = dd
			far = v
		}
	}
	return dist, far, ecc
}

// Connected reports whether the merged view restricted to alive
// (non-crashed) nodes is connected. A view with no alive node reports false.
// Churn drivers use it to test a staged deletion or crash before committing:
// stage the op, check, and cancel it (insert back / revive) if inadmissible.
func (d *Delta) Connected() bool {
	src := NodeID(-1)
	alive := 0
	for v := 0; v < d.g.n; v++ {
		if !d.crashed[v] {
			if src == -1 {
				src = v
			}
			alive++
		}
	}
	if src == -1 {
		return false
	}
	dist, _, _ := d.bfs(src)
	seen := 0
	for v, dd := range dist {
		if dd >= 0 && !d.crashed[v] {
			seen++
		}
	}
	return seen == alive
}

// DiameterBounds returns double-sweep lower and upper bounds on the diameter
// of the merged view restricted to alive nodes (see Graph.DiameterBounds),
// or (-1, -1) when that view is disconnected. Churn drivers use the upper
// bound to keep topology drift within the algorithm's diameter parameter.
func (d *Delta) DiameterBounds() (lower, upper int) {
	src := NodeID(-1)
	for v := 0; v < d.g.n; v++ {
		if !d.crashed[v] {
			src = v
			break
		}
	}
	if src == -1 || !d.Connected() {
		return -1, -1
	}
	_, far, ecc0 := d.bfs(src)
	_, _, eccFar := d.bfs(far)
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

// Applied returns the total number of edge changes committed by Apply calls
// over the delta's lifetime.
func (d *Delta) Applied() int { return d.applied }

// CheckpointCrashes exports the crash bookkeeping for snapshots: the sorted
// crashed node set and, aligned with it, each crashed node's saved adjacency
// (sorted). The saved lists are semantically sets — Revive re-stages each
// saved edge through the symmetric override map — so sorting them changes
// nothing about a restored delta's behavior while making snapshots
// deterministic. The delta must have no staged operations (snapshots are
// taken at step boundaries, after Apply); CheckpointCrashes panics
// otherwise, because staged overrides are deliberately not serialized.
func (d *Delta) CheckpointCrashes() (crashed []NodeID, saved [][]NodeID) {
	if d.Pending() != 0 {
		panic("graph: CheckpointCrashes with staged operations")
	}
	crashed = make([]NodeID, 0, len(d.crashed))
	for v := range d.crashed {
		crashed = append(crashed, v)
	}
	sort.Ints(crashed)
	saved = make([][]NodeID, len(crashed))
	for i, v := range crashed {
		saved[i] = append([]NodeID(nil), d.saved[v]...)
		sort.Ints(saved[i])
	}
	return crashed, saved
}

// RestoreCrashes is the inverse of CheckpointCrashes: it reinstates the
// crash bookkeeping (crashed set, saved adjacency, lifetime applied counter)
// into a fresh delta over the restored — already crash-compacted — graph.
func (d *Delta) RestoreCrashes(crashed []NodeID, saved [][]NodeID, applied int) error {
	if len(d.crashed) != 0 || d.Pending() != 0 || d.applied != 0 {
		return fmt.Errorf("graph: RestoreCrashes on a non-fresh delta")
	}
	if len(saved) != len(crashed) {
		return fmt.Errorf("graph: %d saved lists for %d crashed nodes", len(saved), len(crashed))
	}
	for i, v := range crashed {
		if v < 0 || v >= d.g.n {
			return &OutOfRangeError{ID: v, N: d.g.n}
		}
		d.crashed[v] = true
		d.saved[v] = append([]NodeID(nil), saved[i]...)
	}
	d.applied = applied
	return nil
}

// Apply commits the staged batch: the base graph's CSR arrays are rebuilt in
// place to the merged view. It returns the committed edge changes (sorted by
// (U, V), deletions and insertions interleaved) and the touched nodes (the
// sorted distinct endpoints). The staged override set resets; crash/revive
// bookkeeping persists until the nodes are revived. An empty batch returns
// (nil, nil) and leaves the graph untouched.
func (d *Delta) Apply() (changes []EdgeChange, touched []NodeID) {
	if len(d.over) == 0 {
		return nil, nil
	}
	g := d.g
	touched = make([]NodeID, 0, len(d.over))
	for v, m := range d.over {
		touched = append(touched, v)
		for u, present := range m {
			if v < u {
				changes = append(changes, EdgeChange{U: v, V: u, Added: present})
			}
		}
	}
	sort.Ints(touched)
	sort.Slice(changes, func(i, j int) bool {
		a, b := changes[i], changes[j]
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})

	// Re-compact: new offsets from merged degrees, then per-node merges of
	// the (sorted) base adjacency with the node's overrides.
	offsets := make([]int, g.n+1)
	for v := 0; v < g.n; v++ {
		offsets[v+1] = offsets[v] + d.Degree(v)
	}
	neighbors := make([]NodeID, offsets[g.n])
	var adds []NodeID
	for v := 0; v < g.n; v++ {
		m := d.over[v]
		out := neighbors[offsets[v]:offsets[v]:offsets[v+1]]
		if m == nil {
			out = append(out, g.Neighbors(v)...)
		} else {
			adds = adds[:0]
			for u, present := range m {
				if present {
					adds = append(adds, u)
				}
			}
			sort.Ints(adds)
			base := g.Neighbors(v)
			i := 0
			for _, u := range base {
				if present, ok := m[u]; ok && !present {
					continue
				}
				for i < len(adds) && adds[i] < u {
					out = append(out, adds[i])
					i++
				}
				out = append(out, u)
			}
			out = append(out, adds[i:]...)
		}
		if len(out) != offsets[v+1]-offsets[v] {
			panic("graph: delta compaction degree mismatch")
		}
	}
	g.offsets = offsets
	g.neighbors = neighbors
	g.m = len(neighbors) / 2

	d.applied += len(changes)
	d.over = make(map[NodeID]map[NodeID]bool)
	return changes, touched
}
