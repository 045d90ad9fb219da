// Package shard partitions a CSR graph into contiguous node shards and runs
// engine steps across a persistent worker pool, so a single large simulation
// uses every core instead of one.
//
// The paper's step semantics — every activated node reads C_t and all write
// C_{t+1} simultaneously — make a step embarrassingly parallel: within a step
// no node's new state depends on another node's new state. Sharding is
// therefore safe by construction: workers stage their shard's updates into
// per-shard scratch while the configuration stays immutable, and a
// deterministic merge applies the staged updates afterwards. Combined with
// counter-based per-node coin-toss streams (randx.NodeSeed), a sharded run
// is byte-identical to a sequential run of the same seed at any worker
// count.
//
// A Partition splits nodes into P contiguous ID ranges balanced by
// 1 + deg(v) (the per-node cost of a signal computation), and classifies each
// node as interior (every neighbor in the same shard) or boundary. Interior
// updates touch only shard-local state, so the merge may apply them
// concurrently — one worker per shard — for observers that declare
// order-independence; boundary updates and order-sensitive observers go
// through the coordinator in canonical ascending node order.
//
// A Pool is the persistent worker set: P-1 background goroutines plus the
// caller, woken once per phase. Construct it once per engine and Close it
// when the engine is done; a Pool of one shard runs inline and never starts
// a goroutine.
package shard

import (
	"fmt"
	"sort"
	"sync"

	"thinunison/internal/failpoint"
	"thinunison/internal/graph"
)

// Partition is a contiguous node partition of a graph into P shards.
// Partitions are immutable and deterministic for a given (graph, P): equal
// inputs yield equal shard bounds, so partitioned runs replay byte-
// identically. P never exceeds the node count.
type Partition struct {
	g        *graph.Graph
	starts   []int   // len P+1; shard s owns nodes [starts[s], starts[s+1])
	shardOf  []int32 // owner shard per node
	interior []bool  // interior[v]: every neighbor of v is in v's shard
	boundary [][]int // per shard, ascending: nodes with a cross-shard edge
}

// NewPartition partitions g into p contiguous shards balanced by node cost
// 1 + deg(v), the per-node cost of a step's signal computation. p is clamped
// to [1, g.N()].
func NewPartition(g *graph.Graph, p int) *Partition {
	n := g.N()
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	pt := &Partition{
		g:        g,
		starts:   make([]int, p+1),
		shardOf:  make([]int32, n),
		interior: make([]bool, n),
		boundary: make([][]int, p),
	}

	// Greedy contiguous cuts against the remaining average: shard s takes
	// nodes until its weight reaches (remaining weight)/(remaining shards),
	// which keeps the heaviest shard within one node of balanced while
	// guaranteeing every shard is non-empty (each shard leaves at least one
	// node per remaining shard).
	total := n + 2*g.M() // sum over v of 1 + deg(v)
	v := 0
	for s := 0; s < p; s++ {
		pt.starts[s] = v
		target := (total + (p - s - 1)) / (p - s)
		acc := 0
		for v < n && (acc == 0 || acc+1+g.Degree(v) <= target) && n-v > p-s-1 {
			acc += 1 + g.Degree(v)
			total -= 1 + g.Degree(v)
			pt.shardOf[v] = int32(s)
			v++
		}
	}
	pt.starts[p] = n

	for u := 0; u < n; u++ {
		s := pt.shardOf[u]
		inter := true
		for _, w := range g.Neighbors(u) {
			if pt.shardOf[w] != s {
				inter = false
				break
			}
		}
		pt.interior[u] = inter
		if !inter {
			pt.boundary[s] = append(pt.boundary[s], u)
		}
	}
	return pt
}

// NewPartitionFromStarts rebuilds a partition of g with explicit shard
// bounds, the restore half of checkpointing: a snapshot records only the
// bounds (see Starts), because the classification tables are a pure function
// of (bounds, current adjacency). Mid-run bounds are NOT derivable from the
// restored graph — a threshold-triggered repartition may have moved them off
// the fresh NewPartition cut — so they must be carried explicitly for a
// restored sharded run to stay byte-identical in layout-sensitive state
// (per-shard frontier words, goodness slabs, observer counters).
func NewPartitionFromStarts(g *graph.Graph, starts []int) (*Partition, error) {
	n := g.N()
	p := len(starts) - 1
	if p < 1 || starts[0] != 0 || starts[p] != n {
		return nil, fmt.Errorf("shard: bad shard bounds %v for %d nodes", starts, n)
	}
	pt := &Partition{
		g:        g,
		starts:   make([]int, p+1),
		shardOf:  make([]int32, n),
		interior: make([]bool, n),
		boundary: make([][]int, p),
	}
	copy(pt.starts, starts)
	for s := 0; s < p; s++ {
		if starts[s+1] <= starts[s] {
			return nil, fmt.Errorf("shard: empty or unordered shard %d in bounds %v", s, starts)
		}
		for v := starts[s]; v < starts[s+1]; v++ {
			pt.shardOf[v] = int32(s)
		}
	}
	for u := 0; u < n; u++ {
		s := pt.shardOf[u]
		inter := true
		for _, w := range g.Neighbors(u) {
			if pt.shardOf[w] != s {
				inter = false
				break
			}
		}
		pt.interior[u] = inter
		if !inter {
			pt.boundary[s] = append(pt.boundary[s], u)
		}
	}
	return pt, nil
}

// P returns the number of shards.
func (pt *Partition) P() int { return len(pt.boundary) }

// N returns the number of nodes.
func (pt *Partition) N() int { return len(pt.shardOf) }

// Range returns the node range [lo, hi) owned by shard s.
func (pt *Partition) Range(s int) (lo, hi int) { return pt.starts[s], pt.starts[s+1] }

// Starts returns the shard bounds: len P+1, shard s owns nodes
// [Starts()[s], Starts()[s+1]). The slice is owned by the partition and
// must not be modified; per-shard frontier sets (internal/frontier) are
// built over it so each shard's dirty bits live in their own word array.
func (pt *Partition) Starts() []int { return pt.starts }

// ShardOf returns the shard owning node v.
func (pt *Partition) ShardOf(v int) int { return int(pt.shardOf[v]) }

// ShardIndex returns the dense owner-shard table (indexed by node). The
// slice is owned by the partition and must not be modified; observers use it
// to maintain per-shard counters.
func (pt *Partition) ShardIndex() []int32 { return pt.shardOf }

// Interior reports whether every neighbor of v lies in v's own shard. An
// interior node's state, counters and neighborhood are touched only by its
// owner shard's worker, so interior updates never race across workers.
func (pt *Partition) Interior(v int) bool { return pt.interior[v] }

// Boundary returns the ascending list of boundary nodes of shard s (nodes
// with at least one cross-shard edge). The slice is owned by the partition.
func (pt *Partition) Boundary(s int) []int { return pt.boundary[s] }

// ChurnRepartitionDivisor tunes the threshold-triggered repartition of the
// sharded engines: a full repartition runs once the accumulated churn
// weight (1 + deg v per touched endpoint) exceeds 1/4 of the total node
// cost, so its O(n + m) price is amortized against at least Θ(n + m) of
// committed churn while the edge balance never drifts more than a constant
// factor.
const ChurnRepartitionDivisor = 4

// RewireAfterChurn is the sharded engines' shared post-churn repair policy:
// it accumulates the committed batch's weight into *accum and either
// re-classifies the touched endpoints in place (returning the receiver,
// false) or — once the weight crosses the repartition threshold — resets
// the accumulator and builds a fresh partition of the mutated graph
// (returning it, true). When rebuilt is true the caller must migrate its
// partition-shaped state: frontier bitsets (frontier.Set.Rebuild) and any
// per-shard observer counters. Layout-only either way: staged results and
// merges are independent of the partition, so churn runs stay
// byte-identical at every worker count.
func (pt *Partition) RewireAfterChurn(accum *int, touched []int) (next *Partition, rebuilt bool) {
	g := pt.g
	for _, v := range touched {
		*accum += 1 + g.Degree(v)
	}
	if ChurnRepartitionDivisor*(*accum) >= g.N()+2*g.M() {
		*accum = 0
		return NewPartition(g, pt.P()), true
	}
	for _, v := range touched {
		pt.Reclassify(v)
	}
	return pt, false
}

// Reclassify recomputes the interior/boundary classification of node v
// against the graph's current adjacency, in O(deg v + log |boundary|). Call
// it for every endpoint of a topology mutation (a graph.Delta applied at a
// step boundary): an edge change at (u, v) can alter the classification of
// u and v only, since no other node's neighbor set moves. The shard bounds
// themselves stay fixed — the edge-balance drift of sustained churn is
// repaired by a threshold-triggered full repartition in the engines.
func (pt *Partition) Reclassify(v int) {
	s := int(pt.shardOf[v])
	inter := true
	for _, w := range pt.g.Neighbors(v) {
		if int(pt.shardOf[w]) != s {
			inter = false
			break
		}
	}
	if inter == pt.interior[v] {
		return
	}
	pt.interior[v] = inter
	b := pt.boundary[s]
	i := sort.SearchInts(b, v)
	if inter {
		// v left the boundary list.
		if i < len(b) && b[i] == v {
			pt.boundary[s] = append(b[:i], b[i+1:]...)
		}
	} else if i == len(b) || b[i] != v {
		b = append(b, 0)
		copy(b[i+1:], b[i:])
		b[i] = v
		pt.boundary[s] = b
	}
}

// String returns a short description for error messages and traces.
func (pt *Partition) String() string {
	b := 0
	for _, l := range pt.boundary {
		b += len(l)
	}
	return fmt.Sprintf("partition(P=%d, n=%d, boundary=%d)", pt.P(), pt.N(), b)
}

// Pool runs one function across P shards on persistent workers: P-1
// background goroutines (started lazily on first Run) plus the calling
// goroutine, woken once per Run. Run returns only after every shard's call
// has completed, with the usual channel happens-before guarantees in both
// directions — workers see all writes that preceded Run, and the caller sees
// all worker writes when Run returns.
//
// A Pool of one shard runs inline and never starts a goroutine. Close
// terminates the workers; Run must not be called after Close. Pools are not
// safe for concurrent Run calls.
//
// A panic inside fn does not kill the pool: every shard call is recovered so
// the barrier always completes, then the first panic is re-raised on the
// calling goroutine as a PoolPanic. The workers and the partition survive,
// so a caller that recovers the PoolPanic may keep using the pool.
type Pool struct {
	p       int
	work    []chan func(int)
	done    chan struct{}
	started bool
	closed  bool

	mu       sync.Mutex
	panicked *PoolPanic
}

// PoolPanic is the value re-raised by Pool.Run on the calling goroutine when
// a shard call panicked. Value is the original panic payload; if several
// shards panicked in one Run, the first to be recovered wins.
type PoolPanic struct {
	Shard int
	Value any
}

func (p PoolPanic) String() string {
	return fmt.Sprintf("shard %d: %v", p.Shard, p.Value)
}

// NewPool returns a pool over p shards (p < 1 is treated as 1).
func NewPool(p int) *Pool {
	if p < 1 {
		p = 1
	}
	return &Pool{p: p}
}

// P returns the number of shards the pool fans out over.
func (pl *Pool) P() int { return pl.p }

// Run invokes fn(s) for every shard s in [0, P) — shard 0 on the calling
// goroutine, the rest on the pool's workers — and returns when all calls
// have completed.
func (pl *Pool) Run(fn func(shard int)) {
	if pl.closed {
		// A quiet fallback here would silently run only shard 0 while the
		// caller's merge still expects all P shards' staging — corrupted
		// state is worse than a loud failure.
		panic("shard: Run on closed Pool")
	}
	if pl.p == 1 {
		pl.call(fn, 0)
		pl.rethrow()
		return
	}
	if !pl.started {
		pl.start()
	}
	for _, w := range pl.work {
		w <- fn
	}
	pl.call(fn, 0)
	for range pl.work {
		<-pl.done
	}
	pl.rethrow()
}

// call runs one shard with panic isolation: a panicking shard is recorded
// instead of unwinding, so workers always reach their done send and the
// barrier in Run cannot deadlock on a dead worker.
func (pl *Pool) call(fn func(shard int), s int) {
	defer func() {
		if v := recover(); v != nil {
			pl.mu.Lock()
			if pl.panicked == nil {
				pl.panicked = &PoolPanic{Shard: s, Value: v}
			}
			pl.mu.Unlock()
		}
	}()
	if failpoint.Armed() {
		if f := failpoint.Eval(failpoint.ShardWorker); f.Kind == failpoint.FailPanic {
			panic(f)
		}
	}
	fn(s)
}

// rethrow re-raises the first shard panic of this Run, after the barrier, on
// the calling goroutine.
func (pl *Pool) rethrow() {
	pl.mu.Lock()
	p := pl.panicked
	pl.panicked = nil
	pl.mu.Unlock()
	if p != nil {
		panic(*p)
	}
}

func (pl *Pool) start() {
	pl.work = make([]chan func(int), pl.p-1)
	pl.done = make(chan struct{})
	for i := range pl.work {
		pl.work[i] = make(chan func(int))
		s := i + 1
		go func(w chan func(int)) {
			for fn := range w {
				pl.call(fn, s)
				pl.done <- struct{}{}
			}
		}(pl.work[i])
	}
	pl.started = true
}

// Close terminates the pool's workers. It is idempotent and safe on a pool
// that never ran; Run panics after Close.
func (pl *Pool) Close() {
	if pl.closed {
		return
	}
	pl.closed = true
	if !pl.started {
		return
	}
	for _, w := range pl.work {
		close(w)
	}
	pl.started = false
	pl.work = nil
}
