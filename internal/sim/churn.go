package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"thinunison/internal/graph"
	"thinunison/internal/randx"
)

// TopologyObserver is an optional ConfigObserver extension for observers
// that can repair their incremental state when the topology mutates mid-run.
// The engine delivers one RewireEdge call per committed edge change, on the
// coordinator, between steps — after the graph has been re-compacted, so the
// observer sees the new adjacency through the graph pointer it already
// holds. core.GoodMonitor is the canonical implementation: an edge change at
// (u, v) touches only the violation counters of u and v, so the repair is
// O(1) per change.
//
// An engine with an observer that does NOT implement TopologyObserver
// refuses topology mutations (ApplyDelta errors): silently leaving the
// observer's counters describing a graph that no longer exists would
// corrupt every later verdict.
type TopologyObserver interface {
	ConfigObserver
	// RewireEdge records that the undirected edge (u, v) was added (added)
	// or removed.
	RewireEdge(u, v int, added bool)
}

// ChurnOpKind selects a topology mutation of a ChurnOp.
type ChurnOpKind int

const (
	// ChurnInsert adds the edge (U, V); a no-op if present.
	ChurnInsert ChurnOpKind = iota
	// ChurnDelete removes the edge (U, V); a no-op if absent. Subject to the
	// spec's admissibility guards (connectivity, diameter drift).
	ChurnDelete
	// ChurnFlip toggles the edge (U, V): insert if absent, delete if
	// present (deletions guarded).
	ChurnFlip
	// ChurnCrash removes every edge incident to node U (guarded), modeling
	// cell death; the node keeps its state and its saved adjacency.
	ChurnCrash
	// ChurnRevive restores the saved adjacency of crashed node U, modeling
	// cell division back into the tissue.
	ChurnRevive
)

// ChurnOp is one scripted topology mutation. Crash/Revive use U only.
type ChurnOp struct {
	Kind ChurnOpKind
	U, V int
}

// ChurnEvent is a batch of scripted mutations applied at the boundary of
// one step: all ops of the event commit in a single CSR re-compaction,
// before the scheduler's activation set for that step is drawn.
type ChurnEvent struct {
	// Step is the engine step index the event fires at (the event applies
	// before step Step executes). Events with Step below the engine's
	// current step apply at the next boundary.
	Step int
	Ops  []ChurnOp
}

// ChurnSpec configures mid-run topology churn: scripted events, a
// stochastic edge-flip process, or both. The stochastic stream draws from
// its own rng (Seed), never from the engine's, so churn composes with every
// execution mode — a churn run is byte-identical dense vs frontier-sparse
// and at every Parallelism, exactly like a churn-free run.
type ChurnSpec struct {
	// Events are scripted mutations; they are applied in Step order.
	Events []ChurnEvent

	// Period, Flips and Crashes configure stochastic churn: every Period
	// steps (at steps Period, 2·Period, ...) the engine revives the
	// previous event's crash victims, toggles Flips random node pairs —
	// inserting the edge if absent, deleting it (guarded) if present — and
	// crashes Crashes random nodes (guarded), modeling cells dying and
	// dividing back into the tissue. Period <= 0, or Flips and Crashes
	// both <= 0, disables the stochastic stream.
	Period  int
	Flips   int
	Crashes int

	// MaxEvents, when positive, stops the stochastic stream after that
	// many events (any crash victims of the last event are revived one
	// Period later), so a churn scenario eventually quiesces and the
	// stabilization guarantee applies to its final topology. 0 means
	// unbounded churn.
	MaxEvents int

	// Seed seeds the stochastic stream's private rng.
	Seed int64

	// KeepConnected guards deletions and crashes: an op whose merged view
	// disconnects the alive nodes is cancelled (and counted as skipped)
	// instead of committed.
	KeepConnected bool

	// MaxDiameterUpper, when positive, guards deletions and crashes
	// against diameter drift: an op is cancelled unless the double-sweep
	// diameter upper bound of the merged view stays within it. Keeping the
	// bound at most the algorithm's diameter parameter preserves the
	// stabilization guarantee (Theorem 1.1 needs k >= 3D + 2 for the true
	// diameter, and the double sweep never under-reports).
	MaxDiameterUpper int
}

// active reports whether the spec mutates anything.
func (s *ChurnSpec) active() bool {
	return s != nil && (len(s.Events) > 0 || (s.Period > 0 && (s.Flips > 0 || s.Crashes > 0)))
}

// validate range-checks the scripted events against an n-node graph.
func (s *ChurnSpec) validate(n int) error {
	for i, ev := range s.Events {
		for j, op := range ev.Ops {
			switch op.Kind {
			case ChurnInsert, ChurnDelete, ChurnFlip:
				if op.U == op.V {
					return fmt.Errorf("sim: churn event %d op %d: self loop on node %d", i, j, op.U)
				}
				if op.U < 0 || op.U >= n || op.V < 0 || op.V >= n {
					return fmt.Errorf("sim: churn event %d op %d: endpoint out of range [0, %d)", i, j, n)
				}
			case ChurnCrash, ChurnRevive:
				if op.U < 0 || op.U >= n {
					return fmt.Errorf("sim: churn event %d op %d: node %d out of range [0, %d)", i, j, op.U, n)
				}
			default:
				return fmt.Errorf("sim: churn event %d op %d: unknown kind %d", i, j, op.Kind)
			}
		}
	}
	return nil
}

// churnRuntime drives a ChurnSpec against an engine: it stages the events
// due at each step boundary into a Delta, guards the destructive ops, and
// commits the batch through the engine's invalidation path (ApplyDelta).
type churnRuntime struct {
	spec    ChurnSpec
	delta   *graph.Delta
	rng     *rand.Rand
	src     *randx.Source // the stochastic stream, checkpointed by its state
	next    int           // index of the next unapplied scripted event
	events  int           // stochastic events fired so far
	victims []int         // crash victims of the last stochastic event, revived next
	skipped int           // ops cancelled by the admissibility guards
}

func newChurnRuntime(g *graph.Graph, spec ChurnSpec) (*churnRuntime, error) {
	if err := spec.validate(g.N()); err != nil {
		return nil, err
	}
	events := make([]ChurnEvent, len(spec.Events))
	copy(events, spec.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Step < events[j].Step })
	spec.Events = events
	// A randx.Source draws what rand.NewSource draws, and a checkpoint saves
	// and sets its state (see snapshot.go).
	src := randx.NewSource(spec.Seed)
	return &churnRuntime{
		spec:  spec,
		delta: graph.NewDelta(g),
		rng:   rand.New(src),
		src:   src,
	}, nil
}

// admissible reports whether the currently staged batch passes the spec's
// guards.
func (cr *churnRuntime) admissible() bool {
	if cr.spec.KeepConnected && !cr.delta.Connected() {
		return false
	}
	if cr.spec.MaxDiameterUpper > 0 {
		_, upper := cr.delta.DiameterBounds()
		if upper < 0 || upper > cr.spec.MaxDiameterUpper {
			return false
		}
	}
	return true
}

// stageDelete stages a guarded deletion: the op is cancelled (exactly — a
// re-insert of a staged deletion restores the base state) when the merged
// view fails the guards.
func (cr *churnRuntime) stageDelete(u, v int) {
	if !cr.delta.HasEdge(u, v) {
		return
	}
	if err := cr.delta.DeleteEdge(u, v); err != nil {
		cr.skipped++
		return
	}
	if !cr.admissible() {
		if err := cr.delta.InsertEdge(u, v); err != nil {
			panic(fmt.Sprintf("sim: churn guard rollback failed: %v", err))
		}
		cr.skipped++
	}
}

// stageCrash stages a guarded crash (Revive cancels it exactly: the saved
// adjacency re-inserts precisely the staged deletions).
func (cr *churnRuntime) stageCrash(v int) {
	if cr.delta.Crashed(v) {
		return
	}
	if err := cr.delta.Crash(v); err != nil {
		cr.skipped++
		return
	}
	if !cr.admissible() {
		if err := cr.delta.Revive(v); err != nil {
			panic(fmt.Sprintf("sim: churn guard rollback failed: %v", err))
		}
		cr.skipped++
	}
}

func (cr *churnRuntime) stageOp(op ChurnOp) {
	switch op.Kind {
	case ChurnInsert:
		if err := cr.delta.InsertEdge(op.U, op.V); err != nil {
			cr.skipped++ // crashed endpoint
		}
	case ChurnDelete:
		cr.stageDelete(op.U, op.V)
	case ChurnFlip:
		if cr.delta.HasEdge(op.U, op.V) {
			cr.stageDelete(op.U, op.V)
		} else if err := cr.delta.InsertEdge(op.U, op.V); err != nil {
			cr.skipped++
		}
	case ChurnCrash:
		cr.stageCrash(op.U)
	case ChurnRevive:
		if err := cr.delta.Revive(op.U); err != nil {
			cr.skipped++
		}
	}
}

// stageRandomFlip stages one stochastic edge flip. The rng draw pattern is
// fixed (two draws per flip) regardless of the op's fate, so the stream
// stays aligned across execution modes by construction. A single-node
// graph has no pairs to flip.
func (cr *churnRuntime) stageRandomFlip(n int) {
	if n < 2 {
		return
	}
	u, v := cr.rng.Intn(n), cr.rng.Intn(n-1)
	if v >= u {
		v++
	}
	cr.stageOp(ChurnOp{Kind: ChurnFlip, U: u, V: v})
}

// applyChurn stages and commits the churn due at the boundary of the
// engine's current step.
func (e *Engine) applyChurn() error {
	cr := e.churn
	for cr.next < len(cr.spec.Events) && cr.spec.Events[cr.next].Step <= e.step {
		for _, op := range cr.spec.Events[cr.next].Ops {
			cr.stageOp(op)
		}
		cr.next++
	}
	if cr.spec.Period > 0 && (cr.spec.Flips > 0 || cr.spec.Crashes > 0) &&
		e.step > 0 && e.step%cr.spec.Period == 0 &&
		(cr.spec.MaxEvents <= 0 || cr.events <= cr.spec.MaxEvents) {
		// One extra tick past MaxEvents runs revive-only, so the last
		// event's crash victims rejoin the tissue before churn ends.
		for _, v := range cr.victims {
			cr.stageOp(ChurnOp{Kind: ChurnRevive, U: v})
		}
		cr.victims = cr.victims[:0]
		if cr.spec.MaxEvents <= 0 || cr.events < cr.spec.MaxEvents {
			for i := 0; i < cr.spec.Flips; i++ {
				cr.stageRandomFlip(e.g.N())
			}
			for i := 0; i < cr.spec.Crashes; i++ {
				v := cr.rng.Intn(e.g.N())
				if cr.delta.Crashed(v) {
					continue // drawn twice in one event
				}
				cr.stageCrash(v)
				if cr.delta.Crashed(v) {
					cr.victims = append(cr.victims, v)
				}
			}
		}
		cr.events++
	}
	// Gauges, not adds: delta.Applied and skipped are already cumulative.
	e.mx.ChurnSkipped.Store(uint64(cr.skipped))
	if cr.delta.Pending() == 0 {
		return nil
	}
	_, err := e.ApplyDelta(cr.delta)
	if err == nil {
		e.mx.ChurnApplied.Store(uint64(cr.delta.Applied()))
	}
	return err
}

// ChurnOps returns the number of topology mutations committed so far by the
// engine's churn driver and explicit ApplyDelta calls through it, or 0 when
// churn is disabled. It is a deterministic function of the spec and seed.
func (e *Engine) ChurnOps() int {
	if e.churn == nil {
		return 0
	}
	return e.churn.delta.Applied()
}

// ChurnSkipped returns the number of churn ops cancelled by the
// admissibility guards (KeepConnected, MaxDiameterUpper), or 0 when churn
// is disabled.
func (e *Engine) ChurnSkipped() int {
	if e.churn == nil {
		return 0
	}
	return e.churn.skipped
}

// ApplyDelta commits a topology mutation batch at a step boundary and
// repairs every incremental layer: the dirty frontier is seeded with each
// touched endpoint's neighborhood, a TopologyObserver receives one
// RewireEdge per change, and a sharded engine re-classifies the endpoints'
// interior/boundary status (or repartitions outright once accumulated churn
// weight crosses a threshold). The delta must wrap the engine's own graph.
//
// It must be called between steps, on the goroutine driving the engine —
// the same discipline as SetState and InjectFaults. The committed changes
// are returned so callers can build an inverse batch (bio.Network.Churn
// uses this to back out rewirings that violate its diameter bound).
func (e *Engine) ApplyDelta(d *graph.Delta) ([]graph.EdgeChange, error) {
	if d.Graph() != e.g {
		return nil, fmt.Errorf("sim: delta wraps a different graph")
	}
	var topo TopologyObserver
	if e.obs != nil {
		var ok bool
		if topo, ok = e.obs.(TopologyObserver); !ok {
			return nil, fmt.Errorf("sim: observer %T cannot survive topology churn (no TopologyObserver)", e.obs)
		}
	}
	changes, touched := d.Apply()
	if len(changes) == 0 {
		return nil, nil
	}
	if e.wr != nil {
		// The commit re-compacted the CSR arrays (possibly replacing the
		// backing storage); re-fetch the word runtime's adjacency views.
		// The self-words are untouched — churn moves edges, not states —
		// and the stale goodness bits of the rewired endpoints are harmless:
		// certification only trusts steps that refresh every drifted node.
		e.wr.refreshCSR(e)
	}
	if e.fr != nil {
		// Seed the frontier with every endpoint's neighborhood: an edge
		// change rewrites the signals of its endpoints, voiding their
		// settled certificates. (Only the endpoints' own certificates are
		// strictly at stake — no other node's signal moved — but seeding
		// the neighborhoods too keeps this path on the same invariant as
		// state changes, at negligible cost.)
		for _, v := range touched {
			e.fr.invalidate(e.g, v)
		}
	}
	if topo != nil {
		for _, c := range changes {
			topo.RewireEdge(c.U, c.V, c.Added)
		}
	}
	if e.part != nil {
		e.rewire(touched)
	}
	return changes, nil
}

// rewire repairs the partition after a committed topology batch via the
// shared policy (shard.Partition.RewireAfterChurn): endpoint
// re-classification in the common case, a threshold-triggered full
// repartition once accumulated churn weight crosses the threshold — in
// which case the frontier bitset migrates to the new layout and a
// ShardedObserver's per-shard counters are re-attached (AttachShards
// re-buckets and recounts).
func (e *Engine) rewire(touched []int) {
	next, rebuilt := e.part.RewireAfterChurn(&e.churnAccum, touched)
	if !rebuilt {
		return
	}
	e.mx.Repartitions.Add(1)
	e.setPartition(next)
	if e.fr != nil {
		e.fr.set = e.fr.set.Rebuild(next.Starts(), next.ShardIndex())
	}
	if e.shObs != nil {
		e.shObs.AttachShards(next.ShardIndex(), next.P())
	}
	if e.wr != nil {
		// The goodness slabs are laid out per shard; re-carve them for the
		// new bounds and refresh every bit from the current configuration
		// (strictly fresher than the per-eval invariant requires).
		e.wr.rebuildSlabs(e)
	}
}
