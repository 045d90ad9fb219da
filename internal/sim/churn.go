package sim

import (
	"fmt"
	"math/rand"

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

// ChurnSpec configures mid-run topology churn: a stochastic stream of
// edge flips, cell deaths and revivals. The stream draws from its own rng
// (Seed), never from the engine's, so churn composes with every execution
// mode — a churn run is byte-identical dense vs frontier-sparse and word vs
// scalar, exactly like a churn-free run.
type ChurnSpec struct {
	// Period, Flips and Crashes configure stochastic churn: every Period
	// steps (at steps Period, 2·Period, ...) the engine revives the
	// previous event's crash victims, toggles Flips random node pairs —
	// inserting the edge if absent, deleting it (guarded) if present — and
	// crashes Crashes random nodes (guarded), modeling cells dying and
	// dividing back into the tissue. Period <= 0, or Flips and Crashes
	// both <= 0, disables churn.
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
	return s != nil && s.Period > 0 && (s.Flips > 0 || s.Crashes > 0)
}

// churnRuntime drives a ChurnSpec against an engine: it stages the
// stochastic event due at each step boundary into a Delta, guards the
// destructive ops, and commits the batch through the engine's invalidation
// path (ApplyDelta).
type churnRuntime struct {
	spec    ChurnSpec
	delta   *graph.Delta
	rng     *rand.Rand
	events  int   // stochastic events fired so far
	victims []int // crash victims of the last stochastic event, revived next
	skipped int   // ops cancelled by the admissibility guards
}

func newChurnRuntime(g *graph.Graph, spec ChurnSpec) *churnRuntime {
	// A randx.Source draws what rand.NewSource draws, and seeds faster.
	return &churnRuntime{
		spec:  spec,
		delta: graph.NewDelta(g),
		rng:   rand.New(randx.NewSource(spec.Seed)),
	}
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
	if cr.delta.HasEdge(u, v) {
		cr.stageDelete(u, v)
	} else if err := cr.delta.InsertEdge(u, v); err != nil {
		cr.skipped++ // crashed endpoint
	}
}

// applyChurn stages and commits the churn due at the boundary of the
// engine's current step.
func (e *Engine) applyChurn() error {
	cr := e.churn
	if e.step > 0 && e.step%cr.spec.Period == 0 &&
		(cr.spec.MaxEvents <= 0 || cr.events <= cr.spec.MaxEvents) {
		// One extra tick past MaxEvents runs revive-only, so the last
		// event's crash victims rejoin the tissue before churn ends.
		for _, v := range cr.victims {
			if err := cr.delta.Revive(v); err != nil {
				cr.skipped++
			}
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
		// A gauge, not an add: skipped is cumulative, and only an event
		// changes it.
		e.mx.ChurnSkipped.Store(uint64(cr.skipped))
	}
	if cr.delta.Pending() == 0 {
		return nil
	}
	_, err := e.ApplyDelta(cr.delta)
	if err == nil {
		e.mx.ChurnApplied.Store(uint64(cr.delta.Applied())) // cumulative too
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
// RewireEdge per change, and a batch that commits a change drops
// SaveState's encoded topology, so the next save encodes the new CSR. The
// delta must wrap the engine's own graph.
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
	// SaveState's copy of the encoded topology no longer matches the CSR.
	e.topoEnc = nil
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
			e.fr.set.AddClosed(v, e.g.Neighbors(v))
		}
	}
	if topo != nil {
		for _, c := range changes {
			topo.RewireEdge(c.U, c.V, c.Added)
		}
	}
	return changes, nil
}
