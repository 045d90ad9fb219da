package core

import (
	"fmt"

	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sa"
	"thinunison/internal/snapshot"
)

// Monitor checks, online, the run-time guarantees of AlgAU: the monotone
// invariants of Sec. 2.3.1 (out-protected nodes stay out-protected; a good
// graph stays good) and — once the graph has become good — the AU task's
// safety and liveness conditions. Attach it to a sim.Engine as a hook via
// its Check method. It deliberately re-verifies the whole graph every step
// (that is what makes it a verification oracle); production runs that only
// need the stabilization verdict use the incremental GoodMonitor below.
type Monitor struct {
	au *AU
	g  *graph.Graph

	prev         sa.Config
	prevOutProt  []bool
	goodSince    int // step at which the graph first became good; -1 before
	clockUpdates []int
	step         int
}

// NewMonitor returns a fresh monitor for au on g.
func NewMonitor(au *AU, g *graph.Graph) *Monitor {
	return &Monitor{
		au:           au,
		g:            g,
		goodSince:    -1,
		clockUpdates: make([]int, g.N()),
	}
}

// GoodSince returns the step index at which the graph first became good, or
// -1 if it has not yet.
func (m *Monitor) GoodSince() int { return m.goodSince }

// ClockUpdates returns, for each node, the number of clock advances (AA
// transitions) observed since the graph became good.
func (m *Monitor) ClockUpdates() []int {
	out := make([]int, len(m.clockUpdates))
	copy(out, m.clockUpdates)
	return out
}

// Check inspects the configuration after one engine step. It must be called
// once per step with the post-step configuration.
func (m *Monitor) Check(cfg sa.Config) error {
	defer func() { m.step++ }()

	outProt := make([]bool, m.g.N())
	for v := range outProt {
		outProt[v] = m.au.NodeOutProtected(m.g, cfg, v)
	}

	if m.prev != nil {
		// Obs. 2.3: out-protected nodes remain out-protected.
		for v := range m.prevOutProt {
			if m.prevOutProt[v] && !outProt[v] {
				return fmt.Errorf("core: Obs 2.3 violated at step %d: node %d lost out-protection", m.step, v)
			}
		}
		// Obs. 2.4: a node that changed its level must now be out-protected.
		for v := range cfg {
			if m.au.LevelOf(cfg, v) != m.au.LevelOf(m.prev, v) && !outProt[v] {
				return fmt.Errorf("core: Obs 2.4 violated at step %d: node %d changed level while not out-protected", m.step, v)
			}
		}

		if m.goodSince >= 0 {
			// Lem. 2.10: good graphs stay good; safety must hold.
			if !m.au.GraphGood(m.g, cfg) {
				return fmt.Errorf("core: Lem 2.10 violated at step %d: graph stopped being good", m.step)
			}
			if !m.au.SafetyHolds(m.g, cfg) {
				return fmt.Errorf("core: AU safety violated at step %d", m.step)
			}
			// Post-stabilization clock updates are exactly +1 (AA) steps.
			for v := range cfg {
				was, now := m.au.Turn(m.prev[v]), m.au.Turn(cfg[v])
				if was == now {
					continue
				}
				if was.Faulty || now.Faulty {
					return fmt.Errorf("core: faulty turn after good at step %d, node %d", m.step, v)
				}
				if m.au.Levels().Phi(was.Level) != now.Level {
					return fmt.Errorf("core: node %d moved %v -> %v, not a +1 clock update", v, was, now)
				}
				m.clockUpdates[v]++
			}
		}
	}

	if m.goodSince < 0 && m.au.GraphGood(m.g, cfg) {
		m.goodSince = m.step
	}
	m.prev = cfg.Clone()
	m.prevOutProt = outProt
	return nil
}

// maxWitnesses bounds the bad-node witness cache of a deferred GoodMonitor:
// each deferred Good() check first re-tests the cached witnesses in O(Δ)
// before falling back to a scan, and each scan refills the cache with the
// first maxWitnesses bad nodes it passes, so near-quiescent churn phases
// rarely rescan.
const maxWitnesses = 8

// GoodMonitor tracks the AlgAU stabilization predicate GraphGood in one of
// two regimes:
//
//   - From construction until the graph first turns good it runs
//     *deferred*: Apply is a single raw-state store (no neighbor walk), and
//     Good() answers by checking a small cache of known-bad witnesses in
//     O(Δ) — falling back to an early-exit scan only when every witness has
//     healed. While the graph is bad this is as cheap as the full-scan
//     predicate's short circuit, without the counter-maintenance overhead
//     that used to make the incremental monitor a net loss on stabilization
//     sweeps (0.77–0.92x vs full scan).
//   - The scan that first finds no bad node *promotes* it to incremental:
//     per-node violation counters — unprotected incident edges and faulty
//     neighbors — plus a not-good node count, maintained in O(deg v) per
//     change, make every further check O(1). The promotion
//     is free: a good graph has every counter at zero, and zero is where the
//     deferred regime leaves them. Fault bursts into a stabilized run are
//     exactly the regime where the counters win by orders of magnitude (see
//     the recovery series of BENCH_hotpath.json).
//
// The only per-node state besides the counters is the raw configuration
// mirror; a node's level and faulty flag are looked up in per-state tables.
//
// It implements sim.ConfigObserver: register it on an engine with
// Engine.Observe and it sees every node state change (steps, SetState,
// InjectFaults). Good() then always agrees with au.GraphGood(g, cfg).
type GoodMonitor struct {
	g *graph.Graph

	raw []sa.State // mirror of the configuration

	// Per-state tables, O(|Q|): the position of q's level on the φ-cycle
	// (Levels.Index) and whether q is a faulty turn. Two levels are adjacent
	// when their positions differ by 0, ±1 or ±(order−1).
	posOf    []int32
	faultyOf []bool
	order    int32

	deferred  bool  // true until a scan first finds the graph good
	witnesses []int // recently observed bad nodes (deferred mode only)

	// Incremental-regime counters; all zero while deferred.
	unprot []int32 // number of unprotected incident edges per node
	fnbrs  []int32 // number of faulty neighbors per node
	bad    int     // number of not-good nodes

	mx *obs.Metrics // nil unless Instrument attached a metric set
}

// Instrument attaches a metric set: the monitor counts its regime
// promotions (deferred → incremental) and classifies applied transitions by
// turn shape (AA/AF/FA).
func (m *GoodMonitor) Instrument(mx *obs.Metrics) { m.mx = mx }

// countTransition classifies a turn change by shape into the metric set.
func (m *GoodMonitor) countTransition(oldF, newF bool) {
	switch {
	case !oldF && !newF:
		m.mx.TransAA.Add(1)
	case !oldF && newF:
		m.mx.TransAF.Add(1)
	case oldF && !newF:
		m.mx.TransFA.Add(1)
	}
}

// NewGoodMonitor returns a monitor initialized from cfg. It starts in the
// deferred regime: an O(n) raw copy plus the O(|Q|) per-state tables, no
// counter scan.
func NewGoodMonitor(au *AU, g *graph.Graph, cfg sa.Config) *GoodMonitor {
	n, nq := g.N(), au.NumStates()
	m := &GoodMonitor{
		g:        g,
		raw:      make([]sa.State, n),
		posOf:    make([]int32, nq),
		faultyOf: make([]bool, nq),
		order:    int32(au.ls.Order()),
		unprot:   make([]int32, n),
		fnbrs:    make([]int32, n),
		deferred: true,
	}
	for q := range m.posOf {
		t := au.Turn(q)
		m.posOf[q] = int32(au.ls.Index(t.Level))
		m.faultyOf[q] = t.Faulty
	}
	copy(m.raw, cfg)
	return m
}

// adjacent reports whether the levels at φ-cycle positions a and b are
// adjacent (Levels.Adjacent).
func (m *GoodMonitor) adjacent(a, b int32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1 || d == m.order-1
}

// ApplyWordBatch implements sim.WordBatchObserver: a word-parallel engine
// delivers a certified step's changed nodes as one batch — cfg is the
// engine's post-step configuration — instead of per-node Apply calls. The
// pre-step configuration was certified graph-good, so by Lem. 2.10 the
// post-step one is too: every counter is zero before and after, every node
// is able on both sides, and each change is an AA transition. In either
// regime the batch therefore only refreshes the raw mirror and tallies the
// transitions. Uncertified changes must go through Apply.
func (m *GoodMonitor) ApplyWordBatch(changed []int, cfg sa.Config) {
	for _, v := range changed {
		m.raw[v] = cfg[v]
	}
	if m.mx != nil && len(changed) != 0 {
		m.mx.TransAA.Add(uint64(len(changed)))
	}
}

// Reset reloads the monitor from cfg. Use it when the configuration was
// rewritten wholesale outside the monitor's view. The current regime is
// kept: an incremental monitor rebuilds its counters, a deferred one drops
// its witnesses.
func (m *GoodMonitor) Reset(cfg sa.Config) {
	copy(m.raw, cfg)
	m.witnesses = m.witnesses[:0]
	if !m.deferred {
		m.recount()
	}
}

// recount rebuilds the violation counters and the not-good count from the
// raw mirror in one O(n·Δ) pass, for an incremental monitor whose counters
// no longer describe the mirror (Reset, RestoreState).
func (m *GoodMonitor) recount() {
	m.bad = 0
	for v := 0; v < m.g.N(); v++ {
		pv := m.posOf[m.raw[v]]
		var unprot, fnbrs int32
		for _, u := range m.g.Neighbors(v) {
			qu := m.raw[u]
			if !m.adjacent(pv, m.posOf[qu]) {
				unprot++
			}
			if m.faultyOf[qu] {
				fnbrs++
			}
		}
		m.unprot[v] = unprot
		m.fnbrs[v] = fnbrs
		if !m.nodeGood(v) {
			m.bad++
		}
	}
}

// nodeGood mirrors AU.NodeGood over the counters: able, all incident edges
// protected, no faulty neighbor. Valid only in the incremental regime.
func (m *GoodMonitor) nodeGood(v int) bool {
	return !m.faultyOf[m.raw[v]] && m.unprot[v] == 0 && m.fnbrs[v] == 0
}

// rebucket moves node v between the good and not-good tallies when its
// counter-derived goodness differs from wasGood.
func (m *GoodMonitor) rebucket(v int, wasGood bool) {
	if good := m.nodeGood(v); good != wasGood {
		if good {
			m.bad--
		} else {
			m.bad++
		}
	}
}

// nodeGoodScan re-derives NodeGood from the raw mirror in O(deg v),
// without counters — the deferred regime's primitive.
func (m *GoodMonitor) nodeGoodScan(v int) bool {
	qv := m.raw[v]
	if m.faultyOf[qv] {
		return false
	}
	pv := m.posOf[qv]
	for _, u := range m.g.Neighbors(v) {
		qu := m.raw[u]
		if m.faultyOf[qu] || !m.adjacent(pv, m.posOf[qu]) {
			return false
		}
	}
	return true
}

// Apply implements sim.ConfigObserver: node v changed its state to q. In
// the deferred regime it is a single raw-mirror store; in the incremental
// regime the update costs O(deg v) and keeps Good() consistent. Applying a
// sequence of single-node changes in any order yields the state of the
// final configuration, so simultaneous updates may be fed one node at a
// time.
func (m *GoodMonitor) Apply(v int, q sa.State) {
	old := m.raw[v]
	if old == q {
		return
	}
	oldF, newF := m.faultyOf[old], m.faultyOf[q]
	if m.mx != nil {
		m.countTransition(oldF, newF)
	}
	if m.deferred {
		m.raw[v] = q
		return
	}
	vWasGood := m.nodeGood(v)
	m.raw[v] = q
	oldP, newP := m.posOf[old], m.posOf[q]
	var fdelta int32
	if oldF != newF {
		if newF {
			fdelta = 1
		} else {
			fdelta = -1
		}
	}
	var dunprot int32 // accumulated change to unprot[v]
	for _, u := range m.g.Neighbors(v) {
		uWasGood := m.nodeGood(u)
		m.fnbrs[u] += fdelta
		if newP != oldP {
			pu := m.posOf[m.raw[u]]
			oldA, newA := m.adjacent(oldP, pu), m.adjacent(newP, pu)
			if oldA && !newA {
				m.unprot[u]++
				dunprot++
			} else if !oldA && newA {
				m.unprot[u]--
				dunprot--
			}
		}
		m.rebucket(u, uWasGood)
	}
	m.unprot[v] += dunprot
	m.rebucket(v, vWasGood)
}

// RewireEdge implements sim.TopologyObserver: the undirected edge (u, v)
// was added to or removed from the monitor's graph by a topology mutation
// (graph.Delta applied at a step boundary). In the deferred regime nothing
// needs repair — the raw mirror is topology-free and every scan walks the
// graph's current adjacency. In the incremental regime the counters are
// patched in O(1): the edge contributes one unprotected-incident-edge unit
// to each endpoint when their levels are not adjacent, and one
// faulty-neighbor unit to the endpoint across from a faulty node.
func (m *GoodMonitor) RewireEdge(u, v int, added bool) {
	if m.deferred {
		return
	}
	uWasGood, vWasGood := m.nodeGood(u), m.nodeGood(v)
	var d int32 = 1
	if !added {
		d = -1
	}
	qu, qv := m.raw[u], m.raw[v]
	if !m.adjacent(m.posOf[qu], m.posOf[qv]) {
		m.unprot[u] += d
		m.unprot[v] += d
	}
	if m.faultyOf[qv] {
		m.fnbrs[u] += d
	}
	if m.faultyOf[qu] {
		m.fnbrs[v] += d
	}
	m.rebucket(u, uWasGood)
	m.rebucket(v, vWasGood)
}

// Good reports whether the graph is good (every node good) — the AlgAU
// stabilization condition. In the incremental regime (after the graph first
// turned good) it is O(1). In the
// deferred regime it re-tests the cached bad witnesses in O(Δ) and only
// scans — with early exit, refilling the witness cache — when all of them
// have healed; the scan that finds no bad node is the promotion point.
func (m *GoodMonitor) Good() bool {
	if m.deferred {
		return m.goodDeferred()
	}
	return m.bad == 0
}

// goodDeferred is the deferred-regime Good: witness check, then early-exit
// scan, then promotion when the scan comes up clean.
func (m *GoodMonitor) goodDeferred() bool {
	keep := m.witnesses[:0]
	for _, w := range m.witnesses {
		if !m.nodeGoodScan(w) {
			keep = append(keep, w)
		}
	}
	m.witnesses = keep
	if len(m.witnesses) > 0 {
		return false
	}
	// Early-exit scan: stop at the first bad node, collecting a few extra
	// witnesses within a bounded overscan so endgame phases (few, scattered
	// bad nodes) do not rescan from scratch every step.
	n := m.g.N()
	limit := n
	for v := 0; v < limit; v++ {
		if !m.nodeGoodScan(v) {
			if len(m.witnesses) == 0 {
				if over := 2*v + 256; over < limit {
					limit = over
				}
			}
			m.witnesses = append(m.witnesses, v)
			if len(m.witnesses) >= maxWitnesses {
				break
			}
		}
	}
	if len(m.witnesses) > 0 {
		return false
	}
	// The graph is good: promote to the incremental regime. Every counter
	// of a good graph is zero, which is what the deferred regime left them
	// at, so nothing is recounted. By Lem. 2.10 a good graph stays good, so
	// from here on the counters pay for themselves — every later check (and
	// every fault-burst recovery) is O(1) instead of a rescan.
	m.deferred = false
	if m.mx != nil {
		m.mx.MonitorPromotions.Add(1)
	}
	return true
}

// BadNodes returns the current number of not-good nodes (a progress metric
// for traces and campaigns). Incremental regime: O(1). Deferred regime: a
// full O(n·Δ) recount — this is an oracle-priced diagnostic there, not a
// hot-path primitive.
func (m *GoodMonitor) BadNodes() int {
	if !m.deferred {
		return m.BadNodesFast()
	}
	total := 0
	for v := 0; v < m.g.N(); v++ {
		if !m.nodeGoodScan(v) {
			total++
		}
	}
	return total
}

// BadNodesFast returns the not-good node count when it is cheap — the
// incremental regime's O(1) counter — and -1 in the deferred regime, where
// an exact count would cost a full rescan. Step tracers use it to enrich
// sampled snapshots without perturbing the hot path.
func (m *GoodMonitor) BadNodesFast() int {
	if m.deferred {
		return -1
	}
	return m.bad
}

// CheckpointState serializes the monitor for a step-boundary snapshot: the
// raw configuration mirror, the regime flag and the deferred-regime witness
// cache in its exact order. The incremental counters — violation counts and
// the not-good count — are deliberately NOT serialized: they are a pure
// function of (raw, current adjacency) and are rebuilt on
// restore, which both shrinks snapshots and makes a round-trip a
// cross-check of the incremental maintenance.
func (m *GoodMonitor) CheckpointState() []byte {
	var e snapshot.Enc
	e.IntsFunc(len(m.raw), func(v int) int { return int(m.raw[v]) })
	e.Bool(m.deferred)
	e.Ints(m.witnesses)
	return e.Bytes()
}

// RestoreState restores a CheckpointState payload into a freshly constructed
// monitor for the same algorithm and (restored) graph, whose counters are
// still all zero. An incremental-regime monitor rebuilds its counters from
// the raw mirror against the current adjacency.
func (m *GoodMonitor) RestoreState(data []byte) error {
	d := snapshot.NewDec(data)
	bad := -1 // first node whose saved state is out of range
	n := d.IntsFunc(func(v, q int) {
		if v < len(m.raw) && q >= 0 && q < len(m.posOf) {
			m.raw[v] = sa.State(q)
		} else if bad < 0 {
			bad = v
		}
	})
	deferred := d.Bool()
	witnesses := d.Ints()
	if err := d.Done(); err != nil {
		return err
	}
	if n != len(m.raw) {
		return fmt.Errorf("core: monitor snapshot for %d nodes restored into %d", n, len(m.raw))
	}
	if bad >= 0 {
		return fmt.Errorf("core: monitor snapshot state of node %d out of range [0,%d)", bad, len(m.posOf))
	}
	for _, w := range witnesses {
		if w < 0 || w >= len(m.raw) {
			return fmt.Errorf("core: monitor snapshot witness %d out of range [0,%d)", w, len(m.raw))
		}
	}
	m.deferred = deferred
	m.witnesses = witnesses
	if !m.deferred {
		m.recount()
	}
	return nil
}
