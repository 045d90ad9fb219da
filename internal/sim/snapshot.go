package sim

import (
	"fmt"
	"io"
	"slices"

	"thinunison/internal/frontier"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/snapshot"
)

// This file is the engine checkpoint: SaveState serializes the full run
// state at a step boundary and Restore rebuilds an engine in a fresh process
// that continues the run byte-identically — run K steps, snapshot, restore,
// run K more, and the trajectory (configurations, rounds, churn, metrics,
// rng streams) matches an uninterrupted 2K-step run exactly, in every
// execution mode (dense/frontier/word, with or without churn).
// TestRestoreDifferential enforces the contract over the whole mode matrix.
//
// Every rng the trajectory depends on and a checkpoint must carry — the
// engine's coin stream, the churn stream, a seeded scheduler's stream — is a
// randx.Source, so a checkpoint stores each generator's state (607 words and
// two indices) and restore sets it: the cost does not grow with the number
// of draws since the seed. Derived state that is a pure function of the
// serialized state (self-words, the goodness plane, signal scratch, the
// round tracker's count of missing nodes) is rebuilt rather than stored.
//
// A checkpoint is read back from disk, so Restore accepts only a state the
// run could have reached: each layer's decoder checks its fields against
// the primary state (node count, step, configuration), and FuzzRestore
// holds every accepted encoding to a canonical re-save and a clean
// continuation.

// engineSection is the section name of the engine's own state inside the
// snapshot container; caller extras must use different names.
const engineSection = "engine"

// RestoreOptions carries the pieces of an engine that cannot be serialized
// and must be re-supplied at restore time.
type RestoreOptions struct {
	// Scheduler must be constructed exactly as the checkpointed engine's
	// scheduler was (same kind, same parameters, same seed). Stateless
	// schedulers (Synchronous, RoundRobin, Laggard, Scripted) need nothing
	// more; stateful ones implement sched.Checkpointer, as RandomSubset and
	// Permuted do, and are rewound to their checkpointed stream position.
	// nil selects the synchronous scheduler, matching New.
	Scheduler sched.Scheduler

	// Metrics, when non-nil, receives the engine's counters; the saved
	// snapshot is accumulated into it, so a zero-valued set reproduces the
	// checkpointed counts exactly. nil allocates a private set, like New.
	Metrics *obs.Metrics

	// Trace attaches a step tracer, exactly as Options.Trace. The ring
	// content of the original tracer is not part of the checkpoint.
	Trace *obs.Tracer
}

// SaveState writes a restorable checkpoint of the engine to w, plus any
// caller-provided extra sections (e.g. campaign.RunMeta's "runmeta"
// section). It must be called between steps, on the goroutine
// driving the engine — the same discipline as SetState — so the staged
// scratch is empty and every rng stream sits at a step boundary.
func (e *Engine) SaveState(w io.Writer, extras ...snapshot.Section) error {
	var enc snapshot.Enc

	// Identity and position.
	n := e.g.N()
	enc.Int(n)
	enc.Int(e.g.M())
	enc.Int(e.alg.NumStates())
	enc.Int(e.step)

	// Topology: the current CSR arrays (the graph may have churned away
	// from whatever the caller originally built).
	offsets, neighbors := e.g.CSR()
	enc.Ints(offsets)
	enc.Ints(neighbors)

	// Configuration and the rng stream with its untallied draws.
	enc.IntsFunc(n, func(i int) int { return int(e.cfg[i]) })
	enc.U64s(e.src.State())
	enc.U64(e.coin.Pending())
	enc.Ints(e.faultBuf)

	// Round tracking.
	enc.Blob(e.tracker.CheckpointState())

	// Mode flags. A word engine saves no goodness plane: Step reads the
	// plane only after refreshing every bit that may be stale (all n when
	// dense, the whole frontier when sparse), and every other bit is what
	// New computes from the configuration.
	enc.Bool(e.fr != nil)
	enc.Bool(e.wr != nil)
	enc.Bool(e.churn != nil)

	if e.fr != nil {
		enc.Ints(e.fr.set.AppendTo(nil))
	}
	if e.churn != nil {
		if err := encodeChurn(&enc, e.churn); err != nil {
			return err
		}
	}

	// Scheduler stream, when the scheduler is stateful.
	if cp, ok := e.sched.(sched.Checkpointer); ok {
		state, err := cp.CheckpointState()
		if err != nil {
			return fmt.Errorf("sim: scheduler checkpoint: %w", err)
		}
		enc.Bool(true)
		enc.Blob(state)
	} else {
		enc.Bool(false)
	}

	words := e.Metrics().Snapshot().Words()
	enc.U64s(words[:])

	sections := append([]snapshot.Section{{Name: engineSection, Data: enc.Bytes()}}, extras...)
	return snapshot.Write(w, sections)
}

// Restore reads a checkpoint written by SaveState and rebuilds the engine:
// same algorithm, same topology, same configuration, every rng stream set to
// its saved state. The returned extras map holds the caller sections passed
// to SaveState (the engine's own section removed). Observers are not part
// of the checkpoint: rebuild them from the restored configuration — e.g.
// core.NewGoodMonitor(alg, e.Graph(), e.Config()) — and register them via
// Observe before stepping.
//
// Restore is ReadCheckpoint followed by Checkpoint.Restore; the engine is
// the checkpoint's only one, so it may mutate its graph (ApplyDelta). A
// caller building several engines from one checkpoint makes the two calls
// itself and reads and checks the container once.
//
// Restore rejects a CRC-valid snapshot that no run reaches, among others:
// a one-way or out-of-range adjacency; a fault buffer, scheduler
// permutation or gap vector that is not what the saved step implies; a
// round tracker with more rounds than steps; a frontier member list that
// is unsorted or repeats a node; a frontier that omits a node whose
// restored signal does not make it a settled self-loop; churn counters
// that are not what the spec and the step imply; and churn victims that are
// not the crashed nodes, each once.
func Restore(r io.Reader, alg sa.Algorithm, opts RestoreOptions) (*Engine, map[string][]byte, error) {
	ck, extras, err := ReadCheckpoint(r)
	if err != nil {
		return nil, nil, err
	}
	e, err := ck.Restore(alg, opts)
	if err != nil {
		return nil, nil, err
	}
	return e, extras, nil
}

// Checkpoint is an engine checkpoint decoded once, from which Restore
// builds any number of engines. The engines share its graph unless it has
// churn, and only read its other fields.
type Checkpoint struct {
	g           *graph.Graph
	numStates   int
	step        int
	cfg         sa.Config
	coinState   []uint64
	coinPending uint64
	faultBuf    []int
	tracker     []byte
	frontier    bool
	word        bool
	frMembers   []int
	churn       *churnCheckpoint // nil without churn
	hasSched    bool
	sched       []byte
	metrics     [obs.SnapshotWords]uint64
}

// ReadCheckpoint reads a checkpoint written by SaveState and runs every
// check that depends on neither the algorithm nor the scheduler: the CSR
// topology (graph.FromCSR) and its edge count, the configuration's length,
// the fault buffer (randx.CheckPerm), each field's encoding and, without
// churn, connectivity. The extras map is Restore's.
func ReadCheckpoint(r io.Reader) (*Checkpoint, map[string][]byte, error) {
	sections, err := snapshot.Read(r)
	if err != nil {
		return nil, nil, err
	}
	data, ok := sections[engineSection]
	if !ok {
		return nil, nil, fmt.Errorf("sim: snapshot has no %q section", engineSection)
	}
	d := snapshot.NewDec(data)
	ck := &Checkpoint{}

	n := d.Int()
	m := d.Int()
	ck.numStates = d.Int()
	ck.step = d.Int()
	offsets := d.Ints()
	neighbors := d.Ints()
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("sim: snapshot header: %w", err)
	}
	if ck.g, err = graph.FromCSR(n, offsets, neighbors); err != nil {
		return nil, nil, fmt.Errorf("sim: snapshot graph: %w", err)
	}
	if ck.g.M() != m {
		return nil, nil, fmt.Errorf("sim: snapshot graph has %d edges, header says %d", ck.g.M(), m)
	}

	ck.cfg = make(sa.Config, n)
	got := d.IntsFunc(func(i, v int) {
		if i < n {
			ck.cfg[i] = sa.State(v)
		}
	})
	if got != n && d.Err() == nil {
		return nil, nil, fmt.Errorf("sim: snapshot configuration has %d states for %d nodes", got, n)
	}
	ck.coinState = d.U64s()
	ck.coinPending = d.U64()
	ck.faultBuf = d.Ints()
	ck.tracker = d.Blob()

	ck.frontier = d.Bool()
	ck.word = d.Bool()
	hasChurn := d.Bool()
	if ck.frontier {
		ck.frMembers = d.Ints()
	}
	if hasChurn {
		if ck.churn, err = decodeChurn(d); err != nil {
			return nil, nil, err
		}
	}
	if ck.hasSched = d.Bool(); ck.hasSched {
		ck.sched = d.Blob()
	}
	mwords := d.U64s()
	if d.Err() == nil && len(mwords) != obs.SnapshotWords {
		return nil, nil, fmt.Errorf("sim: snapshot has %d metric words, want %d", len(mwords), obs.SnapshotWords)
	}
	if err := d.Done(); err != nil {
		return nil, nil, fmt.Errorf("sim: snapshot engine section: %w", err)
	}
	ck.metrics = [obs.SnapshotWords]uint64(mwords)

	if err := randx.CheckPerm(ck.faultBuf, n); err != nil {
		return nil, nil, fmt.Errorf("sim: snapshot fault buffer: %w", err)
	}
	// A churn checkpoint taken while crash victims are down is
	// legitimately disconnected; Restore checks its alive subgraph.
	if ck.churn == nil && !ck.g.Connected() {
		return nil, nil, fmt.Errorf("sim: snapshot graph: %w", graph.ErrDisconnected)
	}
	delete(sections, engineSection)
	return ck, sections, nil
}

// Restore builds an engine from the checkpoint and runs the checks that
// depend on alg and opts.Scheduler: the state count, the mode
// capabilities, the rng state, the round tracker, the frontier, the churn
// counters and victims, and the scheduler stream.
//
// Without churn, every engine of one checkpoint shares its graph, so none
// may mutate it (ApplyDelta); with churn, each engine gets its own copy of
// the CSR, which its churn rewrites in place. Restore only reads the
// checkpoint, so several goroutines may call it at once.
func (ck *Checkpoint) Restore(alg sa.Algorithm, opts RestoreOptions) (*Engine, error) {
	if ck.numStates != alg.NumStates() {
		return nil, fmt.Errorf("sim: snapshot has %d states but algorithm has %d", ck.numStates, alg.NumStates())
	}
	g := ck.g
	var spec *ChurnSpec
	if ck.churn != nil {
		g = g.Clone()
		spec = &ck.churn.spec
	}
	// The seed is irrelevant: the saved generator state replaces the
	// stream below, and the configuration is given.
	e, err := New(g, alg, Options{
		Initial:      ck.cfg,
		Scheduler:    opts.Scheduler,
		Frontier:     ck.frontier,
		WordParallel: ck.word,
		Metrics:      opts.Metrics,
		Trace:        opts.Trace,
		Churn:        spec,
		restoring:    true,
	})
	if err != nil {
		return nil, err
	}

	// Mode capabilities must have survived: a snapshot of a frontier (or
	// word) run cannot continue on an algorithm lacking the capability.
	if ck.frontier && e.fr == nil {
		return nil, fmt.Errorf("sim: snapshot is frontier-sparse but algorithm lacks sa.SelfLooper")
	}
	if ck.word && e.wr == nil {
		return nil, fmt.Errorf("sim: snapshot is word-parallel but algorithm offers no kernel")
	}

	if err := e.src.SetState(ck.coinState); err != nil {
		return nil, fmt.Errorf("sim: snapshot rng: %w", err)
	}
	e.coin.SetPending(ck.coinPending)
	e.step = ck.step
	// InjectFaults shuffles the buffer in place.
	e.faultBuf = slices.Clone(ck.faultBuf)

	n := g.N()
	tracker, err := sched.RestoreRoundTracker(n, ck.step, ck.tracker)
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot round tracker: %w", err)
	}
	e.tracker = tracker

	if e.fr != nil {
		if err := e.restoreFrontier(ck.frMembers); err != nil {
			return nil, err
		}
	}
	if ck.churn != nil {
		if err := ck.churn.restoreInto(e.churn, ck.step); err != nil {
			return nil, err
		}
		// A snapshot taken while churn crash victims are down is
		// legitimately disconnected — the victims sit isolated in the CSR
		// until revival, and the KeepConnected guard only ever protected the
		// alive subgraph — so only the alive nodes must be connected.
		if !e.churn.delta.Connected() {
			return nil, fmt.Errorf("sim: snapshot graph: %w", graph.ErrDisconnected)
		}
	}
	if ck.hasSched {
		cp, ok := e.sched.(sched.Checkpointer)
		if !ok {
			return nil, fmt.Errorf("sim: snapshot has scheduler state but scheduler %T is not a sched.Checkpointer", e.sched)
		}
		if err := cp.RestoreState(ck.sched, n, ck.step); err != nil {
			return nil, fmt.Errorf("sim: scheduler restore: %w", err)
		}
	}
	e.mx.Add(obs.SnapshotFromWords(ck.metrics))
	return e, nil
}

// restoreFrontier replaces the all-dirty frontier New built with the saved
// members, which must be strictly ascending node IDs. A run removes a node
// from the frontier only when its (state, signal) pair is certified a
// coin-free self-loop, and re-adds it whenever that signal may change, so
// every node outside a reachable frontier passes SelfLoop on the restored
// configuration; one pass over the non-members checks it.
func (e *Engine) restoreFrontier(members []int) error {
	n := e.g.N()
	if err := graph.CheckNodeSet(members, n); err != nil {
		return fmt.Errorf("sim: snapshot frontier: %w", err)
	}
	e.fr.set = frontier.New(n)
	for _, v := range members {
		e.fr.set.Add(v)
	}
	for v := 0; v < n; v++ {
		if e.fr.set.Contains(v) {
			continue
		}
		e.SignalOf(v, &e.sig)
		if !e.fr.looper.SelfLoop(e.cfg[v], e.sig) {
			return fmt.Errorf("sim: snapshot frontier omits node %d, which is not a settled self-loop", v)
		}
	}
	return nil
}

// churnCheckpoint is the decoded churn section: the spec plus the runtime's
// counters, stream state and crash bookkeeping.
type churnCheckpoint struct {
	spec    ChurnSpec
	events  int
	skipped int
	victims []int
	src     []uint64
	applied int
	crashed []graph.NodeID
	saved   [][]graph.NodeID
}

// encodeChurn serializes the churn driver: the spec (so restore needs no
// out-of-band copy), the stochastic stream's state, and the pending-revive /
// crash bookkeeping. The staged delta must be empty — checkpoints happen at
// step boundaries, after applyChurn committed everything due.
func encodeChurn(enc *snapshot.Enc, cr *churnRuntime) error {
	if cr.delta.Pending() != 0 {
		return fmt.Errorf("sim: cannot checkpoint with %d staged churn changes", cr.delta.Pending())
	}
	s := &cr.spec
	enc.Int(s.Period)
	enc.Int(s.Flips)
	enc.Int(s.Crashes)
	enc.Int(s.MaxEvents)
	enc.I64(s.Seed)
	enc.Bool(s.KeepConnected)
	enc.Int(s.MaxDiameterUpper)

	enc.Int(cr.events)
	enc.Int(cr.skipped)
	enc.Ints(cr.victims)
	enc.U64s(cr.src.State())

	crashed, saved := cr.delta.CheckpointCrashes()
	enc.Int(cr.delta.Applied())
	enc.Ints(crashed)
	enc.Int(len(saved))
	for _, adj := range saved {
		enc.Ints(adj)
	}
	return nil
}

func decodeChurn(d *snapshot.Dec) (*churnCheckpoint, error) {
	var c churnCheckpoint
	c.spec.Period = d.Int()
	c.spec.Flips = d.Int()
	c.spec.Crashes = d.Int()
	c.spec.MaxEvents = d.Int()
	c.spec.Seed = d.I64()
	c.spec.KeepConnected = d.Bool()
	c.spec.MaxDiameterUpper = d.Int()

	c.events = d.Int()
	c.skipped = d.Int()
	c.victims = d.Ints()
	c.src = d.U64s()

	c.applied = d.Int()
	c.crashed = d.Ints()
	nsaved := d.Int()
	if d.Err() == nil && (nsaved < 0 || nsaved > 1<<24) {
		return nil, fmt.Errorf("sim: snapshot churn saved-adjacency count %d out of range", nsaved)
	}
	for i := 0; i < nsaved && d.Err() == nil; i++ {
		c.saved = append(c.saved, d.Ints())
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("sim: snapshot churn section: %w", err)
	}
	return &c, nil
}

// restoreInto rewinds a freshly constructed churn runtime (built by New from
// the decoded spec) to the checkpointed counters and stream state. The event
// count is a function of the spec and the step: a run fires one event per
// period boundary in [1, step), capped one past MaxEvents.
func (c *churnCheckpoint) restoreInto(cr *churnRuntime, step int) error {
	if cr == nil {
		return fmt.Errorf("sim: snapshot has churn state but engine built no churn runtime")
	}
	s := &cr.spec
	events := 0
	if step > 0 {
		events = (step - 1) / s.Period
		if s.MaxEvents > 0 {
			events = min(events, s.MaxEvents+1)
		}
	}
	if c.events != events || c.skipped < 0 {
		return fmt.Errorf("sim: snapshot churn counters (%d events, %d skipped) after %d steps, want (%d, >= 0)",
			c.events, c.skipped, step, events)
	}
	cr.events = c.events
	cr.skipped = c.skipped
	cr.victims = append(cr.victims[:0], c.victims...)
	if err := cr.src.SetState(c.src); err != nil {
		return fmt.Errorf("sim: snapshot churn rng: %w", err)
	}
	if err := cr.delta.RestoreCrashes(c.crashed, c.saved, c.applied); err != nil {
		return fmt.Errorf("sim: snapshot churn crashes: %w", err)
	}
	// At a step boundary the victims are the crashed nodes, each once:
	// applyChurn records every crash it stages, and the next event revives
	// them all (Revive cannot fail for an in-range node) before it crashes
	// anew. c.crashed passed RestoreCrashes, so it is strictly ascending.
	if victims := slices.Sorted(slices.Values(c.victims)); !slices.Equal(victims, c.crashed) {
		return fmt.Errorf("sim: snapshot churn victims are not the crashed nodes, each once (%d victims, %d crashed)",
			len(c.victims), len(c.crashed))
	}
	return nil
}
