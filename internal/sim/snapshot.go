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
	// more; stateful ones must implement sched.Checkpointer — use the
	// seeded constructors (sched.NewRandomSubsetSeeded, NewPermutedSeeded)
	// — and are rewound to their checkpointed stream position. nil selects
	// the synchronous scheduler, matching New.
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
// Restore rejects a CRC-valid snapshot that no run reaches, among others:
// a one-way or out-of-range adjacency; a fault buffer, scheduler
// permutation or gap vector that is not what the saved step implies; a
// round tracker with more rounds than steps; a frontier member list that
// is unsorted or repeats a node; a frontier that omits a node whose
// restored signal does not make it a settled self-loop; churn counters
// that are not what the spec and the step imply; and churn victims that are
// not the crashed nodes, each once.
func Restore(r io.Reader, alg sa.Algorithm, opts RestoreOptions) (*Engine, map[string][]byte, error) {
	sections, err := snapshot.Read(r)
	if err != nil {
		return nil, nil, err
	}
	data, ok := sections[engineSection]
	if !ok {
		return nil, nil, fmt.Errorf("sim: snapshot has no %q section", engineSection)
	}
	d := snapshot.NewDec(data)

	n := d.Int()
	m := d.Int()
	numStates := d.Int()
	step := d.Int()
	offsets := d.Ints()
	neighbors := d.Ints()
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("sim: snapshot header: %w", err)
	}
	if numStates != alg.NumStates() {
		return nil, nil, fmt.Errorf("sim: snapshot has %d states but algorithm has %d", numStates, alg.NumStates())
	}
	g, err := graph.FromCSR(n, offsets, neighbors)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: snapshot graph: %w", err)
	}
	if g.M() != m {
		return nil, nil, fmt.Errorf("sim: snapshot graph has %d edges, header says %d", g.M(), m)
	}

	cfg := make(sa.Config, n)
	got := d.IntsFunc(func(i, v int) {
		if i < n {
			cfg[i] = sa.State(v)
		}
	})
	if got != n && d.Err() == nil {
		return nil, nil, fmt.Errorf("sim: snapshot configuration has %d states for %d nodes", got, n)
	}
	coinState := d.U64s()
	coinPending := d.U64()
	faultBuf := d.Ints()
	trackerState := d.Blob()

	hasFr := d.Bool()
	hasWord := d.Bool()
	hasChurn := d.Bool()

	var frMembers []int
	if hasFr {
		frMembers = d.Ints()
	}
	var churnState *churnCheckpoint
	if hasChurn {
		churnState, err = decodeChurn(d)
		if err != nil {
			return nil, nil, err
		}
	}
	hasSched := d.Bool()
	var schedState []byte
	if hasSched {
		schedState = d.Blob()
	}
	mwords := d.U64s()
	if d.Err() == nil && len(mwords) != obs.SnapshotWords {
		return nil, nil, fmt.Errorf("sim: snapshot has %d metric words, want %d", len(mwords), obs.SnapshotWords)
	}
	if err := d.Done(); err != nil {
		return nil, nil, fmt.Errorf("sim: snapshot engine section: %w", err)
	}

	var spec *ChurnSpec
	if churnState != nil {
		spec = &churnState.spec
	}
	// The seed is irrelevant: the saved generator state replaces the
	// stream below, and the configuration is given.
	e, err := New(g, alg, Options{
		Initial:      cfg,
		Scheduler:    opts.Scheduler,
		Frontier:     hasFr,
		WordParallel: hasWord,
		Metrics:      opts.Metrics,
		Trace:        opts.Trace,
		Churn:        spec,
		restoring:    spec != nil,
	})
	if err != nil {
		return nil, nil, err
	}

	// Mode capabilities must have survived: a snapshot of a frontier (or
	// word) run cannot continue on an algorithm lacking the capability.
	if hasFr && e.fr == nil {
		return nil, nil, fmt.Errorf("sim: snapshot is frontier-sparse but algorithm lacks sa.SelfLooper")
	}
	if hasWord && e.wr == nil {
		return nil, nil, fmt.Errorf("sim: snapshot is word-parallel but algorithm offers no kernel")
	}

	if err := e.src.SetState(coinState); err != nil {
		return nil, nil, fmt.Errorf("sim: snapshot rng: %w", err)
	}
	e.coin.SetPending(coinPending)
	if err := randx.CheckPerm(faultBuf, n); err != nil {
		return nil, nil, fmt.Errorf("sim: snapshot fault buffer: %w", err)
	}
	e.step = step
	e.faultBuf = faultBuf

	tracker, err := sched.RestoreRoundTracker(n, step, trackerState)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: snapshot round tracker: %w", err)
	}
	e.tracker = tracker

	if e.fr != nil {
		if err := e.restoreFrontier(frMembers); err != nil {
			return nil, nil, err
		}
	}
	if churnState != nil {
		if err := churnState.restoreInto(e.churn, step); err != nil {
			return nil, nil, err
		}
		// A snapshot taken while churn crash victims are down is
		// legitimately disconnected — the victims sit isolated in the CSR
		// until revival, and the KeepConnected guard only ever protected the
		// alive subgraph — so New skipped validation, and only the alive
		// nodes must be connected.
		if !e.churn.delta.Connected() {
			return nil, nil, fmt.Errorf("sim: snapshot graph: %w", graph.ErrDisconnected)
		}
	}
	if hasSched {
		cp, ok := e.sched.(sched.Checkpointer)
		if !ok {
			return nil, nil, fmt.Errorf("sim: snapshot has scheduler state but scheduler %T is not a sched.Checkpointer", e.sched)
		}
		if err := cp.RestoreState(schedState, n, step); err != nil {
			return nil, nil, fmt.Errorf("sim: scheduler restore: %w", err)
		}
	}
	e.mx.Add(obs.SnapshotFromWords([obs.SnapshotWords]uint64(mwords)))

	delete(sections, engineSection)
	return e, sections, nil
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
