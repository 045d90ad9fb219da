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
// run K more, and the trajectory (configurations, rounds, metrics, rng
// streams) matches an uninterrupted 2K-step run exactly, in every execution
// mode (dense, frontier, word). TestRestoreDifferential enforces the
// contract over the whole mode matrix. An engine with churn
// (Options.Churn) is not checkpointable: no program saves one, so SaveState
// refuses it rather than carry a codec that nothing reaches.
//
// Every rng the trajectory depends on and a checkpoint must carry — the
// engine's coin stream and a seeded scheduler's stream — is a randx.Source,
// so a checkpoint stores each generator's state (607 words and two indices)
// and restore sets it: the cost does not grow with the number of draws
// since the seed. Derived state that is a pure function of the serialized
// state (self-words, the goodness plane, signal scratch, the round
// tracker's count of missing nodes) is rebuilt rather than stored.
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
//
// An engine built with Options.Churn is refused with an error before a
// byte is written.
//
// The engine encodes its topology, two thirds of a snapshot's bytes, on
// its first save and keeps a copy of those bytes, which later saves append
// verbatim until ApplyDelta commits a change to the graph; the graph must
// change through ApplyDelta only, as internal/bio's rewiring does. An
// engine from Restore starts without the copy. The section's buffer is
// sized from the previous save's.
func (e *Engine) SaveState(w io.Writer, extras ...snapshot.Section) error {
	if e.churn != nil {
		return fmt.Errorf("sim: cannot checkpoint an engine with churn (Options.Churn)")
	}
	var enc snapshot.Enc
	enc.Grow(e.saveSize + e.saveSize/8)

	// Identity and position.
	n := e.g.N()
	enc.Int(n)
	enc.Int(e.g.M())
	enc.Int(e.alg.NumStates())
	enc.Int(e.step)

	// Topology: the current CSR arrays (ApplyDelta may have rewired the
	// graph the caller built).
	if e.topoEnc == nil {
		start := len(enc.Bytes())
		offsets, neighbors := e.g.CSR()
		enc.Ints(offsets)
		enc.Ints(neighbors)
		e.topoEnc = slices.Clone(enc.Bytes()[start:])
	} else {
		enc.Raw(e.topoEnc)
	}

	// Configuration and the rng stream with its untallied draws.
	enc.Ints(e.cfg)
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
	enc.Bool(false) // churn flag, never set: kept so that version 10 snapshots keep their bytes

	if e.fr != nil {
		enc.Ints(e.fr.set.AppendTo(nil))
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
	e.saveSize = len(enc.Bytes())

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
// a one-way or out-of-range adjacency; a disconnected graph; a fault
// buffer, scheduler permutation or gap vector that is not what the saved
// step implies; a round tracker with more rounds than steps; a frontier
// member list that is unsorted or repeats a node; a frontier that omits a
// node whose restored signal does not make it a settled self-loop; and a
// set churn flag. It also rejects a scheduler that does not match the
// snapshot's: a scheduler stream without a sched.Checkpointer to take it,
// or a sched.Checkpointer without a stream to rewind it to.
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
// builds any number of engines. The engines share its graph, which none
// may mutate, and only read its other fields.
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
	hasSched    bool
	sched       []byte
	metrics     [obs.SnapshotWords]uint64
}

// ReadCheckpoint reads a checkpoint written by SaveState and runs every
// check that depends on neither the algorithm nor the scheduler: the CSR
// topology (graph.FromCSR), its edge count and connectivity, the
// configuration's length, the fault buffer (randx.CheckPerm), each field's
// encoding and the churn flag, which no checkpoint sets. The extras map is
// Restore's.
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

	ck.cfg = d.Ints()
	if len(ck.cfg) != n && d.Err() == nil {
		return nil, nil, fmt.Errorf("sim: snapshot configuration has %d states for %d nodes", len(ck.cfg), n)
	}
	ck.coinState = d.U64s()
	ck.coinPending = d.U64()
	ck.faultBuf = d.Ints()
	ck.tracker = d.Blob()

	ck.frontier = d.Bool()
	ck.word = d.Bool()
	if d.Bool() {
		return nil, nil, fmt.Errorf("sim: snapshot has the churn flag set, which SaveState never writes")
	}
	if ck.frontier {
		ck.frMembers = d.Ints()
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
	if !ck.g.Connected() {
		return nil, nil, fmt.Errorf("sim: snapshot graph: %w", graph.ErrDisconnected)
	}
	delete(sections, engineSection)
	return ck, sections, nil
}

// Restore builds an engine from the checkpoint and runs the checks that
// depend on alg and opts.Scheduler: the state count, the mode
// capabilities, the rng state, the round tracker, the frontier, and the
// scheduler stream, which the snapshot holds exactly when the scheduler is
// a sched.Checkpointer.
//
// Every engine of one checkpoint shares its graph, so none may mutate it
// (ApplyDelta). Restore only reads the checkpoint, so several goroutines
// may call it at once.
func (ck *Checkpoint) Restore(alg sa.Algorithm, opts RestoreOptions) (*Engine, error) {
	if ck.numStates != alg.NumStates() {
		return nil, fmt.Errorf("sim: snapshot has %d states but algorithm has %d", ck.numStates, alg.NumStates())
	}
	// The seed is irrelevant: the saved generator state replaces the
	// stream below, and the configuration is given.
	e, err := New(ck.g, alg, Options{
		Initial:      ck.cfg,
		Scheduler:    opts.Scheduler,
		Frontier:     ck.frontier,
		WordParallel: ck.word,
		Metrics:      opts.Metrics,
		Trace:        opts.Trace,
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

	n := ck.g.N()
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
	// SaveState writes a stream exactly for a sched.Checkpointer, so a
	// stateful scheduler without one would start fresh mid-run.
	cp, stateful := e.sched.(sched.Checkpointer)
	switch {
	case ck.hasSched && !stateful:
		return nil, fmt.Errorf("sim: snapshot has scheduler state but scheduler %T is not a sched.Checkpointer", e.sched)
	case !ck.hasSched && stateful:
		return nil, fmt.Errorf("sim: snapshot has no scheduler state but scheduler %T is a sched.Checkpointer", e.sched)
	case stateful:
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
