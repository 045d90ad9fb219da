package asyncsim

import (
	"fmt"
	"io"

	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/sched"
	"thinunison/internal/snapshot"
	"thinunison/internal/syncsim"
)

// Checkpoint/restore for the engine, mirroring the contract of internal/sim:
// save at a step boundary, restore with the same node program and a freshly
// constructed scheduler of the same recipe, and the continuation is
// byte-identical to the uninterrupted run at every p. Stateful schedulers
// must implement sched.Checkpointer (use the seeded constructors).
//
// State types are arbitrary comparables the engine cannot introspect, so
// callers supply a syncsim.StateEncoder/StateDecoder pair that must
// round-trip exactly (decode(encode(s)) == s). Per-node coin streams need
// nothing: they are reseeded per (step, node) from the run seed.

const engineSection = "asyncsim"

// RestoreOptions carries the non-serializable pieces a restore needs.
type RestoreOptions[S comparable] struct {
	// Step is the node program the snapshot was taken under.
	Step syncsim.StepFunc[S]

	// Scheduler must be constructed exactly as the checkpointed engine's
	// scheduler was; stateful schedulers are rewound via their saved
	// checkpoint payload. nil selects the synchronous scheduler.
	Scheduler sched.Scheduler
}

// SaveState writes a restorable checkpoint of the engine to w, plus any
// caller-provided extra sections. Call it between steps, on the goroutine
// driving the engine.
func (e *Engine[S]) SaveState(w io.Writer, encode syncsim.StateEncoder[S], extras ...snapshot.Section) error {
	var enc snapshot.Enc
	n := e.g.N()
	enc.Int(n)
	enc.Int(e.g.M())
	enc.Int(e.stepNum)
	enc.I64(e.seed)
	offsets, neighbors := e.g.CSR()
	enc.Ints(offsets)
	enc.Ints(neighbors)
	for _, s := range e.states {
		encode(&enc, s)
	}
	enc.U64s(e.src.State())
	enc.U64(e.coin.Pending())
	enc.Ints(e.faultBuf)
	enc.Blob(e.tracker.CheckpointState())
	enc.Bool(e.nodeSeq != nil)
	if cp, ok := e.sch.(sched.Checkpointer); ok {
		state, err := cp.CheckpointState()
		if err != nil {
			return fmt.Errorf("asyncsim: scheduler checkpoint: %w", err)
		}
		enc.Bool(true)
		enc.Blob(state)
	} else {
		enc.Bool(false)
	}
	words := e.mx.Snapshot().Words()
	enc.U64s(words[:])

	sections := append([]snapshot.Section{{Name: engineSection, Data: enc.Bytes()}}, extras...)
	return snapshot.Write(w, sections)
}

// Restore reads a checkpoint written by SaveState and rebuilds the engine:
// same topology, configuration and coin source, rng and scheduler streams
// set to their saved states. The returned extras map holds the caller
// sections.
func Restore[S comparable](r io.Reader, decode syncsim.StateDecoder[S], opts RestoreOptions[S]) (*Engine[S], map[string][]byte, error) {
	if opts.Step == nil {
		return nil, nil, fmt.Errorf("asyncsim: restore needs a step function")
	}
	sections, err := snapshot.Read(r)
	if err != nil {
		return nil, nil, err
	}
	data, ok := sections[engineSection]
	if !ok {
		return nil, nil, fmt.Errorf("asyncsim: snapshot has no %q section", engineSection)
	}
	d := snapshot.NewDec(data)
	n := d.Int()
	m := d.Int()
	stepNum := d.Int()
	seed := d.I64()
	offsets := d.Ints()
	neighbors := d.Ints()
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("asyncsim: snapshot header: %w", err)
	}
	if n < 0 || n > 1<<40 {
		return nil, nil, fmt.Errorf("asyncsim: snapshot node count %d out of range", n)
	}
	g, err := graph.FromCSR(n, offsets, neighbors)
	if err != nil {
		return nil, nil, fmt.Errorf("asyncsim: snapshot graph: %w", err)
	}
	if g.M() != m {
		return nil, nil, fmt.Errorf("asyncsim: snapshot graph has %d edges, header says %d", g.M(), m)
	}
	states := make([]S, n)
	for i := range states {
		states[i] = decode(d)
	}
	coinState := d.U64s()
	coinPending := d.U64()
	faultBuf := d.Ints()
	trackerState := d.Blob()
	nodeCoins := d.Bool()
	hasSched := d.Bool()
	var schedState []byte
	if hasSched {
		schedState = d.Blob()
	}
	mwords := d.U64s()
	if d.Err() == nil && len(mwords) != obs.SnapshotWords {
		return nil, nil, fmt.Errorf("asyncsim: snapshot has %d metric words, want %d", len(mwords), obs.SnapshotWords)
	}
	if err := d.Done(); err != nil {
		return nil, nil, fmt.Errorf("asyncsim: snapshot engine section: %w", err)
	}

	p := 0
	if nodeCoins {
		p = 1
	}
	e, err := NewParallel(g, opts.Step, states, opts.Scheduler, seed, p)
	if err != nil {
		return nil, nil, err
	}
	if err := e.src.SetState(coinState); err != nil {
		return nil, nil, fmt.Errorf("asyncsim: snapshot rng: %w", err)
	}
	e.coin.SetPending(coinPending)
	if err := randx.CheckPerm(faultBuf, n); err != nil {
		return nil, nil, fmt.Errorf("asyncsim: snapshot fault buffer: %w", err)
	}
	e.stepNum = stepNum
	e.faultBuf = faultBuf
	tracker, err := sched.RestoreRoundTracker(n, trackerState)
	if err != nil {
		return nil, nil, fmt.Errorf("asyncsim: snapshot round tracker: %w", err)
	}
	e.tracker = tracker
	if hasSched {
		cp, ok := e.sch.(sched.Checkpointer)
		if !ok {
			return nil, nil, fmt.Errorf("asyncsim: snapshot has scheduler state but scheduler %T is not a sched.Checkpointer", e.sch)
		}
		if err := cp.RestoreState(schedState, n); err != nil {
			return nil, nil, fmt.Errorf("asyncsim: scheduler restore: %w", err)
		}
	}
	e.mx.Add(obs.SnapshotFromWords([obs.SnapshotWords]uint64(mwords)))

	delete(sections, engineSection)
	return e, sections, nil
}
