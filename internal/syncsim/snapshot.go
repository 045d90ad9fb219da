package syncsim

import (
	"fmt"
	"io"

	"thinunison/internal/frontier"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/randx"
	"thinunison/internal/shard"
	"thinunison/internal/snapshot"
)

// Checkpoint/restore for the synchronous generic engine. State types are
// arbitrary comparables the engine cannot introspect, so callers supply a
// codec pair: encode appends one state to the stream, decode reads one back.
// The pair must round-trip exactly (decode(encode(s)) == s) — the restore
// differential tests enforce it for the shipped programs.
//
// The contract matches internal/sim: save at a round boundary, restore in a
// fresh process with the same step function (and settled certifier, for
// frontier runs), and the continuation is byte-identical to the
// uninterrupted run at every parallelism.

const engineSection = "syncsim"

// StateEncoder appends one node state to the stream.
type StateEncoder[S comparable] func(*snapshot.Enc, S)

// StateDecoder reads one node state back; decoding errors surface through
// the Dec's sticky error.
type StateDecoder[S comparable] func(*snapshot.Dec) S

// RestoreOptions carries the non-serializable pieces a restore needs.
type RestoreOptions[S comparable] struct {
	// Step is the node program; it must be the program the snapshot was
	// taken under, or the continuation diverges.
	Step StepFunc[S]

	// Settled is the frontier certifier, required iff the snapshot was
	// taken from a frontier-sparse engine (EnableFrontier).
	Settled func(self S, sensed []S) bool
}

// SaveState writes a restorable checkpoint of the engine to w, plus any
// caller-provided extra sections. Call it between rounds, on the goroutine
// driving the engine.
func (e *Engine[S]) SaveState(w io.Writer, encode StateEncoder[S], extras ...snapshot.Section) error {
	var enc snapshot.Enc
	n := e.g.N()
	enc.Int(n)
	enc.Int(e.g.M())
	enc.Int(e.round)
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

	p := 0
	if e.par != nil {
		p = e.par.part.P()
	}
	enc.Int(p)
	enc.Bool(e.fr != nil)
	if e.par != nil {
		enc.Ints(e.par.part.Starts())
		enc.Int(e.par.churnAccum)
	}
	if e.fr != nil {
		enc.Ints(e.fr.set.AppendTo(nil))
	}
	words := e.mx.Snapshot().Words()
	enc.U64s(words[:])

	sections := append([]snapshot.Section{{Name: engineSection, Data: enc.Bytes()}}, extras...)
	return snapshot.Write(w, sections)
}

// Restore reads a checkpoint written by SaveState and rebuilds the engine
// around the supplied step function, setting the rng stream to its saved
// state. The returned extras map holds the caller sections.
func Restore[S comparable](r io.Reader, decode StateDecoder[S], opts RestoreOptions[S]) (*Engine[S], map[string][]byte, error) {
	if opts.Step == nil {
		return nil, nil, fmt.Errorf("syncsim: restore needs a step function")
	}
	sections, err := snapshot.Read(r)
	if err != nil {
		return nil, nil, err
	}
	data, ok := sections[engineSection]
	if !ok {
		return nil, nil, fmt.Errorf("syncsim: snapshot has no %q section", engineSection)
	}
	d := snapshot.NewDec(data)
	n := d.Int()
	m := d.Int()
	round := d.Int()
	seed := d.I64()
	offsets := d.Ints()
	neighbors := d.Ints()
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("syncsim: snapshot header: %w", err)
	}
	if n < 0 || n > 1<<40 {
		return nil, nil, fmt.Errorf("syncsim: snapshot node count %d out of range", n)
	}
	g, err := graph.FromCSR(n, offsets, neighbors)
	if err != nil {
		return nil, nil, fmt.Errorf("syncsim: snapshot graph: %w", err)
	}
	if g.M() != m {
		return nil, nil, fmt.Errorf("syncsim: snapshot graph has %d edges, header says %d", g.M(), m)
	}
	states := make([]S, n)
	for i := range states {
		states[i] = decode(d)
	}
	coinState := d.U64s()
	coinPending := d.U64()
	faultBuf := d.Ints()
	p := d.Int()
	hasFr := d.Bool()
	var starts []int
	churnAccum := 0
	if p >= 1 {
		starts = d.Ints()
		churnAccum = d.Int()
	}
	var frMembers []int
	if hasFr {
		frMembers = d.Ints()
	}
	mwords := d.U64s()
	if d.Err() == nil && len(mwords) != obs.SnapshotWords {
		return nil, nil, fmt.Errorf("syncsim: snapshot has %d metric words, want %d", len(mwords), obs.SnapshotWords)
	}
	if err := d.Done(); err != nil {
		return nil, nil, fmt.Errorf("syncsim: snapshot engine section: %w", err)
	}
	if hasFr && opts.Settled == nil {
		return nil, nil, fmt.Errorf("syncsim: snapshot is frontier-sparse but no settled certifier was supplied")
	}

	e, err := NewParallel(g, opts.Step, states, seed, p)
	if err != nil {
		return nil, nil, err
	}
	cleanup := true
	defer func() {
		if cleanup {
			e.Close()
		}
	}()
	if e.par != nil {
		part, err := shard.NewPartitionFromStarts(g, starts)
		if err != nil {
			return nil, nil, fmt.Errorf("syncsim: snapshot partition: %w", err)
		}
		if part.P() != e.par.part.P() {
			return nil, nil, fmt.Errorf("syncsim: snapshot partition has %d shards, engine built %d", part.P(), e.par.part.P())
		}
		e.par.part = part
		e.par.churnAccum = churnAccum
	}
	if hasFr {
		e.EnableFrontier(opts.Settled) // requires round == 0; set the cursor after
		if e.par != nil {
			e.fr.set = frontier.NewSharded(n, e.par.part.Starts(), e.par.part.ShardIndex())
		} else {
			e.fr.set = frontier.New(n)
		}
		for _, v := range frMembers {
			if v < 0 || v >= n {
				return nil, nil, fmt.Errorf("syncsim: snapshot frontier member %d out of range", v)
			}
			e.fr.set.Add(v)
		}
	}
	if err := e.src.SetState(coinState); err != nil {
		return nil, nil, fmt.Errorf("syncsim: snapshot rng: %w", err)
	}
	e.coin.SetPending(coinPending)
	if err := randx.CheckPerm(faultBuf, n); err != nil {
		return nil, nil, fmt.Errorf("syncsim: snapshot fault buffer: %w", err)
	}
	e.round = round
	e.faultBuf = faultBuf
	e.mx.Add(obs.SnapshotFromWords([obs.SnapshotWords]uint64(mwords)))

	delete(sections, engineSection)
	cleanup = false
	return e, sections, nil
}
