package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Sample is one per-step snapshot captured by a Tracer. Cheap fields
// (step, round, activated, evaluated, changes, frontier) are filled by
// the engine on every traced step; enriched fields (violations, clock
// spread) are filled by an optional Enrich callback only on sink-sampled
// steps, because computing them can cost O(n). A value of -1 means
// "not sampled here".
type Sample struct {
	// Run tags the owning run (campaign scenario index) so interleaved
	// sink streams stay attributable. Copied from Tracer.Tag.
	Run int64 `json:"run,omitempty"`
	// Step is the engine step count after the step completed.
	Step int64 `json:"step"`
	// Round is the completed asynchronous round count.
	Round int64 `json:"round"`
	// Activated is the number of nodes the scheduler selected.
	Activated int64 `json:"activated"`
	// Evaluated is the number of guard evaluations performed
	// (< Activated when frontier-sparse execution skipped settled
	// self-loopers).
	Evaluated int64 `json:"evaluated"`
	// Changes is the number of state writes that changed a value.
	Changes int64 `json:"changes"`
	// Frontier is the frontier occupancy, or -1 in dense modes.
	Frontier int64 `json:"frontier"`
	// Violations is the monitor's bad-node count, or -1 if not sampled.
	Violations int64 `json:"violations"`
	// ClockSpread is the AlgAU clock-spread arc, or -1 if not sampled.
	ClockSpread int64 `json:"clock_spread"`
}

// Sink receives sampled steps. An engine calls its sink from the goroutine
// driving it, so a sink needs no internal locking unless shared across
// concurrently running engines (JSONL locks for exactly that reason: one
// campaign -trace-out file is shared by all workers).
type Sink interface {
	Emit(Sample) error
}

// JSONL is a Sink writing one JSON object per line. Safe for concurrent
// use by multiple engines sharing one writer.
type JSONL struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc *json.Encoder
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	buf := bufio.NewWriter(w)
	return &JSONL{buf: buf, enc: json.NewEncoder(buf)}
}

// Emit writes s as one JSONL line.
func (j *JSONL) Emit(s Sample) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.enc.Encode(s); err != nil {
		return fmt.Errorf("obs: jsonl emit: %w", err)
	}
	return nil
}

// Flush drains the internal buffer to the underlying writer.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.buf.Flush(); err != nil {
		return fmt.Errorf("obs: jsonl flush: %w", err)
	}
	return nil
}

// Mem is an in-memory Sink for tests.
type Mem struct {
	mu      sync.Mutex
	Samples []Sample
}

// Emit appends s.
func (m *Mem) Emit(s Sample) error {
	m.mu.Lock()
	m.Samples = append(m.Samples, s)
	m.mu.Unlock()
	return nil
}

// Tracer is the sampled step tracer and flight recorder. Every observed
// step is written into a fixed-size ring (zero allocations); steps whose
// number is a multiple of Every are additionally enriched and emitted to
// the Sink. Sampling is keyed by the deterministic step number only, so
// a traced run executes the exact same trajectory as an untraced one.
type Tracer struct {
	ring  []Sample
	total uint64 // samples observed; ring slot = total % len(ring)
	every int64
	sink  Sink

	// Tag is stamped into every sample's Run field.
	Tag int64
	// Enrich, when set, fills expensive fields (violations, clock
	// spread) and runs only on sink-sampled steps. It takes and returns
	// the sample by value: a pointer signature would make every observed
	// sample escape to the heap and cost the hot path 1 alloc/step.
	Enrich func(Sample) Sample

	// dumped arms Dump's first-write-wins gate: when two failure reasons
	// race to dump the same tracer (budget exhaustion on the driving
	// goroutine vs an oracle mismatch on a checker), exactly one dump — the
	// first — is written, so the flight file attributes the failure to one
	// reason instead of interleaving two snapshots of the same ring.
	dumped atomic.Bool

	// snapRef, when set via SetSnapshotRef, names the engine checkpoint
	// taken alongside the run; Dump stamps it into the header so a flight
	// recording is replayable (restore the snapshot, re-run the window).
	snapRef atomic.Pointer[string]
}

// DefaultRing is the flight-recorder depth used when callers pass
// ringSize <= 0.
const DefaultRing = 64

// NewTracer returns a tracer with the given ring depth and sink sampling
// interval. every <= 0 disables sink emission (ring-only flight
// recording); sink may be nil for the same effect.
func NewTracer(ringSize int, every int, sink Sink) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRing
	}
	return &Tracer{ring: make([]Sample, ringSize), every: int64(every), sink: sink}
}

// Observe records one step sample. The ring write is allocation-free;
// sink emission (and enrichment) happens only when s.Step is a multiple
// of the sampling interval.
func (t *Tracer) Observe(s Sample) error {
	s.Run = t.Tag
	var err error
	if t.sink != nil && t.every > 0 && s.Step%t.every == 0 {
		if t.Enrich != nil {
			s = t.Enrich(s)
		}
		err = t.sink.Emit(s)
	}
	t.ring[t.total%uint64(len(t.ring))] = s
	t.total++
	return err
}

// Len returns the number of samples currently held in the ring.
func (t *Tracer) Len() int {
	if t.total < uint64(len(t.ring)) {
		return int(t.total)
	}
	return len(t.ring)
}

// Total returns the number of samples observed over the tracer's life.
func (t *Tracer) Total() uint64 { return t.total }

// Ring returns the retained samples, oldest first.
func (t *Tracer) Ring() []Sample {
	n := t.Len()
	out := make([]Sample, 0, n)
	start := t.total - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, t.ring[(start+i)%uint64(len(t.ring))])
	}
	return out
}

// SetSnapshotRef records the path (or other identifier) of an engine
// checkpoint associated with this run; Dump includes it in the flight
// header so the dumped window is replayable: restore the snapshot and
// re-run to the failing step. Safe for concurrent use with Dump.
func (t *Tracer) SetSnapshotRef(ref string) { t.snapRef.Store(&ref) }

// Dump writes the flight recording — a reason header followed by the
// retained samples as JSONL, oldest first — to w. Called on differential
// divergence, budget exhaustion, or monitor-oracle mismatch to turn
// "diverged at step k" into an actionable trace.
//
// Dump is first-write-wins: when two failure reasons race (e.g. budget
// exhaustion vs oracle mismatch reporting the same doomed run), only the
// first call writes; later calls are no-ops returning nil. One tracer
// belongs to one run, so one flight recording per run is the useful
// semantics — two interleaved dumps of the same ring would attribute one
// failure to two reasons.
func (t *Tracer) Dump(w io.Writer, reason string) error {
	if !t.dumped.CompareAndSwap(false, true) {
		return nil
	}
	// The whole dump is staged and written in one Write call, so dumps
	// from concurrent runs sharing a LockedWriter never interleave.
	var buf bytes.Buffer
	header := struct {
		Flight   string `json:"flight"`
		Samples  int    `json:"samples"`
		Total    uint64 `json:"total_steps_observed"`
		Snapshot string `json:"snapshot,omitempty"`
	}{Flight: reason, Samples: t.Len(), Total: t.total}
	if ref := t.snapRef.Load(); ref != nil {
		header.Snapshot = *ref
	}
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("obs: flight header: %w", err)
	}
	for _, s := range t.Ring() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("obs: flight sample: %w", err)
		}
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("obs: flight write: %w", err)
	}
	return nil
}

// LockedWriter serializes Write calls to W. Tracer.Dump issues exactly one
// Write per dump, so a flight file shared by concurrent campaign workers
// stays record-atomic when wrapped in a LockedWriter.
type LockedWriter struct {
	mu sync.Mutex
	W  io.Writer
}

// Write forwards to W under the lock.
func (l *LockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.W.Write(p)
}

// RoundGate fires once per newly completed round. It is the round-edge
// detector shared by trace recorders: feed it the engine's current round
// count after each step and act only when Due reports true.
type RoundGate struct {
	last int
}

// NewRoundGate returns a gate that fires on the first round it sees
// (including round 0).
func NewRoundGate() *RoundGate { return &RoundGate{last: -1} }

// Due reports whether round has not been seen before, and marks it seen.
func (g *RoundGate) Due(round int) bool {
	if round == g.last {
		return false
	}
	g.last = round
	return true
}
