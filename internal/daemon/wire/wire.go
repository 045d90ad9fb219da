// Package wire is the unisond client/server protocol: length-prefixed JSON
// frames over a stream transport (a unix-domain socket in production, any
// net.Conn or in-memory pipe in tests).
//
// A frame is a 4-byte big-endian payload length followed by exactly that many
// bytes of JSON. The framing layer is deliberately dumb — no compression, no
// multiplexing — because the protocol is one-request-per-connection: a client
// dials, writes one Request, reads one Response, and either hangs up (control
// ops) or keeps reading Event frames until the server ends the stream
// (attach). That keeps every connection a linear byte stream with no
// interleaving to reason about, the same split kdo and the OCI runtimes use
// between a long-lived daemon and short-lived control clients.
//
// Decoding is strict and loud: a truncated header or payload, an oversized
// or empty length prefix, and non-JSON garbage all fail with descriptive
// errors, never a panic — fuzzed in this package, mirroring the
// internal/snapshot container contract. Encoding is deterministic (fixed
// struct field order, no maps), so every frame type has pinned golden bytes
// in testdata.
//
// Record events carry the exact JSONL line the daemon journaled, as a
// json.RawMessage: the client re-emits Record + "\n" verbatim, which is what
// makes daemon-streamed output byte-identical to an in-process campaign run
// (the invariant the remote cell of cmd/campaign -check enforces in CI).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"thinunison/internal/campaign"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
)

// Version is the protocol version. Every Request carries it; the server
// rejects mismatches so a stale client fails loudly instead of misparsing.
const Version = 1

// MaxFrame bounds a frame payload (16 MiB). A length prefix beyond it is
// rejected before any allocation, so a garbage or hostile header cannot ask
// the peer to allocate gigabytes.
const MaxFrame = 1 << 24

// Request operations.
const (
	OpPing     = "ping"
	OpSubmit   = "submit"
	OpAttach   = "attach"
	OpCancel   = "cancel"
	OpStatus   = "status"
	OpList     = "list"
	OpMetrics  = "metrics"
	OpShutdown = "shutdown"
)

// Run states reported in RunInfo.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Event types of an attach stream.
const (
	// EventRecord carries one durable campaign record (a JSONL line). Record
	// events are sequenced and retained by the daemon, so a slow or detached
	// reader re-attaches with From and loses nothing.
	EventRecord = "record"
	// EventMetrics carries a per-run engine-counter snapshot. Metrics events
	// are a lossy latest-wins side channel: a reader that cannot keep up has
	// stale snapshots replaced, counted in Dropped, and the engines never
	// block on it.
	EventMetrics = "metrics"
	// EventEOF ends the stream with the run's final state.
	EventEOF = "eof"
)

// Request is the single client→server frame type.
type Request struct {
	// V is the protocol version (Version).
	V int `json:"v"`
	// Op selects the operation.
	Op string `json:"op"`
	// Run targets an existing run (attach, cancel, status).
	Run string `json:"run,omitempty"`
	// From is the attach replay cursor: the stream resumes after durable
	// event sequence From (0 = from the beginning).
	From uint64 `json:"from,omitempty"`
	// Submit carries the run submission for OpSubmit.
	Submit *SubmitSpec `json:"submit,omitempty"`
	// Drain asks OpShutdown to finish active runs before exiting instead of
	// cancelling them.
	Drain bool `json:"drain,omitempty"`
}

// SubmitSpec describes one run submission: a campaign preset or a single
// custom scenario, plus the deterministic campaign seed and the execution-
// mode overrides the campaign CLI exposes. Everything the daemon needs to
// re-expand the same scenario set after a restart lives here, so the spec is
// persisted verbatim in the run manifest.
type SubmitSpec struct {
	// ID optionally names the run; empty lets the daemon assign r1, r2, ….
	ID string `json:"id,omitempty"`
	// Preset is a campaign preset name; exclusive with Scenario.
	Preset string `json:"preset,omitempty"`
	// Scenario is a single custom scenario (the unisonsim -remote shape).
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// Seed is the campaign seed; per-scenario seeds derive from it, so equal
	// specs replay byte-identically.
	Seed int64 `json:"seed"`
	// Workers requests a run-level worker count; 0 lets the daemon size the
	// run by its fleet share, and any value is clamped to the fleet capacity.
	// Records are worker-count independent either way.
	Workers int `json:"workers,omitempty"`
	// Parallelism, Frontier and WordParallel override the engines' execution
	// mode for every scenario of the run (see campaign.Scenario). Frontier
	// and WordParallel are byte-transparent to records. Parallelism is not:
	// it picks the coin source. Positive values are interchangeable
	// (per-(step, node) streams), a negative value forces the shared
	// stream, and zero keeps each scenario's own rule (per-node streams from
	// campaign.ShardThreshold nodes). The sign shows in the records of
	// coin-driven programs (MIS, LE).
	Parallelism  int  `json:"parallelism,omitempty"`
	Frontier     int  `json:"frontier,omitempty"`
	WordParallel bool `json:"word_parallel,omitempty"`
}

// ScenarioSpec is the wire form of one custom scenario.
type ScenarioSpec struct {
	Family    string                 `json:"family"`
	N         int                    `json:"n"`
	D         int                    `json:"d,omitempty"`
	Scheduler campaign.SchedulerSpec `json:"scheduler"`
	Algorithm string                 `json:"algorithm"`
	Faults    campaign.FaultSpec     `json:"faults"`
	Churn     campaign.ChurnSpec     `json:"churn"`
	// Trials repeats the scenario point (default 1).
	Trials int `json:"trials,omitempty"`
}

// RunInfo is the server's view of one run.
type RunInfo struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Preset echoes the submission ("" for custom scenarios).
	Preset string `json:"preset,omitempty"`
	Seed   int64  `json:"seed"`
	// Scenarios is the run's total scenario count; Done the number with a
	// durable record (also the sequence number of the latest record event);
	// Failures the records with ok=false.
	Scenarios int `json:"scenarios"`
	Done      int `json:"done"`
	Failures  int `json:"failures,omitempty"`
	// Recovered is the number of records salvaged from the run's journal
	// when a restarted daemon picked the run back up.
	Recovered int `json:"recovered,omitempty"`
	// Err carries the run-level failure (journal write error, harness
	// failure), distinct from per-record failures.
	Err string `json:"error,omitempty"`
}

// Response is the single server→client reply frame type.
type Response struct {
	OK  bool   `json:"ok"`
	Err string `json:"error,omitempty"`
	// Run answers submit/attach/cancel/status; Runs answers list.
	Run  *RunInfo  `json:"run,omitempty"`
	Runs []RunInfo `json:"runs,omitempty"`
	// Metrics answers OpMetrics with the daemon-wide engine-counter
	// aggregate.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Event is one attach-stream frame.
type Event struct {
	// Seq is the event's 1-based position in the run's durable event log
	// (record events only; 0 marks the lossy metrics side channel).
	Seq uint64 `json:"seq,omitempty"`
	// Type is EventRecord, EventMetrics or EventEOF.
	Type string `json:"type"`
	// Record is the exact JSONL record line, without its trailing newline.
	Record json.RawMessage `json:"record,omitempty"`
	// Run carries the run state on EventEOF.
	Run *RunInfo `json:"run,omitempty"`
	// Metrics carries the per-run engine-counter snapshot on EventMetrics.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Dropped is the cumulative count of lossy frames this subscriber lost
	// to backpressure (its buffer was full while the run progressed). It is
	// stamped on every delivered event, so even a reader that only ever sees
	// record frames learns it fell behind the metrics channel.
	Dropped uint64 `json:"dropped,omitempty"`
}

// ErrTooLarge rejects frames beyond MaxFrame, in either direction.
var ErrTooLarge = errors.New("wire: frame exceeds size limit")

// WriteFrame marshals v and writes it as one length-prefixed frame. The
// header and payload go out in a single Write, so a frame is never torn by
// goroutine interleaving as long as callers serialize on w.
func WriteFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: marshal frame: %w", err)
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	buf := make([]byte, 4, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed payload. A clean end of stream before
// any header byte returns io.EOF untouched (that is how attach streams end);
// everything else — truncated header, empty or oversized length prefix,
// truncated payload — fails with a descriptive error.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: truncated frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, errors.New("wire: empty frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: header claims %d bytes", ErrTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: truncated frame payload: %w", err)
	}
	return payload, nil
}

// decode unmarshals a frame payload into T, naming the frame type on error.
func decode[T any](payload []byte, kind string) (T, error) {
	var v T
	if err := json.Unmarshal(payload, &v); err != nil {
		return v, fmt.Errorf("wire: bad %s frame: %w", kind, err)
	}
	return v, nil
}

// ReadRequest reads and validates one Request frame, rejecting protocol
// version mismatches.
func ReadRequest(r io.Reader) (Request, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return Request{}, err
	}
	req, err := decode[Request](payload, "request")
	if err != nil {
		return req, err
	}
	if req.V != Version {
		return req, fmt.Errorf("wire: protocol version %d, want %d", req.V, Version)
	}
	if req.Op == "" {
		return req, errors.New("wire: request without op")
	}
	return req, nil
}

// ReadResponse reads one Response frame.
func ReadResponse(r io.Reader) (Response, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return Response{}, err
	}
	return decode[Response](payload, "response")
}

// ReadEvent reads one Event frame.
func ReadEvent(r io.Reader) (Event, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return Event{}, err
	}
	ev, err := decode[Event](payload, "event")
	if err != nil {
		return ev, err
	}
	if ev.Type == "" {
		return ev, errors.New("wire: event without type")
	}
	return ev, nil
}

// Scenarios expands the spec into its concrete scenario list with the
// execution-mode overrides applied — the exact set a local
// `campaign -preset ... -seed ...` run would execute, which is what keeps
// daemon output byte-identical to in-process output. It is deterministic, so
// a restarted daemon re-expands the persisted spec to the same scenarios.
func (sp SubmitSpec) Scenarios() ([]campaign.Scenario, error) {
	var scs []campaign.Scenario
	switch {
	case sp.Preset != "" && sp.Scenario != nil:
		return nil, errors.New("wire: submission carries both a preset and a custom scenario")
	case sp.Preset != "":
		var err error
		scs, err = campaign.Preset(sp.Preset, sp.Seed)
		if err != nil {
			return nil, err
		}
	case sp.Scenario != nil:
		var err error
		scs, err = sp.Scenario.expand(sp.Seed)
		if err != nil {
			return nil, err
		}
	default:
		return nil, errors.New("wire: empty submission (need a preset or a scenario)")
	}
	// Overrides apply only when set, so a plain preset submission executes
	// with the preset's own modes. Frontier and WordParallel are
	// byte-transparent to records; Parallelism picks the coin source, whose
	// sign shows in MIS and LE records (see SubmitSpec.Parallelism).
	for i := range scs {
		if sp.Parallelism != 0 {
			scs[i].Parallelism = sp.Parallelism
		}
		if sp.Frontier != 0 {
			scs[i].Frontier = sp.Frontier
		}
		if sp.WordParallel {
			scs[i].WordParallel = true
		}
	}
	return scs, nil
}

// expand turns the wire scenario into trial-many campaign scenarios with
// seeds derived from the campaign seed.
func (ss ScenarioSpec) expand(seed int64) ([]campaign.Scenario, error) {
	fam, err := graph.ParseFamily(ss.Family)
	if err != nil {
		return nil, err
	}
	alg, err := campaign.ParseAlgorithm(ss.Algorithm)
	if err != nil {
		return nil, err
	}
	trials := ss.Trials
	if trials <= 0 {
		trials = 1
	}
	scs := make([]campaign.Scenario, trials)
	for t := range scs {
		scs[t] = campaign.Scenario{
			Family:    fam,
			N:         ss.N,
			D:         ss.D,
			Scheduler: ss.Scheduler,
			Algorithm: alg,
			Faults:    ss.Faults,
			Churn:     ss.Churn,
			Trial:     t,
		}
	}
	return campaign.Finalize(seed, scs), nil
}
