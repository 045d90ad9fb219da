package campaign

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"thinunison/internal/failpoint"
	"thinunison/internal/obs"
)

// Record is the structured outcome of one scenario run. Every field except
// WallMS is a deterministic function of the scenario (and hence of the
// campaign seed); wall time is measured only when the runner's Timing option
// is on, so seed-equal campaigns can emit byte-identical JSONL.
type Record struct {
	// Identity of the run.
	Scenario  int    `json:"scenario"`
	Family    string `json:"family"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	D         int    `json:"d"`
	Diameter  int    `json:"diameter"`
	Scheduler string `json:"scheduler"`
	Algorithm string `json:"algorithm"`
	Trial     int    `json:"trial"`
	Seed      int64  `json:"seed"`

	// Outcome. Rounds is the stabilization time in rounds (the round
	// operator ϱ); Steps the raw scheduler steps consumed in total.
	Rounds int `json:"rounds"`
	Steps  int `json:"steps"`
	// Budget is the theorem-derived round budget the run was given and
	// Headroom the unused fraction of it, (Budget-Rounds)/Budget.
	Budget   int     `json:"budget"`
	Headroom float64 `json:"headroom"`

	// Fault-injection outcome (absent when the scenario injects no faults).
	FaultCount     int `json:"fault_count,omitempty"`
	FaultBursts    int `json:"fault_bursts,omitempty"`
	RecoveryRounds int `json:"recovery_rounds,omitempty"`

	// Topology-churn outcome (absent when the scenario freezes the
	// topology): the scenario's churn model, the number of committed edge
	// mutations, and the number of ops cancelled by the connectivity /
	// diameter guards. All three are deterministic functions of the
	// scenario seed, independent of execution mode.
	Churn        string `json:"churn,omitempty"`
	ChurnOps     int    `json:"churn_ops,omitempty"`
	ChurnSkipped int    `json:"churn_skipped,omitempty"`

	// WallMS is the run's wall-clock duration in milliseconds (0 when the
	// runner's Timing option is off).
	WallMS float64 `json:"wall_ms,omitempty"`

	// Retries is the number of times the scenario was re-executed after a
	// transient harness failure (quarantined panic, injected fault,
	// watchdog stall). It describes how the harness got the result, not the
	// result itself, so Canonical zeroes it.
	Retries int `json:"retries,omitempty"`

	// Engine is the run's engine-telemetry snapshot (obs.Metrics counter
	// catalog), populated by Execute. The Runner strips it unless its
	// EngineMetrics option is on: several counters are mode-dependent
	// (frontier evaluations, coin draws, word steps), so keeping them would
	// break the byte-identity guarantees across execution modes that the
	// differential suites pin. It never appears in CSV output.
	Engine *obs.Snapshot `json:"engine,omitempty"`

	// OK reports whether the run stabilized (and recovered from every fault
	// burst) within budget; Err carries the failure otherwise.
	OK  bool   `json:"ok"`
	Err string `json:"error,omitempty"`
}

// Canonical returns the record reduced to its byte-comparable form: wall
// time zeroed and the engine block cut down to its trajectory counters
// (obs.Snapshot.Trajectory). Differential — behind the differential tests
// and cmd/campaign -check — diffs this form, so execution modes may differ
// in how they worked (evaluations, coin draws, word steps) but never in
// what happened — trajectory-counter divergence fails the diff like any
// other field.
func (r Record) Canonical() Record {
	r.WallMS = 0
	// Harness bookkeeping: a chaos run that was retried and converged to
	// the same trajectory must byte-match an undisturbed run.
	r.Retries = 0
	if r.Engine != nil {
		t := r.Engine.Trajectory()
		r.Engine = &t
	}
	return r
}

func (r *Record) fail(err error) {
	r.OK = false
	if r.Err == "" {
		r.Err = err.Error()
	}
}

// panicPrefix and watchdogPrefix mark the two harness-generated failure
// classes in Record.Err (see ExecuteIsolated and the watchdog in Execute).
const (
	panicPrefix    = "campaign: panic: "
	watchdogPrefix = "campaign: watchdog: "
)

// Cancelled reports whether the record was aborted by campaign-level context
// cancellation (^C, global -timeout). Cancelled records carry no durable
// outcome: ResumableLog.Append skips them so the scenario is re-run on
// -resume.
func (r Record) Cancelled() bool { return !r.OK && r.Err == errCancelled.Error() }

// Transient reports whether the record's failure is a transient harness
// fault — a quarantined panic, an injected failpoint error, or a watchdog
// stall — that a bounded retry may clear, as opposed to a deterministic
// outcome (budget exhaustion, invalid scenario, scenario timeout,
// cancellation).
func (r Record) Transient() bool {
	if r.OK || r.Err == "" {
		return false
	}
	return strings.HasPrefix(r.Err, panicPrefix) ||
		strings.HasPrefix(r.Err, watchdogPrefix) ||
		strings.Contains(r.Err, failpoint.ErrInjected.Error())
}

// WriteJSONL writes one JSON object per line. Field order is fixed by the
// struct, so equal record slices produce byte-identical output.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("campaign: encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// AppendJSONL encodes a single record as one JSONL line (streaming form).
func AppendJSONL(w io.Writer, rec Record) error {
	return json.NewEncoder(w).Encode(&rec)
}

// ParseJSONL parses JSONL records, the inverse of WriteJSONL. A final line
// without its newline is a torn write and an error.
func ParseJSONL(data []byte) ([]Record, error) {
	var recs []Record
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("campaign: torn trailing line after record %d", len(recs))
		}
		var rec Record
		if err := json.Unmarshal(data[:nl], &rec); err != nil {
			return nil, fmt.Errorf("campaign: parse record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
		data = data[nl+1:]
	}
	return recs, nil
}

// csvHeader is the fixed CSV column order.
var csvHeader = []string{
	"scenario", "family", "n", "m", "d", "diameter", "scheduler", "algorithm",
	"trial", "seed", "rounds", "steps", "budget", "headroom",
	"fault_count", "fault_bursts", "recovery_rounds",
	"churn", "churn_ops", "churn_skipped", "wall_ms", "ok", "error",
}

// WriteCSV writes the records as CSV with a header row.
func WriteCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i := range recs {
		r := &recs[i]
		row := []string{
			strconv.Itoa(r.Scenario), r.Family, strconv.Itoa(r.N),
			strconv.Itoa(r.M), strconv.Itoa(r.D), strconv.Itoa(r.Diameter),
			r.Scheduler, r.Algorithm, strconv.Itoa(r.Trial),
			strconv.FormatInt(r.Seed, 10), strconv.Itoa(r.Rounds),
			strconv.Itoa(r.Steps), strconv.Itoa(r.Budget),
			strconv.FormatFloat(r.Headroom, 'g', -1, 64),
			strconv.Itoa(r.FaultCount), strconv.Itoa(r.FaultBursts),
			strconv.Itoa(r.RecoveryRounds),
			r.Churn, strconv.Itoa(r.ChurnOps), strconv.Itoa(r.ChurnSkipped),
			strconv.FormatFloat(r.WallMS, 'g', -1, 64),
			strconv.FormatBool(r.OK), r.Err,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
