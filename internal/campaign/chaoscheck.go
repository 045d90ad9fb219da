package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"thinunison/internal/failpoint"
)

// ChaosOptions parameterizes ChaosCheck.
type ChaosOptions struct {
	// Seed derives the fault schedule (failpoint.Chaos); 0 means 1. The
	// seed is printed on failure — re-running with the same seed replays
	// the identical schedule.
	Seed int64
	// Workers is the runner pool size for all phases.
	Workers int
	// Retries bounds transient-failure re-executions; 0 means 4 (the
	// schedule fires a bounded number of times per site, so a handful of
	// retries always outlasts it).
	Retries int
	// Watchdog is the per-scenario stall deadline armed on the chaos side;
	// 0 means 1s (injected stalls block one poll for far longer).
	Watchdog time.Duration
	// Dir is the scratch directory for the resumable log; "" means a fresh
	// temp directory, removed afterwards.
	Dir string
}

// chaosSites is the fault schedule shape of a chaos check: every robustness
// path exercised a handful of times, spread by the seed over each site's
// early window. Counts are small so bounded retries always converge; windows
// are sized to the smoke preset (~10^2 scenarios, ~10^3 poll evaluations,
// ~10^5 engine steps).
func chaosSites() []failpoint.ChaosSite {
	return []failpoint.ChaosSite{
		// A few scenarios die by panic before running (quarantine + retry).
		{Site: failpoint.CampaignWorker, Kind: failpoint.FailPanic, Count: 3, Window: 24},
		// A couple of engine runs abort mid-flight with an injected error.
		{Site: failpoint.SimStep, Kind: failpoint.FailError, Count: 2, Window: 4000},
		// A frontier run trips its (injected) invariant and demotes to the
		// dense path — byte-transparent, so the record must not change.
		{Site: failpoint.SimFrontierInvariant, Kind: failpoint.FailError, Count: 2, Window: 2000},
		// Two stabilization polls hang until the watchdog cuts them down.
		{Site: failpoint.CampaignPoll, Kind: failpoint.FailStall, Count: 2, Window: 800, Stall: 30 * time.Second},
		// Torn JSONL record writes and failed fsyncs (self-repairing log).
		{Site: failpoint.CampaignAppend, Kind: failpoint.FailTorn, Count: 2, Window: 16},
		{Site: failpoint.CampaignFsync, Kind: failpoint.FailError, Count: 2, Window: 16},
	}
}

// ChaosCheck is the self-stabilization differential for the harness itself:
// the campaign runs once undisturbed, then again under a seeded fault
// schedule — worker panics, injected engine errors, an invariant demotion,
// stalls cut down by the watchdog, torn JSONL writes —
// with a kill at the halfway record and a resume, and the surviving JSONL
// must parse to canonical records byte-identical to the undisturbed run.
// Transient faults with deterministic retries converge to the exact same
// outcome, which is the harness-level analogue of the paper's recovery from
// arbitrary transient faults.
//
// Diagnostics (including the full fired schedule) go to w; the returned
// count is the number of failures (0 = pass).
func ChaosCheck(w io.Writer, scenarios []Scenario, opts ChaosOptions) int {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Retries == 0 {
		opts.Retries = 4
	}
	if opts.Watchdog == 0 {
		opts.Watchdog = time.Second
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "chaos-check-*")
		if err != nil {
			fmt.Fprintf(w, "chaos-check: temp dir: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
	}

	// Reference: the undisturbed campaign.
	ref, err := (&Runner{Workers: opts.Workers}).Run(context.Background(), scenarios)
	if err != nil {
		fmt.Fprintf(w, "chaos-check: reference run: %v\n", err)
		return 1
	}

	// Chaos side: same scenarios plus the watchdog, under the schedule.
	chaos := make([]Scenario, len(scenarios))
	copy(chaos, scenarios)
	for i := range chaos {
		chaos[i].Watchdog = opts.Watchdog
	}
	retry := RetryPolicy{Max: opts.Retries, Backoff: 10 * time.Millisecond, MaxBackoff: time.Second}
	schedule := failpoint.Chaos(opts.Seed, chaosSites())
	failpoint.Arm(schedule)
	defer failpoint.Disarm()

	path := filepath.Join(dir, "chaos.jsonl")
	fail := func(phase string, err error) int {
		fmt.Fprintf(w, "chaos-check: %s: %v\n%s\n", phase, err, schedule)
		return 1
	}

	// Phase 1: run until roughly half the records are durable, then kill the
	// campaign (context cancellation mid-scenario — the kill-and-resume
	// boundary the resumable log must survive, now under fault injection).
	log, err := OpenResumable(path)
	if err != nil {
		return fail("open log", err)
	}
	killAt := len(scenarios)/2 + 1
	kctx, kill := context.WithCancel(context.Background())
	var appendErr error
	emitted := 0
	_, runErr := (&Runner{
		Workers: opts.Workers,
		Retry:   retry,
		OnRecord: func(rec Record) {
			if err := log.Append(rec); err != nil && appendErr == nil {
				appendErr = err
			}
			if emitted++; emitted == killAt {
				kill()
			}
		},
	}).Run(kctx, chaos)
	kill()
	log.Close()
	if appendErr != nil {
		return fail("phase 1 append", appendErr)
	}
	if runErr != nil && runErr != context.Canceled {
		return fail("phase 1 run", runErr)
	}

	// Phase 2: resume. The log self-repairs (torn lines truncated, CRC
	// verified) and only the missing tail re-runs, still under the schedule.
	log, err = OpenResumable(path)
	if err != nil {
		return fail("reopen log", err)
	}
	var rest []Scenario
	for _, sc := range chaos {
		if !log.Done(sc) {
			rest = append(rest, sc)
		}
	}
	appendErr = nil
	_, runErr = (&Runner{
		Workers: opts.Workers,
		Retry:   retry,
		OnRecord: func(rec Record) {
			if err := log.Append(rec); err != nil && appendErr == nil {
				appendErr = err
			}
		},
	}).Run(context.Background(), rest)
	log.Close()
	if appendErr != nil {
		return fail("resume append", appendErr)
	}
	if runErr != nil {
		return fail("resume run", runErr)
	}

	// The check must actually have checked something: a schedule that never
	// fired would pass vacuously, and so would a site the scenarios never
	// reach (e.g. renamed away, or only on a path the preset does not take),
	// so every armed site must have been evaluated.
	if schedule.Fired() == 0 {
		return fail("schedule", fmt.Errorf("no failpoint ever fired — vacuous chaos run"))
	}
	for _, cs := range chaosSites() {
		if schedule.Evals(cs.Site) == 0 {
			return fail("schedule", fmt.Errorf("armed site %s was never evaluated — its firings could not happen", cs.Site))
		}
	}

	// Verdict: the chaos file's canonical records must byte-match the
	// undisturbed run's.
	got, err := readRecords(path)
	if err != nil {
		return fail("read chaos records", err)
	}
	failures := 0
	if len(got) != len(ref) {
		fmt.Fprintf(w, "chaos-check: %d records survived for %d scenarios\n", len(got), len(ref))
		failures++
	}
	for i := 0; i < len(got) && i < len(ref); i++ {
		a, err := canonicalLine(ref[i])
		if err != nil {
			return fail("encode reference", err)
		}
		b, err := canonicalLine(got[i])
		if err != nil {
			return fail("encode chaos record", err)
		}
		if !bytes.Equal(a, b) {
			failures++
			fmt.Fprintf(w, "chaos-check: scenario %d diverged under faults\n  undisturbed: %s  chaos:       %s",
				ref[i].Scenario, a, b)
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "chaos-check: %d failure(s); reproduce with -chaos-seed %d\n%s\n",
			failures, opts.Seed, schedule)
	} else {
		fmt.Fprintf(w, "chaos-check: %d scenarios byte-identical under faults (%d firings, seed %d)\n",
			len(ref), schedule.Fired(), opts.Seed)
	}
	return failures
}

// readRecords parses a JSONL record file.
func readRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("campaign: torn trailing line in %s", path)
		}
		var rec Record
		if err := json.Unmarshal(data[:nl], &rec); err != nil {
			return nil, fmt.Errorf("campaign: parse %s: %w", path, err)
		}
		recs = append(recs, rec)
		data = data[nl+1:]
	}
	return recs, nil
}

// canonicalLine is the byte-comparable JSONL form of a record.
func canonicalLine(rec Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := AppendJSONL(&buf, rec.Canonical()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
