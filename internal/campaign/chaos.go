package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"thinunison/internal/failpoint"
)

// ChaosOptions parameterizes ChaosSide.
type ChaosOptions struct {
	// Seed derives the fault schedule (failpoint.Chaos); 0 means 1. Every
	// failure of the side names it — re-running with the same seed replays
	// the identical schedule.
	Seed int64
	// Workers is the runner pool size for both phases.
	Workers int
	// Dir is the scratch directory for the resumable log; "" means a fresh
	// temp directory, removed afterwards.
	Dir string
}

const (
	// chaosRetries bounds transient-failure re-executions: the schedule
	// fires a bounded number of times per site, so a handful of retries
	// always outlasts it.
	chaosRetries = 4
	// chaosWatchdog is the per-scenario stall deadline armed on the chaos
	// side; injected stalls block one poll for far longer.
	chaosWatchdog = time.Second
)

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
		// Two stabilization polls hang until the watchdog cuts them down.
		{Site: failpoint.CampaignPoll, Kind: failpoint.FailStall, Count: 2, Window: 800, Stall: 30 * time.Second},
		// Torn JSONL record writes and failed fsyncs (self-repairing log).
		{Site: failpoint.CampaignAppend, Kind: failpoint.FailTorn, Count: 2, Window: 16},
		{Site: failpoint.CampaignFsync, Kind: failpoint.FailError, Count: 2, Window: 16},
	}
}

// ChaosSide is the self-stabilization side for the harness itself: the
// scenarios run under a seeded fault schedule — worker panics, injected
// engine errors, stalls cut down by the watchdog, torn JSONL writes and
// failed fsyncs — with a kill at the halfway record and a resume, and
// the side's records are those the resumable log holds at the end.
// Transient faults with deterministic retries converge to the exact same
// outcome, so Differential must find them byte-identical to an undisturbed
// reference: the harness-level analogue of the paper's recovery from
// arbitrary transient faults.
//
// The side's name carries the -chaos-seed that reproduces it. It errs,
// printing the fired schedule, when a phase fails, when no failpoint fired
// or an armed site was never evaluated (a vacuous run), and when a record
// still fails transiently after the retries.
func ChaosSide(opts ChaosOptions) Side {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return Side{
		Name: fmt.Sprintf("chaos[-chaos-seed %d]", opts.Seed),
		Run: func(ctx context.Context, scs []Scenario) ([]Record, error) {
			return runChaos(ctx, scs, opts)
		},
	}
}

func runChaos(ctx context.Context, scenarios []Scenario, opts ChaosOptions) ([]Record, error) {
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "chaos-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	chaos := append([]Scenario(nil), scenarios...)
	for i := range chaos {
		chaos[i].Watchdog = chaosWatchdog
	}
	schedule := failpoint.Chaos(opts.Seed, chaosSites())
	failpoint.Arm(schedule)
	defer failpoint.Disarm()
	fail := func(phase string, err error) ([]Record, error) {
		return nil, fmt.Errorf("%s: %v\n%s", phase, err, schedule)
	}

	// Phase 1 kills the campaign once roughly half the records are durable
	// (context cancellation mid-scenario — the kill-and-resume boundary the
	// resumable log must survive, now under fault injection). Phase 2
	// resumes: the log self-repairs (torn lines truncated, CRC verified) and
	// only the missing tail re-runs, still under the schedule.
	path := filepath.Join(dir, "chaos.jsonl")
	for i, killAt := range []int{len(chaos)/2 + 1, 0} {
		if err := chaosPhase(ctx, path, chaos, opts.Workers, killAt); err != nil {
			return fail(fmt.Sprintf("phase %d", i+1), err)
		}
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

	data, err := os.ReadFile(path)
	if err != nil {
		return fail("read log", err)
	}
	recs, err := ParseJSONL(data)
	if err != nil {
		return fail("read log", err)
	}
	for _, rec := range recs {
		if rec.Transient() {
			return fail("retries", fmt.Errorf("scenario %d (seed %d) still fails transiently after %d retries: %s",
				rec.Scenario, rec.Seed, chaosRetries, rec.Err))
		}
	}
	return recs, nil
}

// chaosPhase opens the resumable log at path and runs, on a retrying
// runner, the scenarios it does not hold yet, appending every record; a
// positive killAt cancels the run once that many records were emitted.
func chaosPhase(ctx context.Context, path string, scs []Scenario, workers, killAt int) error {
	log, err := OpenResumable(path)
	if err != nil {
		return err
	}
	defer log.Close()
	var rest []Scenario
	for _, sc := range scs {
		if !log.Done(sc) {
			rest = append(rest, sc)
		}
	}
	kctx, kill := context.WithCancel(ctx)
	defer kill()
	var appendErr error
	emitted := 0
	_, runErr := (&Runner{
		Workers: workers,
		Retry:   RetryPolicy{Max: chaosRetries, Backoff: 10 * time.Millisecond, MaxBackoff: time.Second},
		OnRecord: func(rec Record) {
			if err := log.Append(rec); err != nil && appendErr == nil {
				appendErr = err
			}
			if emitted++; emitted == killAt {
				kill()
			}
		},
	}).Run(kctx, rest)
	if appendErr != nil {
		return appendErr
	}
	if runErr == context.Canceled && killAt > 0 && ctx.Err() == nil {
		return nil
	}
	return runErr
}
