package campaign

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"thinunison/internal/obs"
)

// Runner executes scenarios on a pool of worker goroutines. The zero value is
// ready to use: it runs runtime.NumCPU() workers and measures wall time.
//
// Records are streamed to OnRecord and returned in scenario-index order no
// matter which worker finishes first, and every record is a deterministic
// function of its scenario, so equal campaign seeds produce byte-identical
// output at any worker count.
type Runner struct {
	// Workers is the pool size; <= 0 means runtime.NumCPU().
	Workers int
	// Timing enables wall-clock measurement in records. Leave it off for
	// byte-identical reproducible output (determinism tests, golden files).
	Timing bool
	// OnRecord, when set, receives each record in scenario-index order as
	// soon as it and all its predecessors are done (streaming JSONL export).
	// It is called from a single goroutine.
	OnRecord func(Record)
	// EngineMetrics keeps each record's engine-telemetry block
	// (Record.Engine). Off by default: several engine counters are
	// mode-dependent (frontier evaluations, coin draws, word steps), so
	// emitting them would break the byte-identity guarantee above whenever
	// execution modes differ.
	EngineMetrics bool
	// Obs, when set, accumulates every run's engine counters into one
	// campaign-wide metric set (typically published on /debug/vars). The
	// aggregate is fed regardless of EngineMetrics and updated as runs
	// complete, in completion order.
	Obs *obs.Metrics
	// Progress, when set, receives a live single-line progress report
	// (completed/total runs, cumulative guard evaluations, throughput,
	// ETA), rewritten in place at a throttled rate. Point it at stderr:
	// it is a side channel and never touches the record stream.
	Progress io.Writer
	// Retry re-executes scenarios that fail transiently (Record.Transient:
	// quarantined panics, injected faults, watchdog stalls) with bounded
	// exponential backoff. The zero value never retries.
	Retry RetryPolicy
}

// RetryPolicy bounds the Runner's transient-failure retries.
type RetryPolicy struct {
	// Max is the number of re-executions allowed per scenario after a
	// transient failure; 0 disables retries.
	Max int
	// Backoff is the delay before the first retry, doubling each further
	// retry up to MaxBackoff. Zero means retry immediately — right for
	// deterministic injected faults, whose repetition wall-clock cannot
	// help.
	Backoff time.Duration
	// MaxBackoff caps the doubling; 0 means no cap.
	MaxBackoff time.Duration
}

// delay returns the backoff before retry attempt (1-based).
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.Backoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// Run executes all scenarios and returns their records sorted by scenario
// index. On context cancellation it stops dispatching new scenarios, asks
// in-flight ones to abort, and returns the records completed so far together
// with ctx.Err().
func (r *Runner) Run(ctx context.Context, scenarios []Scenario) ([]Record, error) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(scenarios) && len(scenarios) > 0 {
		workers = len(scenarios)
	}

	jobs := make(chan Scenario)
	results := make(chan Record)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for sc := range jobs {
				rec := r.executeWithRetry(ctx, sc)
				if !r.Timing {
					rec.WallMS = 0
				}
				results <- rec
			}
		}()
	}

	go func() {
		defer close(jobs)
		for _, sc := range scenarios {
			// Check cancellation before offering the job: when both channel
			// operations are ready, select picks randomly, which would let a
			// cancelled campaign keep dispatching.
			if ctx.Err() != nil {
				return
			}
			select {
			case jobs <- sc:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder completions into scenario-index order for streaming: a record
	// is emitted once all lower-indexed scenarios have been emitted.
	pending := make(map[int]Record)
	next := 0
	if len(scenarios) > 0 {
		next = scenarios[0].Index
	}
	meter := newProgressMeter(r.Progress, len(scenarios))
	out := make([]Record, 0, len(scenarios))
	for rec := range results {
		// Telemetry folding happens here, on the single results goroutine,
		// in completion order: aggregate first, then strip the per-record
		// engine block unless the caller asked to keep it (its
		// mode-dependent counters would break record byte-identity).
		if rec.Engine != nil {
			if r.Obs != nil {
				r.Obs.Add(*rec.Engine)
			}
			meter.observe(*rec.Engine)
			if !r.EngineMetrics {
				rec.Engine = nil
			}
		} else {
			meter.observe(obs.Snapshot{})
		}
		pending[rec.Scenario] = rec
		for {
			ready, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			out = append(out, ready)
			if r.OnRecord != nil {
				r.OnRecord(ready)
			}
			next++
		}
	}
	meter.finish()
	// On cancellation some scenarios never ran; flush whatever completed
	// beyond the contiguous prefix, still in index order.
	if len(pending) > 0 {
		rest := make([]Record, 0, len(pending))
		for _, rec := range pending {
			rest = append(rest, rec)
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].Scenario < rest[j].Scenario })
		for _, rec := range rest {
			out = append(out, rec)
			if r.OnRecord != nil {
				r.OnRecord(rec)
			}
		}
	}
	return out, ctx.Err()
}

// progressMeter renders the Runner's live progress line: completed/total
// runs, cumulative guard evaluations (the engines' unit of work), current
// throughput and a crude ETA. Updates are throttled so a campaign of many
// short runs does not spend its time repainting a terminal line. Wall time
// appears only on this side channel, never in records.
type progressMeter struct {
	w     io.Writer
	total int
	done  int
	evals uint64
	start time.Time
	last  time.Time
	wrote bool
}

// progressInterval is the minimum delay between repaints.
const progressInterval = 200 * time.Millisecond

func newProgressMeter(w io.Writer, total int) *progressMeter {
	m := &progressMeter{w: w, total: total}
	if w != nil {
		m.start = time.Now()
		m.last = m.start.Add(-progressInterval)
	}
	return m
}

// observe folds one completed run into the meter and repaints if due.
func (m *progressMeter) observe(s obs.Snapshot) {
	if m.w == nil {
		return
	}
	m.done++
	m.evals += s.Evaluated
	if now := time.Now(); now.Sub(m.last) >= progressInterval {
		m.last = now
		m.paint(now)
	}
}

// finish forces a final repaint and terminates the progress line.
func (m *progressMeter) finish() {
	if m.w == nil || !m.wrote && m.done == 0 {
		return
	}
	m.paint(time.Now())
	fmt.Fprintln(m.w)
}

func (m *progressMeter) paint(now time.Time) {
	elapsed := now.Sub(m.start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	eta := "?"
	if m.done > 0 && m.total > m.done {
		left := time.Duration(elapsed / float64(m.done) * float64(m.total-m.done) * float64(time.Second))
		eta = left.Round(time.Second).String()
	} else if m.done == m.total {
		eta = "0s"
	}
	fmt.Fprintf(m.w, "\rcampaign: %d/%d runs, %.3g evals, %.3g evals/s, eta %s   ",
		m.done, m.total, float64(m.evals), float64(m.evals)/elapsed, eta)
	m.wrote = true
}

// executeWithRetry is the worker body: the scenario runs panic-isolated,
// and transient failures (quarantined panics, injected faults, watchdog
// stalls — never deterministic outcomes like budget exhaustion or scenario
// timeouts) are retried up to Retry.Max times with exponential backoff. The
// final record carries the retry count; deterministic scenarios converge to
// the same bytes as an undisturbed run once the fault clears, which is what
// ChaosSide pins.
func (r *Runner) executeWithRetry(ctx context.Context, sc Scenario) Record {
	rec := ExecuteIsolated(ctx, sc)
	for attempt := 1; attempt <= r.Retry.Max && rec.Transient() && ctx.Err() == nil; attempt++ {
		if d := r.Retry.delay(attempt); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return rec
			}
		}
		next := ExecuteIsolated(ctx, sc)
		next.Retries = attempt
		if next.Engine != nil {
			next.Engine.RunRetries = uint64(attempt)
			// Fold the harness counters of the failed attempts into the
			// surviving record's engine block so campaign-wide aggregates
			// (Runner.Obs) see every quarantined panic and stall, not just
			// those of final attempts.
			if rec.Engine != nil {
				next.Engine.WorkerPanics += rec.Engine.WorkerPanics
				next.Engine.WatchdogStalls += rec.Engine.WatchdogStalls
			}
		}
		rec = next
	}
	return rec
}

// RunMatrix expands the matrix with the given campaign seed and runs it.
func (r *Runner) RunMatrix(ctx context.Context, seed int64, m Matrix) ([]Record, error) {
	return r.Run(ctx, m.Expand(seed))
}
