// Command campaign runs scenario campaigns: declarative sweeps over graph
// family × size × diameter bound × scheduler × fault model × algorithm,
// executed in parallel with deterministic per-scenario seeds.
//
//	campaign -preset smoke                      # quick coverage sweep
//	campaign -preset paper-table1 -seed 7       # the paper's evaluation shape
//	campaign -preset fault-storm -workers 4     # transient-fault bombardment
//	campaign -preset scale-sweep                # 10^3..10^5-node instances
//	campaign -list                              # available presets
//
// Per-run records stream to stdout as JSONL (or to -out); an aggregate
// min/median/p95/max table per parameter point prints to stderr (suppress
// with -quiet). -csv writes the full record set as CSV to a file. With
// -timing off (the default), output is byte-identical for equal seeds, so
// campaign runs can serve as regression golden files.
//
// -parallelism picks the engines' coin source: positive values draw
// per-(step, node) streams, negative values the shared stream, and 0 picks
// by scenario size. AU scenarios run frontier-sparse by default (settled
// nodes are skipped until their neighborhood changes); -frontier forces the
// mode on or off, and -frontier-check runs the preset as a
// dense-vs-frontier divergence guard. -word opts AU scenarios into
// word-parallel (bit-planed batch) transition evaluation, and -plane-check
// runs the preset as a scalar-vs-word divergence guard. -restore-check runs
// the checkpoint/restore differential instead: every engine mode × coin
// source × churn combination is run uninterrupted and checkpointed at the
// halfway step, and the guard fails unless the restored continuation is
// byte-identical to the uninterrupted run. -daemon-check runs the preset
// both in-process and through an in-process unisond on a unix socket and
// fails unless the streamed records are byte-identical — the guard that
// keeps daemon mode transparent.
//
// The campaign harness is itself self-stabilizing (see internal/failpoint):
// workers are panic-isolated, -retries re-runs transient failures with
// backoff, -watchdog cuts down stalled runs, -scenario-timeout bounds each
// run deterministically, and -resume logs survive torn writes and bit rot
// via a CRC sidecar. -chaos-check runs the preset under a seeded fault
// schedule (-chaos-seed) with a kill-and-resume and fails unless the
// surviving records are byte-identical to an undisturbed run.
//
// Observability (see internal/obs): -progress paints a live throughput line
// on stderr, -metrics keeps each record's engine-counter block, -debug-addr
// serves expvar + pprof with live campaign-wide counters, -trace-every N
// samples every Nth step of every run to -trace-out (deterministic — the
// -*-check guards run with tracing attached to prove it never perturbs
// records), and -flight dumps the last steps of every failed run.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/daemonclient"
	"thinunison/internal/obs"
)

// divergenceCheck runs every scenario under two forced variants and fails
// if any record pair differs byte for byte — the differential-harness
// invariant, enforced on real presets in CI. Returns a process exit code.
func divergenceCheck(scenarios []campaign.Scenario, name, labelA, labelB string,
	variantA, variantB func(*campaign.Scenario)) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	record := func(sc campaign.Scenario, variant func(*campaign.Scenario)) ([]byte, error) {
		variant(&sc)
		// Canonical keeps the engine block's trajectory counters in the
		// diff (they must agree across modes too) and strips only the
		// mode-dependent ones and wall time.
		rec := campaign.Execute(ctx, sc).Canonical()
		var buf bytes.Buffer
		err := campaign.AppendJSONL(&buf, rec)
		return buf.Bytes(), err
	}
	diverged := 0
	for _, sc := range scenarios {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "campaign: %s interrupted\n", name)
			return 1
		}
		a, err := record(sc, variantA)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		b, err := record(sc, variantB)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		if !bytes.Equal(a, b) {
			diverged++
			fmt.Fprintf(os.Stderr, "campaign: %s: scenario %d diverged:\n  %s: %s  %s: %s",
				name, sc.Index, labelA, a, labelB, b)
		}
	}
	if diverged > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %s FAILED: %d of %d scenarios diverged between %s and %s\n",
			name, diverged, len(scenarios), labelA, labelB)
		return 1
	}
	fmt.Fprintf(os.Stderr, "campaign: %s OK: %d scenarios byte-identical at %s and %s\n",
		name, len(scenarios), labelA, labelB)
	return 0
}

// frontierCheck is the frontier-vs-dense divergence guard: forced frontier
// and dense execution must agree (with whatever coin source the scenarios
// carry — combine with -parallelism to pin it).
func frontierCheck(scenarios []campaign.Scenario) int {
	return divergenceCheck(scenarios, "frontier-check", "dense", "frontier",
		func(sc *campaign.Scenario) { sc.Frontier = -1 },
		func(sc *campaign.Scenario) { sc.Frontier = 1 })
}

// planeCheck is the word-parallel differential guard: forced scalar and
// word-parallel execution must agree byte for byte (with whatever coin
// source and frontier mode the scenarios carry — combine with -parallelism
// and -frontier to pin them). Scenarios whose algorithm offers no word kernel
// fall back to scalar on both sides, so the pair degenerates to a replay
// check there.
func planeCheck(scenarios []campaign.Scenario) int {
	return divergenceCheck(scenarios, "plane-check", "scalar", "word",
		func(sc *campaign.Scenario) { sc.WordParallel = false },
		func(sc *campaign.Scenario) { sc.WordParallel = true })
}

// daemonCheck is the remote-vs-local differential guard: the preset runs
// once in-process through the Runner and once through a real unisond — an
// in-process daemon served on a throwaway unix socket, submitted and
// streamed over the wire protocol — and the guard fails unless the two
// JSONL record streams are byte-identical. This is the invariant that makes
// daemon mode transparent: a client cannot tell (from the records) whether
// a campaign ran locally or behind the socket.
func daemonCheck(preset string, seed int64, workers int) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Local reference: pristine preset expansion, no execution-mode
	// overrides — exactly what the daemon re-derives on its side.
	scenarios, err := campaign.Preset(preset, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var local bytes.Buffer
	runner := &campaign.Runner{
		Workers: workers,
		OnRecord: func(rec campaign.Record) {
			if err == nil {
				err = campaign.AppendJSONL(&local, rec)
			}
		},
	}
	if _, rerr := runner.Run(ctx, scenarios); rerr != nil {
		fmt.Fprintln(os.Stderr, "campaign: daemon-check: local run:", rerr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign: daemon-check:", err)
		return 1
	}

	// Remote side: a real daemon on a unix socket (in a short-lived tempdir;
	// socket paths have a ~100-byte limit, so not the work dir).
	dir, err := os.MkdirTemp("", "unisond")
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign: daemon-check:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	srv, err := daemon.New(daemon.Options{Fleet: workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign: daemon-check:", err)
		return 1
	}
	sock := filepath.Join(dir, "d.sock")
	if err := srv.ListenAndServe(sock); err != nil {
		fmt.Fprintln(os.Stderr, "campaign: daemon-check:", err)
		return 1
	}
	defer srv.Kill()

	var remote bytes.Buffer
	spec := wire.SubmitSpec{Preset: preset, Seed: seed, Workers: workers}
	info, err := daemonclient.New(sock).Run(ctx, spec, &remote)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign: daemon-check:", err)
		return 1
	}
	if info.State != wire.StateDone {
		fmt.Fprintf(os.Stderr, "campaign: daemon-check: daemon run ended %s (%s)\n", info.State, info.Err)
		return 1
	}

	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		fmt.Fprintf(os.Stderr, "campaign: daemon-check FAILED: daemon stream differs from local run (%d vs %d bytes)\n",
			remote.Len(), local.Len())
		return 1
	}
	fmt.Fprintf(os.Stderr, "campaign: daemon-check OK: %d scenarios byte-identical locally and through unisond\n",
		len(scenarios))
	return 0
}

// churnCheck is the topology-churn differential guard: every scenario runs
// once dense and once frontier-sparse, both with per-node coin streams
// (P=1) and the GoodMonitor full-scan oracle enabled — so a divergence in
// either the trajectory (records differ) or the incremental stabilization
// verdict (oracle fails the record) turns the guard red. Run it on the
// bio-churn preset, whose scenarios actually mutate topology mid-run.
func churnCheck(scenarios []campaign.Scenario) int {
	for i := range scenarios {
		scenarios[i].MonitorOracle = true
	}
	return divergenceCheck(scenarios, "churn-check", "dense-P1", "frontier-P1",
		func(sc *campaign.Scenario) { sc.Frontier = -1; sc.Parallelism = 1 },
		func(sc *campaign.Scenario) { sc.Frontier = 1; sc.Parallelism = 1 })
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		preset  = flag.String("preset", "smoke", "campaign preset to run (see -list)")
		list    = flag.Bool("list", false, "list available presets and exit")
		workers = flag.Int("workers", 0, "worker goroutines (0 = NumCPU)")
		seed    = flag.Int64("seed", 1, "campaign seed; all per-scenario seeds derive from it")
		out     = flag.String("out", "-", "JSONL output path (- = stdout)")
		resume  = flag.Bool("resume", false, "resume an interrupted campaign: requires -out FILE; truncates any torn trailing record, skips scenarios already recorded, fsyncs every appended record, and leaves the file byte-identical to an uninterrupted run")
		csvPath = flag.String("csv", "", "also write records as CSV to this path")
		timing  = flag.Bool("timing", false, "include wall_ms in records (breaks byte-for-byte reproducibility)")
		quiet   = flag.Bool("quiet", false, "suppress the aggregate table on stderr")
		timeout = flag.Duration("timeout", 0, "abort the campaign after this duration (0 = none)")
		par     = flag.Int("parallelism", 0, "engine coin source: any value >0 draws per-(step, node) coin streams (all positive values are interchangeable), <0 forces the shared stream, 0 picks per-node streams from campaign.ShardThreshold nodes; the sign shows in the records of coin-driven programs (MIS, LE)")
		front   = flag.Int("frontier", 0, "frontier-sparse AU execution: >0 forces it on, <0 forces dense execution, 0 auto-enables (records are identical either way)")
		fcheck  = flag.Bool("frontier-check", false, "divergence guard: run every scenario dense and frontier-sparse and fail if any record differs, instead of a normal campaign")
		ccheck  = flag.Bool("churn-check", false, "churn differential guard: run every scenario dense and frontier-sparse, both at P=1, with the GoodMonitor full-scan oracle and fail on any divergence, instead of a normal campaign (pair with -preset bio-churn)")
		pcheck  = flag.Bool("plane-check", false, "word-parallel differential guard: run every scenario scalar and word-parallel and fail if any record differs, instead of a normal campaign")
		rcheck  = flag.Bool("restore-check", false, "checkpoint differential guard: for every engine mode x coin source x churn combination, fail unless a run checkpointed and restored at the halfway step is byte-identical to an uninterrupted run (ignores -preset)")
		dcheck  = flag.Bool("daemon-check", false, "remote-vs-local differential guard: run the preset in-process and through an in-process unisond on a unix socket and fail unless the streamed records are byte-identical, instead of a normal campaign")
		fork    = flag.String("fork", "", "fork mode: restore this unisonsim checkpoint into -fork-futures perturbed continuations (future f suffers f+1 transient faults) and emit one record per future (ignores -preset)")
		futures = flag.Int("fork-futures", 8, "number of alternative futures -fork runs")
		word    = flag.Bool("word", false, "force word-parallel (bit-planed batch) AU execution; falls back to scalar when the algorithm offers no word kernel (records are identical either way)")

		chaos     = flag.Bool("chaos-check", false, "self-stabilization guard for the harness itself: run the preset undisturbed, then again under a seeded fault schedule (worker panics, injected engine errors, stalls, torn writes) with a kill-and-resume, and fail unless the surviving records are byte-identical, instead of a normal campaign")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the -chaos-check fault schedule; a failing run prints the seed that reproduces it")
		retries   = flag.Int("retries", 0, "re-execute scenarios that fail transiently (worker panics, watchdog stalls, injected faults) up to this many times with exponential backoff")
		watchdog  = flag.Duration("watchdog", 0, "per-scenario stall watchdog: fail (transiently, so -retries applies) any run making no step progress for this long (0 = off)")
		scTimeout = flag.Duration("scenario-timeout", 0, "per-scenario deadline: fail (deterministically; never retried) any run exceeding it (0 = none)")

		metrics    = flag.Bool("metrics", false, "keep each record's engine-telemetry block (mode-dependent counters; breaks byte-for-byte comparability across execution modes)")
		progress   = flag.Bool("progress", false, "live progress line on stderr (done/total, evals/s, ETA); never touches the JSONL stream")
		debugAddr  = flag.String("debug-addr", "", "serve expvar + pprof on this address (e.g. localhost:6060) for the campaign's lifetime")
		traceEvery = flag.Int("trace-every", 0, "emit every Nth step of every run as a trace sample (0 = off); deterministic, never perturbs records")
		traceOut   = flag.String("trace-out", "", "trace-sample JSONL path (default: discard, which still exercises the tracer in -*-check modes)")
		flight     = flag.String("flight", "", "flight-recorder path: dump the last steps of every failed run as JSONL")
		flightRing = flag.Int("flight-ring", 0, "flight-recorder depth in steps (0 = default 64)")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(campaign.Presets(), "\n"))
		return 0
	}

	scenarios, err := campaign.Preset(*preset, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // the package error already carries the campaign: prefix
		return 2
	}

	// Observability spec shared by all scenarios (each run still builds its
	// own tracer). The sink and flight writers are concurrency-safe, so the
	// spec works at any worker count; in -*-check modes the spec rides along
	// on both variants, proving the differentials hold with tracing attached.
	var obsSpec *campaign.ObsSpec
	var flushTrace func() error
	if *traceEvery > 0 || *flight != "" {
		obsSpec = &campaign.ObsSpec{TraceEvery: *traceEvery, FlightRing: *flightRing}
		if *traceEvery > 0 {
			sinkOut := io.Discard
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, "campaign:", err)
					return 1
				}
				defer f.Close()
				sinkOut = f
			}
			sink := obs.NewJSONL(sinkOut)
			obsSpec.Sink = sink
			flushTrace = sink.Flush
		}
		if *flight != "" {
			f, err := os.Create(*flight)
			if err != nil {
				fmt.Fprintln(os.Stderr, "campaign:", err)
				return 1
			}
			defer f.Close()
			obsSpec.Flight = &obs.LockedWriter{W: f}
		}
	}
	defer func() {
		if flushTrace != nil {
			if err := flushTrace(); err != nil {
				fmt.Fprintln(os.Stderr, "campaign: trace:", err)
			}
		}
	}()

	for i := range scenarios {
		scenarios[i].Parallelism = *par
		scenarios[i].Frontier = *front
		scenarios[i].WordParallel = *word
		scenarios[i].Obs = obsSpec
		scenarios[i].Timeout = *scTimeout
		scenarios[i].Watchdog = *watchdog
	}

	if *chaos {
		if failures := campaign.ChaosCheck(os.Stderr, scenarios, campaign.ChaosOptions{
			Seed:    *chaosSeed,
			Workers: *workers,
		}); failures > 0 {
			return 1
		}
		return 0
	}
	if *fcheck {
		return frontierCheck(scenarios)
	}
	if *ccheck {
		return churnCheck(scenarios)
	}
	if *pcheck {
		return planeCheck(scenarios)
	}
	if *rcheck {
		if failures := campaign.RestoreCheck(os.Stderr); failures > 0 {
			return 1
		}
		return 0
	}
	if *dcheck {
		return daemonCheck(*preset, *seed, *workers)
	}
	if *fork != "" {
		jsonl := io.Writer(os.Stdout)
		closeOut := func() error { return nil }
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "campaign:", err)
				return 1
			}
			closeOut = f.Close
			jsonl = f
		}
		forkErr := campaign.Fork(*fork, campaign.ForkOptions{Futures: *futures}, func(rec campaign.Record) error {
			return campaign.AppendJSONL(jsonl, rec)
		})
		if err := closeOut(); err != nil && forkErr == nil {
			forkErr = err
		}
		if forkErr != nil {
			fmt.Fprintln(os.Stderr, "campaign:", forkErr)
			return 1
		}
		return 0
	}

	var jsonl io.Writer = os.Stdout
	closeOut := func() error { return nil }
	appendRec := func(rec campaign.Record) error { return campaign.AppendJSONL(jsonl, rec) }
	if *resume {
		if *out == "-" {
			fmt.Fprintln(os.Stderr, "campaign: -resume requires -out FILE")
			return 2
		}
		rlog, err := campaign.OpenResumable(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		closeOut = rlog.Close
		appendRec = rlog.Append
		remaining := scenarios[:0]
		for _, sc := range scenarios {
			if !rlog.Done(sc) {
				remaining = append(remaining, sc)
			}
		}
		fmt.Fprintf(os.Stderr, "campaign: resuming %s: %d record(s) recovered (%d torn byte(s) dropped), %d of %d scenario(s) left\n",
			*out, rlog.Recovered, rlog.TruncatedBytes, len(remaining), len(scenarios))
		scenarios = remaining
	} else if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		closeOut = f.Close
		jsonl = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	streamErr := error(nil)
	runner := &campaign.Runner{
		Workers:       *workers,
		Timing:        *timing,
		EngineMetrics: *metrics,
		Retry:         campaign.RetryPolicy{Max: *retries, Backoff: 10 * time.Millisecond, MaxBackoff: time.Second},
		OnRecord: func(rec campaign.Record) {
			if streamErr == nil {
				streamErr = appendRec(rec)
			}
		},
	}
	if *progress {
		runner.Progress = os.Stderr
	}
	if *debugAddr != "" {
		// Live campaign-wide counters on /debug/vars, pprof alongside.
		runner.Obs = &obs.Metrics{}
		obs.Publish("campaign", runner.Obs)
		addr, stopSrv, err := obs.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "campaign: debug endpoint on http://%s/debug/vars\n", addr)
	}
	start := time.Now()
	records, runErr := runner.Run(ctx, scenarios)
	elapsed := time.Since(start)
	// Close (and flush) the JSONL file before declaring success: a full disk
	// surfacing at close time must not exit 0 with truncated records.
	if err := closeOut(); err != nil && streamErr == nil {
		streamErr = err
	}
	if streamErr != nil {
		fmt.Fprintln(os.Stderr, "campaign: write:", streamErr)
		return 1
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		if err := campaign.WriteCSV(f, records); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "campaign: csv:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "campaign: csv:", err)
			return 1
		}
	}

	failures := 0
	for _, rec := range records {
		if !rec.OK {
			failures++
		}
	}
	if !*quiet {
		title := fmt.Sprintf("campaign %q: %d/%d runs ok in %v (seed %d)",
			*preset, len(records)-failures, len(records), elapsed.Round(time.Millisecond), *seed)
		fmt.Fprint(os.Stderr, campaign.Table(title, campaign.Aggregate(records)).Render())
	}

	if runErr != nil {
		fmt.Fprintln(os.Stderr, "campaign: aborted:", runErr)
		return 1
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %d run(s) failed\n", failures)
		return 1
	}
	return 0
}
