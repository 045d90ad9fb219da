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
// mode on or off, and -word opts AU scenarios into word-parallel
// (bit-planed batch) transition evaluation. Neither changes record bytes.
//
// -check LIST runs the preset as a differential guard instead of a normal
// campaign: campaign.Differential runs every scenario on the reference (the
// engine's dense scalar path) and on each listed cell, with the GoodMonitor
// full-scan oracle armed on every local side, and fails unless every
// reference record is ok and every cell's records are byte-identical to the
// reference's, naming the first differing field and the seed. The cells are
// the engine modes frontier, word and frontier+word (-parallelism pins the
// coin source on every side); remote, an in-process unisond on a unix
// socket with -parallelism, -frontier and -word forwarded; chaos, a seeded
// fault schedule (-chaos-seed) with a kill-and-resume; and restore, the
// checkpoint/restore matrix over every engine mode × coin source × churn
// combination (it ignores -preset).
//
// The campaign harness is itself self-stabilizing (see internal/failpoint):
// workers are panic-isolated, -retries re-runs transient failures with
// backoff, -watchdog cuts down stalled runs, -scenario-timeout bounds each
// run deterministically, and -resume logs survive torn writes and bit rot
// via a CRC sidecar; the chaos cell holds the harness to that.
//
// Observability (see internal/obs): -progress paints a live throughput line
// on stderr, -metrics keeps each record's engine-counter block, -debug-addr
// serves expvar + pprof with live campaign-wide counters, -trace-every N
// samples every Nth step of every run to -trace-out (deterministic — -check
// runs with tracing attached to prove it never perturbs records), and
// -flight dumps the last steps of every failed run.
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
	"slices"
	"strings"
	"time"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/daemonclient"
	"thinunison/internal/obs"
)

// modeCells are the engine-mode sides of -check, each a forced execution
// mode scored against the dense scalar reference. The coin source is not a
// cell: its sign shows in MIS/LE records, so -parallelism pins it on every
// side instead.
var modeCells = map[string]func(*campaign.Scenario){
	"frontier":      func(sc *campaign.Scenario) { sc.Frontier, sc.WordParallel = 1, false },
	"word":          func(sc *campaign.Scenario) { sc.Frontier, sc.WordParallel = -1, true },
	"frontier+word": func(sc *campaign.Scenario) { sc.Frontier, sc.WordParallel = 1, true },
}

// checkCells lists every -check name, in help order.
var checkCells = []string{"frontier", "word", "frontier+word", "remote", "chaos", "restore"}

// check runs the -check differential: the scenarios run once on the dense
// scalar reference and once per listed record cell, with the GoodMonitor
// full-scan oracle armed on every local side, and every record must be ok
// and byte-identical to the reference. The restore cell runs the
// sim-level checkpoint matrix (campaign.RestoreCheck) instead. Returns a
// process exit code.
func check(cells []string, scenarios []campaign.Scenario, workers int, remote wire.SubmitSpec, chaosSeed int64) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	failures := 0
	var sides []campaign.Side
	for _, cell := range cells {
		switch cell {
		case "remote":
			sides = append(sides, remoteSide(remote))
		case "chaos":
			sides = append(sides, campaign.ChaosSide(campaign.ChaosOptions{Seed: chaosSeed, Workers: workers}))
		case "restore":
			failures += campaign.RestoreCheck(os.Stderr)
		default:
			sides = append(sides, campaign.LocalSide(cell, workers, modeCells[cell]))
		}
	}
	if len(sides) > 0 {
		for i := range scenarios {
			scenarios[i].MonitorOracle = true
		}
		dense := campaign.LocalSide("dense", workers, func(sc *campaign.Scenario) {
			sc.Frontier, sc.WordParallel = -1, false
		})
		failures += campaign.Differential(ctx, os.Stderr, scenarios, dense, sides...)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "campaign: -check FAILED: %d failure(s)\n", failures)
		return 1
	}
	return 0
}

// remoteSide runs the submission through a real unisond — an in-process
// daemon served on a throwaway unix socket, submitted and streamed over the
// wire protocol — and returns the streamed records. Matching the reference
// is what makes daemon mode transparent: a client cannot tell from the
// records whether a campaign ran locally or behind the socket.
func remoteSide(spec wire.SubmitSpec) campaign.Side {
	return campaign.Side{Name: "remote", Run: func(ctx context.Context, _ []campaign.Scenario) ([]campaign.Record, error) {
		// Socket paths have a ~100-byte limit, so a short-lived tempdir
		// rather than the work dir.
		dir, err := os.MkdirTemp("", "unisond")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		srv, err := daemon.New(daemon.Options{Fleet: spec.Workers})
		if err != nil {
			return nil, err
		}
		sock := filepath.Join(dir, "d.sock")
		if err := srv.ListenAndServe(sock); err != nil {
			return nil, err
		}
		defer srv.Kill()
		var stream bytes.Buffer
		info, err := daemonclient.New(sock).Run(ctx, spec, &stream)
		if err != nil {
			return nil, err
		}
		if info.State != wire.StateDone {
			return nil, fmt.Errorf("daemon run ended %s (%s)", info.State, info.Err)
		}
		return campaign.ParseJSONL(stream.Bytes())
	}}
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
		checks  = flag.String("check", "", "differential guard instead of a normal campaign: run every scenario on the dense scalar reference and on each listed cell, with the GoodMonitor full-scan oracle armed, and fail unless every record is ok and byte-identical to the reference; cells: "+strings.Join(checkCells, ", ")+" (restore runs the checkpoint/restore matrix, which ignores -preset)")
		fork    = flag.String("fork", "", "fork mode: restore this unisonsim checkpoint into -fork-futures perturbed continuations (future f suffers f+1 transient faults) and emit one record per future (ignores -preset)")
		futures = flag.Int("fork-futures", 8, "number of alternative futures -fork runs")
		word    = flag.Bool("word", false, "force word-parallel (bit-planed batch) AU execution; falls back to scalar when the algorithm offers no word kernel (records are identical either way)")

		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the fault schedule of the -check chaos cell (worker panics, injected engine errors, stalls, torn writes, then a kill-and-resume); a failing run prints the seed that reproduces it")
		retries   = flag.Int("retries", 0, "re-execute scenarios that fail transiently (worker panics, watchdog stalls, injected faults) up to this many times with exponential backoff")
		watchdog  = flag.Duration("watchdog", 0, "per-scenario stall watchdog: fail (transiently, so -retries applies) any run making no step progress for this long (0 = off)")
		scTimeout = flag.Duration("scenario-timeout", 0, "per-scenario deadline: fail (deterministically; never retried) any run exceeding it (0 = none)")

		metrics    = flag.Bool("metrics", false, "keep each record's engine-telemetry block (mode-dependent counters; breaks byte-for-byte comparability across execution modes)")
		progress   = flag.Bool("progress", false, "live progress line on stderr (done/total, evals/s, ETA); never touches the JSONL stream")
		debugAddr  = flag.String("debug-addr", "", "serve expvar + pprof on this address (e.g. localhost:6060) for the campaign's lifetime")
		traceEvery = flag.Int("trace-every", 0, "emit every Nth step of every run as a trace sample (0 = off); deterministic, never perturbs records")
		traceOut   = flag.String("trace-out", "", "trace-sample JSONL path (default: discard, which still exercises the tracer under -check)")
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
	// spec works at any worker count; under -check the spec rides along on
	// every local side, proving the differentials hold with tracing attached.
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

	if *checks != "" {
		cells := strings.Split(*checks, ",")
		for _, cell := range cells {
			if !slices.Contains(checkCells, cell) {
				fmt.Fprintf(os.Stderr, "campaign: unknown -check cell %q (valid: %s)\n", cell, strings.Join(checkCells, ", "))
				return 2
			}
		}
		remote := wire.SubmitSpec{Preset: *preset, Seed: *seed, Workers: *workers,
			Parallelism: *par, Frontier: *front, WordParallel: *word}
		return check(cells, scenarios, *workers, remote, *chaosSeed)
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
