// Command unisonsim runs AlgAU interactively on a chosen topology under a
// chosen scheduler, printing a round-by-round trace of the stabilization
// process and then a post-stabilization pulse trace:
//
//	unisonsim -graph cycle -n 8
//	unisonsim -graph random -n 16 -sched random -faults 5
//	unisonsim -graph grid -n 12 -sched laggard -trace
//
// It is the quickest way to watch the "closing the gap" dynamics of the
// faulty-detour mechanism described in Sec. 2.1 of the paper.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	paperbudget "thinunison/internal/budget"
	"thinunison/internal/campaign"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/snapshot"
	"thinunison/internal/trace"
)

// saveCheckpoint writes the engine snapshot plus the runmeta section to path
// and points the flight recorder at it, so a later failure dump names the
// checkpoint that replays the window. The write is atomic (temp file, fsync,
// rename): a crash mid-checkpoint never leaves a torn file, and any previous
// checkpoint at path survives intact.
func saveCheckpoint(path string, eng *sim.Engine, meta campaign.RunMeta, tracer *obs.Tracer) error {
	section, err := meta.Section()
	if err != nil {
		return err
	}
	err = snapshot.AtomicWriteFile(path, func(w io.Writer) error {
		return eng.SaveState(w, section)
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tracer.SetSnapshotRef(path)
	fmt.Printf("checkpoint written to %s (step %d, round %d)\n", path, eng.StepCount(), eng.Rounds())
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unisonsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family    = flag.String("graph", "cycle", "topology: path|cycle|star|complete|grid|tree|random|boundedD")
		n         = flag.Int("n", 8, "number of nodes")
		d         = flag.Int("d", 0, "diameter bound (0 = graph diameter)")
		schedName = flag.String("sched", "sync", "scheduler: sync|rr|random|laggard|permuted")
		seed      = flag.Int64("seed", 1, "random seed")
		faults    = flag.Int("faults", 0, "inject this many transient faults after stabilization")
		traceFlag = flag.Bool("trace", false, "print the configuration every round")
		pulses    = flag.Int("pulses", 10, "post-stabilization rounds to trace")
		csvPath   = flag.String("csv", "", "write per-round metrics to this CSV file")

		debugAddr  = flag.String("debug-addr", "", "serve expvar + pprof on this address for the run's lifetime")
		traceEvery = flag.Int("trace-every", 0, "emit every Nth step as a JSONL trace sample to -trace-out (0 = off)")
		traceOut   = flag.String("trace-out", "", "step-trace JSONL path (- or empty = stderr)")
		flightRing = flag.Int("flight-ring", 0, "flight-recorder depth in steps (0 = default 64); dumped on stderr when the run fails")
		stats      = flag.Bool("stats", false, "print the engine's metric snapshot on exit")

		checkpoint   = flag.String("checkpoint", "", "write an engine snapshot to this path (at -checkpoint-at steps, or at stabilization)")
		checkpointAt = flag.Int("checkpoint-at", 0, "take the -checkpoint snapshot after this many steps (0 = at stabilization)")
		restorePath  = flag.String("restore", "", "resume a run from this snapshot instead of starting fresh")
		replayFrom   = flag.String("replay-from", "", "like -restore, but with the round trace forced on: deterministic time-travel replay of the post-checkpoint window")
	)
	flag.Parse()

	if *replayFrom != "" {
		*restorePath = *replayFrom
		*traceFlag = true
	}

	if *debugAddr != "" {
		addr, stopSrv, err := obs.Serve(*debugAddr)
		if err != nil {
			return err
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "unisonsim: debug endpoint on http://%s/debug/vars\n", addr)
	}

	// Always attach a tracer: the ring is the flight recorder dumped on
	// failure, and -trace-every additionally samples steps to a JSONL sink.
	var sink obs.Sink
	if *traceEvery > 0 {
		sinkOut := io.Writer(os.Stderr)
		if *traceOut != "" && *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			sinkOut = f
		}
		jsonl := obs.NewJSONL(sinkOut)
		defer jsonl.Flush()
		sink = jsonl
	}
	tracer := obs.NewTracer(*flightRing, *traceEvery, sink)
	mx := &obs.Metrics{}
	obs.Publish("unisonsim", mx)

	var (
		eng  *sim.Engine
		au   *core.AU
		s    sched.Scheduler
		meta campaign.RunMeta
	)
	if *restorePath != "" {
		data, err := os.ReadFile(*restorePath)
		if err != nil {
			return err
		}
		// Peek the runmeta section first: the algorithm and scheduler are
		// rebuilt from the recipe before the engine restore rewinds them.
		if meta, err = campaign.ReadRunMeta(data); err != nil {
			return fmt.Errorf("%s: %w", *restorePath, err)
		}
		if au, err = core.NewAU(meta.D); err != nil {
			return err
		}
		if s, err = sched.ByName(meta.Sched, meta.Seed); err != nil {
			return err
		}
		eng, _, err = sim.Restore(bytes.NewReader(data), au, sim.RestoreOptions{Scheduler: s, Metrics: mx, Trace: tracer})
		if err != nil {
			return err
		}
		tracer.SetSnapshotRef(*restorePath)
		fmt.Printf("restored %s: step %d, round %d\n", *restorePath, eng.StepCount(), eng.Rounds())
	} else {
		rng := rand.New(rand.NewSource(*seed))
		g, err := graph.FromFamily(graph.Family(*family), *n, maxInt(*d, 1), rng)
		if err != nil {
			return err
		}
		bound := *d
		if bound == 0 {
			bound = g.Diameter()
			if bound < 1 {
				bound = 1
			}
		}
		if au, err = core.NewAU(bound); err != nil {
			return err
		}
		if s, err = sched.ByName(*schedName, *seed); err != nil {
			return err
		}
		meta = campaign.RunMeta{D: bound, Sched: *schedName, Seed: *seed}
		eng, err = sim.New(g, au, sim.Options{Scheduler: s, Seed: *seed, Metrics: mx, Trace: tracer})
		if err != nil {
			return err
		}
	}
	g := eng.Graph()
	// On any failure (budget exhaustion, no recovery), dump the flight ring
	// so the last steps before the failure are inspectable.
	fail := func(err error) error {
		if derr := tracer.Dump(os.Stderr, err.Error()); derr != nil {
			return errors.Join(err, derr)
		}
		return err
	}
	var rec *trace.Recorder
	if *csvPath != "" {
		rec = trace.NewRecorder(au, g)
		rec.Attach(eng)
	}

	fmt.Printf("AlgAU on %s (diameter %d, bound D=%d, k=%d, %d states), scheduler %s\n",
		g, g.Diameter(), meta.D, au.K(), au.NumStates(), s.Name())
	fmt.Printf("initial: %s\n", eng.Config().String(au))

	k := au.K()
	budget := paperbudget.AU(k)
	lastRound := -1
	for !au.GraphGood(g, eng.Config()) {
		if err := eng.Step(); err != nil {
			return err
		}
		if *checkpoint != "" && *checkpointAt > 0 && eng.StepCount() == *checkpointAt {
			if err := saveCheckpoint(*checkpoint, eng, meta, tracer); err != nil {
				return err
			}
		}
		if *traceFlag && eng.Rounds() != lastRound {
			lastRound = eng.Rounds()
			fmt.Printf("round %4d: %s  (faulty: %d, protected edges: %d/%d)\n",
				eng.Rounds(), eng.Config().String(au),
				au.FaultyNodeCount(eng.Config()),
				au.ProtectedEdgeCount(g, eng.Config()), g.M())
		}
		if eng.Rounds() > budget {
			return fail(fmt.Errorf("did not stabilize within %d rounds", budget))
		}
	}
	fmt.Printf("stabilized after %d rounds: %s\n", eng.Rounds(), eng.Config().String(au))
	if *checkpoint != "" && *checkpointAt == 0 {
		if err := saveCheckpoint(*checkpoint, eng, meta, tracer); err != nil {
			return err
		}
	}

	fmt.Printf("pulsing for %d rounds:\n", *pulses)
	for i := 0; i < *pulses; i++ {
		if err := eng.RunRounds(1); err != nil {
			return err
		}
		fmt.Printf("  round %4d: %s\n", eng.Rounds(), eng.Config().String(au))
	}

	if *faults > 0 {
		hit := eng.InjectFaults(*faults)
		fmt.Printf("injected %d faults at nodes %v: %s\n", len(hit), hit, eng.Config().String(au))
		rounds, err := eng.RunUntil(func(e *sim.Engine) bool {
			return au.GraphGood(g, e.Config())
		}, budget)
		if err != nil {
			return fail(fmt.Errorf("no recovery within %d rounds: %w", budget, err))
		}
		fmt.Printf("recovered after %d rounds: %s\n", rounds, eng.Config().String(au))
	}

	if rec != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("wrote %d per-round samples to %s\n", len(rec.Samples()), *csvPath)
	}
	if *stats {
		snap, err := json.Marshal(mx.Snapshot())
		if err != nil {
			return err
		}
		fmt.Printf("engine metrics: %s\n", snap)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
