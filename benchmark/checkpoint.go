package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"thinunison/internal/budget"
	"thinunison/internal/campaign"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/snapshot"
)

// runMeta is the "runmeta" checkpoint section cmd/unisonsim writes and
// campaign.Fork reads back: the recipe a fresh process needs to rebuild the
// algorithm and the scheduler.
type runMeta struct {
	D     int    `json:"d"`
	Sched string `json:"sched"`
	Seed  int64  `json:"seed"`
}

// runCheckpoint is the checkpoint-fork workload. Set-up builds a
// bounded-diameter graph of CkptN nodes with the "random" scheduler and the
// default sim.Options, as unisonsim does, and runs it to GraphGood. The
// timed loop repeats a cycle of three steps and an atomic checkpoint
// (SaveState plus runmeta); every ForkEvery-th checkpoint is forked into
// Futures futures with campaign.Fork, for seconds/ForkPeriod such fork
// periods. Untimed after each cycle, the checkpoint is restored
// and must reproduce the engine's configuration and step count; after the
// loop the first forked checkpoint is forked again and must reproduce its
// records byte for byte.
func runCheckpoint(b *bench) error {
	meta := runMeta{D: 4, Sched: "random", Seed: b.seed}
	metaBytes, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	var (
		eng *sim.Engine
		au  *core.AU
	)
	setupLane := b.tr.lane(0)
	release, err := b.setup(func() (func(), error) {
		l := setupLane
		rng := rand.New(rand.NewSource(b.seed))
		l.begin("graph.build")
		g, err := graph.FromFamily(graph.FamilyBoundedD, b.sz.CkptN, meta.D, rng)
		l.end()
		if err != nil {
			return nil, err
		}
		a, err := core.NewAU(meta.D)
		if err != nil {
			return nil, err
		}
		s, err := sched.ByName(meta.Sched, meta.Seed)
		if err != nil {
			return nil, err
		}
		l.begin("sim.new")
		e, err := sim.New(g, a, sim.Options{Scheduler: s, Seed: meta.Seed})
		l.end()
		if err != nil {
			return nil, err
		}
		l.begin("sim.stabilize")
		_, err = e.RunUntil(l.timedCond(func() bool { return a.GraphGood(g, e.Config()) }), budget.AU(a.K()))
		l.end()
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("checkpoint engine did not stabilize: %w", err)
		}
		eng, au = e, a
		return e.Close, nil
	})
	setupLane.close()
	defer release()
	if err != nil {
		return err
	}

	path := filepath.Join(b.dir, "checkpoint.snap")
	// save writes the checkpoint atomically and returns how long SaveState
	// took; the rest of the write is the temp file, fsync and rename.
	save := func(l *lane) (encode time.Duration, err error) {
		err = snapshot.AtomicWriteFile(path, func(w io.Writer) error {
			l.begin("snapshot.save")
			t := time.Now()
			err := eng.SaveState(w, snapshot.Section{Name: "runmeta", Data: metaBytes})
			encode = time.Since(t)
			l.end()
			return err
		})
		return encode, err
	}
	restoreCheck := func() error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		s, err := sched.ByName(meta.Sched, meta.Seed)
		if err != nil {
			return err
		}
		e, _, err := sim.Restore(bytes.NewReader(data), au, sim.RestoreOptions{Scheduler: s})
		if err != nil {
			b.op(false, "restore checkpoint at step %d: %v", eng.StepCount(), err)
			return nil
		}
		defer e.Close()
		same := slices.Equal(e.Config(), eng.Config())
		b.op(same && e.StepCount() == eng.StepCount(),
			"checkpoint at step %d restored to step %d, equal configuration=%v", eng.StepCount(), e.StepCount(), same)
		return nil
	}

	// Fork futures from later checkpoints need more recovery steps, so the
	// loop runs a cycle count fixed by -seconds, never "until time is up".
	periods := max(1, int(math.Round(float64(b.seconds)/float64(b.sz.ForkPeriod))))
	var (
		timed     time.Duration
		cycles    = periods * b.sz.ForkEvery
		ckptMS    = samples{unit: unitMS}
		futureMS  = samples{unit: unitMS}
		firstFork []byte // encoded records of the first fork
		firstCkpt = filepath.Join(b.dir, "first-fork.snap")
	)
	for cycle := 0; cycle < cycles; cycle++ {
		t := time.Now()
		for i := 0; i < 3; i++ {
			if err := eng.Step(); err != nil {
				return err
			}
		}
		c := time.Now()
		if _, err := save(nil); err != nil {
			return err
		}
		ckptMS.add(time.Since(c))
		forked := (cycle+1)%b.sz.ForkEvery == 0
		var recs []campaign.Record
		if forked {
			if recs, err = forkTimed(path, b.sz.Futures, &futureMS); err != nil {
				return err
			}
		}
		timed += time.Since(t)

		if err := restoreCheck(); err != nil {
			return err
		}
		for _, r := range recs {
			b.op(r.OK, "fork at step %d, future %d: %s", eng.StepCount(), r.Scenario, r.Err)
		}
		if forked && firstFork == nil {
			if firstFork, err = encodeRecords(recs); err != nil {
				return err
			}
			if err := copyFile(path, firstCkpt); err != nil {
				return err
			}
		}
		// Collect the checks' garbage now, so it is not charged to the
		// next timed cycle.
		runtime.GC()
	}
	again, err := forkTimed(firstCkpt, b.sz.Futures, nil)
	if err != nil {
		return err
	}
	enc, err := encodeRecords(again)
	if err != nil {
		return err
	}
	b.op(bytes.Equal(enc, firstFork), "re-fork of the first forked checkpoint does not reproduce its records")

	n := len(ckptMS.xs)
	b.e2e = append(b.e2e,
		rate("throughput_per_s", float64(cycles), timed, n),
		ckptMS.pct("latency_ms_p50", 50),
	)
	b.extra = append(b.extra,
		futureMS.pct("fork_future_ms_p50", 50),
		ckptMS.pct("checkpoint_ms_p90", 90),
	)
	if b.tr == nil {
		return nil
	}
	return b.tracedCheckpoints(eng, meta, path, save, max(1, periods/2)*b.sz.ForkEvery)
}

// tracedCheckpoints is checkpoint-fork's traced pass: the same cycle, for
// the given number of cycles, with every layer call timed. Each fork runs
// twice on the same checkpoint, untraced through campaign.Fork and traced
// through replayFuture, which must reproduce its records; their time ratio
// is the tracing overhead.
func (b *bench) tracedCheckpoints(eng *sim.Engine, meta runMeta, path string, save func(*lane) (time.Duration, error), cycles int) error {
	l := b.tr.lane(0)
	stepH := l.hist("sim.step")
	var (
		forkTime, replayTime time.Duration
		saveMS, fsyncMS      = samples{unit: unitMS}, samples{unit: unitMS}
		engine               obs.Snapshot
		size                 int64
		replays              int
	)
	for cycle := 0; cycle < cycles; cycle++ {
		l.run = int64(cycle)
		for i := 0; i < 3; i++ {
			s := time.Now()
			if err := eng.Step(); err != nil {
				return err
			}
			l.call(stepH, "sim.step", s, time.Since(s))
		}
		l.begin("snapshot.checkpoint")
		encode, err := save(l)
		d := l.end()
		if err != nil {
			return err
		}
		saveMS.add(encode)
		fsyncMS.add(d - encode)
		if st, err := os.Stat(path); err == nil {
			size = st.Size()
		}
		if (cycle+1)%b.sz.ForkEvery == 0 {
			f := time.Now()
			recs, err := forkTimed(path, b.sz.Futures, nil)
			if err != nil {
				return err
			}
			forkTime += time.Since(f)
			for _, rec := range recs {
				var buf bytes.Buffer
				l.begin("campaign.encode")
				err := campaign.AppendJSONL(&buf, rec)
				l.end()
				if err != nil {
					return err
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			r := time.Now()
			for future, want := range recs {
				mx := &obs.Metrics{}
				got, err := replayFuture(l, data, meta, future, mx)
				replays++
				b.op(err == nil && got == outcomeOf(want), "traced replay of future %d: %+v (%v), campaign.Fork record %+v",
					future, got, err, outcomeOf(want))
				addSnapshot(&engine, mx.Snapshot())
			}
			replayTime += time.Since(r)
		}
	}
	l.close()
	addSnapshot(&engine, eng.Metrics().Snapshot())
	b.layer = append(b.layer,
		saveMS.pct("snapshot.save_ms_p50", 50),
		fsyncMS.pct("snapshot.fsync_ms_p50", 50),
		value("snapshot.bytes", unitBytes, float64(size), len(saveMS.xs)),
		b.tr.histOf("snapshot.restore").pct("snapshot.restore_ms_p50", unitMS, 50),
		b.tr.histOf("fork.recovery").pct("fork.recovery_ms_p50", unitMS, 50),
	)
	b.layerMetrics(engine, ratio("trace.overhead_ratio", float64(replayTime), float64(forkTime), replays))
	return nil
}

// forkTimed runs campaign.Fork on a checkpoint and returns its records,
// adding each future's time (the gap between successive records) to
// futureMS when it is non-nil.
func forkTimed(path string, futures int, futureMS *samples) ([]campaign.Record, error) {
	var recs []campaign.Record
	prev := time.Now()
	err := campaign.Fork(path, campaign.ForkOptions{Futures: futures}, func(r campaign.Record) error {
		now := time.Now()
		if futureMS != nil {
			futureMS.add(now.Sub(prev))
		}
		prev = now
		recs = append(recs, r)
		return nil
	})
	return recs, err
}

// replayFuture re-executes one fork future through the public engine API
// with each layer call timed on lane l, exactly as campaign.Fork runs it:
// restore, inject future+1 faults, run to GraphGood under the AU budget.
func replayFuture(l *lane, data []byte, meta runMeta, future int, mx *obs.Metrics) (outcome, error) {
	l.begin("fork.future")
	defer l.end()
	au, err := core.NewAU(meta.D)
	if err != nil {
		return outcome{}, err
	}
	s, err := sched.ByName(meta.Sched, meta.Seed)
	if err != nil {
		return outcome{}, err
	}
	l.begin("snapshot.restore")
	eng, _, err := sim.Restore(bytes.NewReader(data), au, sim.RestoreOptions{Scheduler: s, Metrics: mx})
	l.end()
	if err != nil {
		return outcome{}, err
	}
	defer eng.Close()
	out := outcome{Rounds: eng.Rounds()}
	l.begin("fork.recovery")
	defer l.end()
	l.begin("sim.inject_faults")
	eng.InjectFaults(future + 1)
	l.end()
	g := eng.Graph()
	recovery, err := eng.RunUntil(l.timedCond(func() bool { return au.GraphGood(g, eng.Config()) }), budget.AU(au.K()))
	out.Steps = eng.StepCount()
	if err != nil {
		return out, nil
	}
	out.RecoveryRounds, out.Rounds, out.OK = recovery, eng.Rounds(), true
	return out, nil
}

// encodeRecords is the records' JSONL stream.
func encodeRecords(recs []campaign.Record) ([]byte, error) {
	var buf bytes.Buffer
	err := campaign.WriteJSONL(&buf, recs)
	return buf.Bytes(), err
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, data, 0o644)
}
