package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"thinunison/internal/budget"
	"thinunison/internal/core"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/snapshot"
)

// Fork mode turns one checkpoint into a scenario matrix of futures: the
// same unisonsim snapshot is restored once per future, each future is
// perturbed differently (future f suffers a burst of f+1 transient faults),
// and every future runs to recovery under the theorem budget, emitting one
// Record. Because restore is byte-exact, the futures differ ONLY in their
// perturbation — a counterfactual sweep over "how much damage can this
// exact mid-run state absorb?" that no fresh-seed campaign can ask, since a
// fresh run never revisits the same intermediate configuration.

// RunMeta is the "runmeta" checkpoint section that cmd/unisonsim writes
// beside the engine section and Fork reads back: the recipe a fresh process
// needs to rebuild the algorithm (the diameter bound D, hence the AU state
// space) and the scheduler (a sched.ByName name and base seed) before
// sim.Restore rewinds the engine itself. The JSON keys are the contract.
type RunMeta struct {
	D     int    `json:"d"`
	Sched string `json:"sched"`
	Seed  int64  `json:"seed"`
}

// runMetaSection names the RunMeta section in a checkpoint container.
const runMetaSection = "runmeta"

// Section encodes m as a checkpoint section, to pass to sim.Engine.SaveState.
func (m RunMeta) Section() (snapshot.Section, error) {
	data, err := json.Marshal(m)
	return snapshot.Section{Name: runMetaSection, Data: data}, err
}

// ReadRunMeta decodes the RunMeta section of the checkpoint container data.
func ReadRunMeta(data []byte) (RunMeta, error) {
	sections, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		return RunMeta{}, err
	}
	return runMetaOf(sections)
}

// runMetaOf decodes the RunMeta section of a checkpoint's sections.
func runMetaOf(sections map[string][]byte) (RunMeta, error) {
	var meta RunMeta
	metaBytes, ok := sections[runMetaSection]
	if !ok {
		return meta, fmt.Errorf("no %s section (not a unisonsim checkpoint)", runMetaSection)
	}
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return meta, fmt.Errorf("%s: %w", runMetaSection, err)
	}
	return meta, nil
}

// ForkOptions configures Fork.
type ForkOptions struct {
	// Futures is the number of alternative continuations to run (>= 1).
	Futures int
}

// Fork loads a unisonsim checkpoint from snapPath and runs Futures
// perturbed continuations of it, calling emit with one record per future in
// order. Record identity: Scenario is the future index, Trial the fault
// count injected, Seed the checkpointed run's base seed.
//
// The file is read and decoded once (sim.ReadCheckpoint), and every future
// restores its engine from that one checkpoint, sharing its graph. A future
// is a deterministic function of (checkpoint, f), so the futures run
// concurrently: min(GOMAXPROCS, Futures) worker goroutines take them in
// index order, each holding one engine at a time. emit runs on the caller's
// goroutine, in future order and never concurrently, so the records are
// the same at any GOMAXPROCS. The first error, from a future or from emit,
// stops new futures from starting, and Fork returns it once every worker
// has exited. A panic in a future is re-raised on the caller's goroutine.
func Fork(snapPath string, opts ForkOptions, emit func(Record) error) error {
	if opts.Futures < 1 {
		return fmt.Errorf("campaign: fork needs at least 1 future, got %d", opts.Futures)
	}
	f, err := os.Open(snapPath)
	if err != nil {
		return err
	}
	ck, extras, err := sim.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("campaign: %s: %w", snapPath, err)
	}
	meta, err := runMetaOf(extras)
	if err != nil {
		return fmt.Errorf("campaign: %s: %w", snapPath, err)
	}
	return forkFutures(ck, meta, opts.Futures, emit)
}

// forkResult is one future's outcome, handed from its worker to Fork's
// caller: the record, the error, or the recovered panic value.
type forkResult struct {
	rec      Record
	err      error
	panicked any
}

// forkFutures runs the futures on the worker pool and emits their records
// in order (see Fork).
func forkFutures(ck *sim.Checkpoint, meta RunMeta, futures int, emit func(Record) error) error {
	// One buffered slot per future: a worker never blocks on a result the
	// caller has stopped reading.
	results := make([]chan forkResult, futures)
	for i := range results {
		results[i] = make(chan forkResult, 1)
	}
	var (
		next atomic.Int64 // the next future to start
		stop atomic.Bool  // set by the first error: start no more futures
		wg   sync.WaitGroup
	)
	run := func(future int) (res forkResult) {
		defer func() {
			if v := recover(); v != nil {
				res = forkResult{panicked: v}
			}
		}()
		rec, err := forkFuture(ck, meta, future)
		if err != nil {
			err = fmt.Errorf("campaign: fork future %d: %w", future, err)
		}
		return forkResult{rec: rec, err: err}
	}
	workers := min(runtime.GOMAXPROCS(0), futures)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				future := int(next.Add(1) - 1)
				if future >= futures {
					return
				}
				res := run(future)
				if res.err != nil || res.panicked != nil {
					stop.Store(true)
				}
				results[future] <- res
			}
		}()
	}
	// On every way out, a panic included: stop the workers, then wait for
	// them (deferred calls run last-in first-out).
	defer wg.Wait()
	defer stop.Store(true)
	for _, ch := range results {
		res := <-ch
		if res.panicked != nil {
			panic(res.panicked)
		}
		if res.err != nil {
			return res.err
		}
		if err := emit(res.rec); err != nil {
			return err
		}
	}
	return nil
}

// forkFuture restores one engine from the checkpoint and runs future f's
// perturbation: inject f+1 transient faults, then run to recovery.
func forkFuture(ck *sim.Checkpoint, meta RunMeta, future int) (Record, error) {
	au, err := core.NewAU(meta.D)
	if err != nil {
		return Record{}, err
	}
	s, err := sched.ByName(meta.Sched, meta.Seed)
	if err != nil {
		return Record{}, err
	}
	eng, err := ck.Restore(au, sim.RestoreOptions{Scheduler: s})
	if err != nil {
		return Record{}, err
	}

	g := eng.Graph()
	faults := future + 1
	rec := Record{
		Scenario:    future,
		Family:      "fork",
		N:           g.N(),
		M:           g.M(),
		D:           meta.D,
		Diameter:    -1, // Fork computes no diameter
		Scheduler:   s.Name(),
		Algorithm:   string(AlgAU),
		Trial:       faults,
		Seed:        meta.Seed,
		Rounds:      eng.Rounds(),
		FaultCount:  faults,
		FaultBursts: 1,
	}
	rec.Budget = budget.AU(au.K())

	// The perturbation: every future draws its victims from the restored
	// rng state, so future f's burst is a deterministic function of
	// (snapshot, f) — reruns of the same fork are byte-identical.
	eng.InjectFaults(faults)
	good := func(e *sim.Engine) bool { return au.GraphGood(e.Graph(), e.Config()) }
	recovery, err := eng.RunUntil(good, rec.Budget)
	rec.Steps = eng.StepCount()
	if err != nil {
		rec.fail(fmt.Errorf("no recovery within %d rounds: %w", rec.Budget, err))
		return rec, nil
	}
	rec.RecoveryRounds = recovery
	rec.Rounds = eng.Rounds()
	rec.Headroom = float64(rec.Budget-recovery) / float64(rec.Budget)
	rec.OK = true
	return rec, nil
}
