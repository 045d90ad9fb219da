package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

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
	var meta RunMeta
	sections, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		return meta, err
	}
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
func Fork(snapPath string, opts ForkOptions, emit func(Record) error) error {
	if opts.Futures < 1 {
		return fmt.Errorf("campaign: fork needs at least 1 future, got %d", opts.Futures)
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		return err
	}
	meta, err := ReadRunMeta(data)
	if err != nil {
		return fmt.Errorf("campaign: %s: %w", snapPath, err)
	}
	for future := 0; future < opts.Futures; future++ {
		rec, err := forkFuture(data, meta, future)
		if err != nil {
			return fmt.Errorf("campaign: fork future %d: %w", future, err)
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}

// forkFuture restores one engine from the snapshot bytes and runs future
// f's perturbation: inject f+1 transient faults, then run to recovery.
func forkFuture(data []byte, meta RunMeta, future int) (Record, error) {
	au, err := core.NewAU(meta.D)
	if err != nil {
		return Record{}, err
	}
	s, err := sched.ByName(meta.Sched, meta.Seed)
	if err != nil {
		return Record{}, err
	}
	eng, _, err := sim.Restore(bytes.NewReader(data), au, sim.RestoreOptions{Scheduler: s})
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
		Diameter:    -1, // crash victims may be down; the full diameter is undefined
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
	if eng.ChurnOps() > 0 || eng.ChurnSkipped() > 0 {
		rec.Churn = "inherited"
		rec.ChurnOps = eng.ChurnOps()
		rec.ChurnSkipped = eng.ChurnSkipped()
	}
	rec.OK = true
	return rec, nil
}
