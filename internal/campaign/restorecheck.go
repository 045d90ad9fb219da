package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// This file is the campaign-level restore differential: the restore cell of
// `cmd/campaign -check`. For every engine mode (dense / frontier / word) ×
// coin source × churn combination it runs the same seeded AU workload twice
// — once uninterrupted for 2K steps, once checkpointed at step K via
// Engine.SaveState and continued in a freshly restored engine — and fails
// unless the two trajectories are identical step for step (configurations,
// round structure, churn commits, topology, trajectory metrics). This is
// the persistence half of the repo's determinism story: Differential proves
// every mode's records match the dense reference; this one proves a
// snapshot boundary is invisible. It digests a sim engine's steps instead
// of comparing records, so it is not a Differential side: restoring mid-run
// inside Execute would add code to the run path.

// restoreCheckCase is one cell of the restore-check matrix.
type restoreCheckCase struct {
	mode  string // dense | frontier | word
	p     int    // coin source: 0 shared stream, 1 per-(step, node) streams
	churn bool
}

func (c restoreCheckCase) String() string {
	churn := "off"
	if c.churn {
		churn = "on"
	}
	return fmt.Sprintf("%s p=%d churn=%s", c.mode, c.p, churn)
}

// restoreCheckCases enumerates the full matrix: dense/frontier/word × coin
// source P ∈ {0, 1} × churn off/on. P = 0 is the engine unisonsim
// -checkpoint writes and campaign -fork restores.
func restoreCheckCases() []restoreCheckCase {
	var cases []restoreCheckCase
	for _, mode := range []string{"dense", "frontier", "word"} {
		for _, p := range []int{0, 1} {
			for _, churn := range []bool{false, true} {
				cases = append(cases, restoreCheckCase{mode: mode, p: p, churn: churn})
			}
		}
	}
	return cases
}

// RestoreCheck runs the checkpoint/restore differential across the full
// mode matrix, writing one line per cell to out, and returns the number of
// failing cells (0 = the snapshot boundary is invisible everywhere).
func RestoreCheck(out io.Writer) int {
	const (
		n    = 48   // nodes; spans several 64-bit words in word mode
		d    = 4    // diameter bound → |Q| = 12d+6 = 54, word kernel active
		k    = 50   // steps before the checkpoint; the run continues k more
		seed = 1021 // base seed; graph/scheduler/engine/churn seeds derive
	)
	au, err := core.NewAU(d)
	if err != nil {
		fmt.Fprintln(out, "restore-check: setup:", err)
		return 1
	}
	failures := 0
	for _, c := range restoreCheckCases() {
		if err := restoreCheckOne(au, c, n, d, k, seed); err != nil {
			fmt.Fprintf(out, "restore-check %s: FAIL: %v\n", c, err)
			failures++
			continue
		}
		fmt.Fprintf(out, "restore-check %s: ok (%d steps, checkpoint at %d)\n", c, 2*k, k)
	}
	if failures == 0 {
		fmt.Fprintf(out, "restore-check: all %d mode combinations byte-identical across the snapshot boundary\n", len(restoreCheckCases()))
	}
	return failures
}

// restoreCheckOne checks one matrix cell: an uninterrupted 2k-step
// reference against a run checkpointed at step k and continued in a fresh
// restored engine. Both trajectories are reduced to a per-step digest over
// (configuration, rounds, churn commits, edge count); any divergence —
// however transient — fails the cell even if the endpoints happen to agree.
func restoreCheckOne(au *core.AU, c restoreCheckCase, n, d, k int, seed int64) error {
	build := func() (*sim.Engine, error) {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.RandomConnected(n, 0.15, rng)
		if err != nil {
			return nil, err
		}
		var churn *sim.ChurnSpec
		if c.churn {
			churn = &sim.ChurnSpec{
				Period:           3,
				Flips:            4,
				Crashes:          1,
				Seed:             seed + 3,
				KeepConnected:    true,
				MaxDiameterUpper: 2 * d,
			}
		}
		return sim.New(g, au, sim.Options{
			Scheduler:    sched.NewRandomSubsetSeeded(0.5, 12, seed+1),
			Seed:         seed + 2,
			Parallelism:  c.p,
			Frontier:     c.mode == "frontier",
			WordParallel: c.mode == "word",
			Churn:        churn,
		})
	}

	// Reference: 2k uninterrupted steps.
	ref, err := build()
	if err != nil {
		return err
	}
	refDigest := fnv.New64a()
	for i := 0; i < 2*k; i++ {
		if err := ref.Step(); err != nil {
			return fmt.Errorf("reference step %d: %w", i, err)
		}
		digestStep(refDigest, ref)
	}

	// Twin: k steps, SaveState, restore into a fresh engine (new scheduler
	// instance, same recipe — the fresh-process shape), k more steps.
	twin, err := build()
	if err != nil {
		return err
	}
	twinDigest := fnv.New64a()
	for i := 0; i < k; i++ {
		if err := twin.Step(); err != nil {
			return fmt.Errorf("twin step %d: %w", i, err)
		}
		digestStep(twinDigest, twin)
	}
	var snap bytes.Buffer
	if err := twin.SaveState(&snap); err != nil {
		return fmt.Errorf("save at step %d: %w", k, err)
	}

	restored, _, err := sim.Restore(bytes.NewReader(snap.Bytes()), au, sim.RestoreOptions{
		Scheduler: sched.NewRandomSubsetSeeded(0.5, 12, seed+1),
	})
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	for i := 0; i < k; i++ {
		if err := restored.Step(); err != nil {
			return fmt.Errorf("restored step %d: %w", k+i, err)
		}
		digestStep(twinDigest, restored)
	}

	if refDigest.Sum64() != twinDigest.Sum64() {
		return fmt.Errorf("trajectory digests diverged: reference %016x, checkpointed %016x", refDigest.Sum64(), twinDigest.Sum64())
	}
	// The digest already covers these, but compare the endpoints explicitly
	// so a failure names the diverging quantity.
	if !restored.Config().Equal(ref.Config()) {
		return fmt.Errorf("final configurations differ")
	}
	if restored.StepCount() != ref.StepCount() || restored.Rounds() != ref.Rounds() {
		return fmt.Errorf("position diverged: step %d/%d, rounds %d/%d",
			restored.StepCount(), ref.StepCount(), restored.Rounds(), ref.Rounds())
	}
	if restored.ChurnOps() != ref.ChurnOps() || restored.ChurnSkipped() != ref.ChurnSkipped() {
		return fmt.Errorf("churn counters diverged: ops %d/%d, skipped %d/%d",
			restored.ChurnOps(), ref.ChurnOps(), restored.ChurnSkipped(), ref.ChurnSkipped())
	}
	if restored.Graph().M() != ref.Graph().M() {
		return fmt.Errorf("edge counts diverged: %d/%d", restored.Graph().M(), ref.Graph().M())
	}
	if got, want := restored.Metrics().Snapshot().Trajectory(), ref.Metrics().Snapshot().Trajectory(); got != want {
		return fmt.Errorf("trajectory metrics diverged: %+v vs %+v", got, want)
	}
	return nil
}

// digestStep folds one step's trajectory-visible state into h: the full
// configuration plus the round count, churn commit count, and edge count.
func digestStep(h io.Writer, e *sim.Engine) {
	var word [8]byte
	for _, q := range e.Config() {
		binary.LittleEndian.PutUint64(word[:], uint64(q))
		h.Write(word[:])
	}
	for _, v := range [...]int{e.Rounds(), e.ChurnOps(), e.Graph().M()} {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
}
