package sim_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"thinunison/internal/budget"
	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/obs"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// TestSnapshotLargeGraphUnderASecond pins the checkpoint cost envelope: a
// 10^5-node engine must SaveState and Restore in under a second combined
// (the serialization is one varint-delta pass over the CSR arrays and the
// configuration, a byte per node of round-tracker stamps, and a fixed-size
// state per rng stream — nothing per-edge beyond the CSR itself, and
// nothing that grows with the step count). The bound is relaxed under the
// race detector, whose instrumentation taxes every word copy.
func TestSnapshotLargeGraphUnderASecond(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-node instance; skipped with -short")
	}
	const n = 100_000
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(g, au, sim.Options{
		Scheduler:    sched.NewRandomSubsetSeeded(0.5, 16, 3),
		Seed:         2,
		Frontier:     true,
		WordParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 5; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	var buf bytes.Buffer
	if err := eng.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, _, err := sim.Restore(bytes.NewReader(buf.Bytes()), au, sim.RestoreOptions{
		Scheduler: sched.NewRandomSubsetSeeded(0.5, 16, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	elapsed := time.Since(start)

	limit := time.Second
	if raceEnabled {
		limit = 10 * time.Second
	}
	if elapsed > limit {
		t.Fatalf("save+restore of %d nodes took %v, budget %v (snapshot %d bytes)", n, elapsed, limit, buf.Len())
	}
	if !restored.Config().Equal(eng.Config()) {
		t.Fatal("large-graph restore diverged")
	}
	t.Logf("save+restore of %d nodes: %v, snapshot %d bytes", n, elapsed, buf.Len())
}

// BenchmarkSaveState times one SaveState of an engine shaped like the
// checkpoint-fork benchmark's: a bounded-diameter graph of 10^5 nodes with
// D = 4, dense scalar AlgAU under the "random" scheduler, a few steps in.
// The staging buffer is reused, so the time is the encoder's.
func BenchmarkSaveState(b *testing.B) {
	au, err := core.NewAU(4)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.BoundedDiameter(100_000, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.ByName("random", 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.New(g, au, sim.Options{Scheduler: s, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 20; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := eng.SaveState(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/save")
}

// TestSteadyStepZeroAllocsCheckpointArmed: arming a run for checkpointing —
// the engine's randx.Source coin stream, a seeded (checkpointable)
// scheduler, a tracer holding a snapshot reference — must not cost the
// steady step its zero-allocation property. A checkpoint reads the
// generator states only when it is saved, so the step path is unchanged.
func TestSteadyStepZeroAllocsCheckpointArmed(t *testing.T) {
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Cycle(1000)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(0, 0, nil)
	tracer.SetSnapshotRef("armed.snap")
	eng, err := sim.New(g, au, sim.Options{
		Scheduler: sched.NewRandomSubsetSeeded(0.5, 16, 5),
		Seed:      2,
		Frontier:  true,
		Trace:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.RunUntil(func(e *sim.Engine) bool {
		return au.GraphGood(g, e.Config())
	}, budget.AU(au.K())); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(128, func() {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 0.5 {
		t.Errorf("checkpoint-armed steady step allocates %.3f allocs/op, want 0", avg)
	}
}
