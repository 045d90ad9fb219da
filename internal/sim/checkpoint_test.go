package sim_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
)

// TestCheckpointRestoresIndependentEngines: engines restored from one
// Checkpoint write nothing the others read. Two engines are restored from
// one ReadCheckpoint, on two goroutines at once, and stepped interleaved
// with faults injected into the first only; after every step each must
// save the same engine section as an engine from its own sim.Restore of
// the same bytes, stepped alike. The saved section covers the
// configuration, the topology, the rng streams, the fault buffer, the
// round tracker, the frontier and the metric words. A closing burst into
// the second engine pins that its fault buffer is its own. Engines of one
// checkpoint share its graph.
func TestCheckpointRestoresIndependentEngines(t *testing.T) {
	const (
		seed = 21
		k    = 40
	)
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := graph.RandomConnected(48, 0.15, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.4, 8, seed+1) }
	for _, m := range restoreModes() {
		if m.pastWindow {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			src, err := sim.New(base, au, sim.Options{
				Scheduler: mk(), Seed: seed, Frontier: m.frontier, WordParallel: m.word,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if i == k/2 {
					// The checkpoint then holds a fault buffer, which a
					// burst into either engine shuffles further.
					src.InjectFaults(3)
				}
				if err := src.Step(); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := src.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()

			ck, _, err := sim.ReadCheckpoint(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var (
				engines [2]*sim.Engine
				refs    [2]*sim.Engine
				errs    [2]error
				wg      sync.WaitGroup
			)
			for i := range engines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					engines[i], errs[i] = ck.Restore(au, sim.RestoreOptions{Scheduler: mk()})
				}()
			}
			wg.Wait()
			for i := range refs {
				if errs[i] != nil {
					t.Fatalf("checkpoint restore %d: %v", i, errs[i])
				}
				if refs[i], _, err = sim.Restore(bytes.NewReader(data), au, sim.RestoreOptions{Scheduler: mk()}); err != nil {
					t.Fatal(err)
				}
			}
			if engines[0].Graph() != engines[1].Graph() {
				t.Fatal("engines of one checkpoint do not share its graph")
			}

			// step advances engine i and its reference and compares their
			// saved sections.
			step := func(i int, faults int) {
				t.Helper()
				for _, e := range []*sim.Engine{engines[i], refs[i]} {
					if faults > 0 {
						e.InjectFaults(faults)
					}
					if err := e.Step(); err != nil {
						t.Fatal(err)
					}
				}
				got, err := engineSection(engines[i])
				if err != nil {
					t.Fatal(err)
				}
				want, err := engineSection(refs[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("engine %d at step %d saves a different state than its own restore", i, engines[i].StepCount())
				}
			}

			for i := 0; i < k; i++ {
				faults := 0
				if i%8 == 3 {
					faults = 5
				}
				step(0, faults)
				step(1, 0)
			}
			step(1, 5)
		})
	}
}

// TestCheckpointRestoreAllocatesOneTracker: Checkpoint.Restore builds the
// round tracker from the checkpoint and no other. Its n-sized allocations
// are the configuration and that tracker, one int per node each; a
// throwaway tracker from New would be a third. Measured on a fault-free
// star without frontier or word mode, where nothing else scales with n.
func TestCheckpointRestoreAllocatesOneTracker(t *testing.T) {
	const n = 1 << 14
	g, err := graph.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(2)
	if err != nil {
		t.Fatal(err)
	}
	src, err := sim.New(g, au, sim.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := src.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	ck, _, err := sim.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const restores = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < restores; i++ {
		if _, err := ck.Restore(au, sim.RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / restores / n / float64(unsafe.Sizeof(int(0)))
	t.Logf("Checkpoint.Restore allocates %.2f ints per node", perNode)
	if perNode >= 2.5 {
		t.Fatalf("Checkpoint.Restore allocates %.2f ints per node, want the configuration and one tracker (2 and a constant)", perNode)
	}
}
