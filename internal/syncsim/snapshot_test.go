package syncsim_test

import (
	"bytes"
	"math/rand"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/snapshot"
	"thinunison/internal/syncsim"
)

// noisyClock is an rng-consuming program: advance to one past the minimum
// sensed value, jittered by a coin toss. It never quiesces, so it exercises
// the shared rng stream (p = 0) and the per-(round, node) streams (p >= 1)
// on every round — exactly what the checkpoint must rewind.
func noisyClock(self int, sensed []int, rng *rand.Rand) int {
	next := syncsim.MinSensed(sensed, func(v int) int { return v }) + 1 + rng.Intn(2)
	return next % 1024
}

// TestSyncsimRestoreDifferential: run K rounds of a synchronous engine,
// snapshot, restore, run K more — byte-identical to the uninterrupted run,
// at every parallelism, with a fault burst after the restore point pinning
// the rng cursor.
func TestSyncsimRestoreDifferential(t *testing.T) {
	const (
		seed = 31
		k    = 25
	)
	rng := rand.New(rand.NewSource(6))
	g, err := graph.RandomConnected(40, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
	initRNG := rand.New(rand.NewSource(seed))
	initial := make([]int, g.N())
	for v := range initial {
		initial[v] = initRNG.Intn(1024)
	}
	encode := func(e *snapshot.Enc, s int) { e.Int(s) }
	decode := func(d *snapshot.Dec) int { return d.Int() }
	randomState := func(rng *rand.Rand) int { return rng.Intn(1024) }

	for _, p := range []int{0, 1, 3, 8} {
		ref, err := asyncsim.NewParallel(g, noisyClock, initial, nil, seed, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			ref.Step()
		}
		var buf bytes.Buffer
		if err := ref.SaveState(&buf, encode); err != nil {
			t.Fatalf("p=%d: save: %v", p, err)
		}
		restored, _, err := asyncsim.Restore(bytes.NewReader(buf.Bytes()), decode, asyncsim.RestoreOptions[int]{Step: noisyClock})
		if err != nil {
			t.Fatalf("p=%d: restore: %v", p, err)
		}
		if restored.Rounds() != ref.Rounds() {
			t.Fatalf("p=%d: restored round=%d, reference=%d", p, restored.Rounds(), ref.Rounds())
		}
		for i := 0; i < k; i++ {
			if i == k/2 {
				hitA := append([]int(nil), ref.InjectFaults(4, randomState)...)
				hitB := restored.InjectFaults(4, randomState)
				for j := range hitA {
					if hitA[j] != hitB[j] {
						t.Fatalf("p=%d: fault victims diverged", p)
					}
				}
			}
			ref.Step()
			restored.Step()
			a, b := ref.View(), restored.View()
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("p=%d: round %d: node %d diverged", p, i, v)
				}
			}
		}
	}
}
