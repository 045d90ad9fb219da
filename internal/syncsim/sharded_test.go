package syncsim_test

// These tests pin the coin-source and lane plugs of asyncsim.NewParallel
// under the synchronous schedule (the nil scheduler, where steps are
// rounds): every p >= 1 draws from the same per-(round, node) streams, so
// sharding must not change a byte of the run, and p = 0 is the
// shared-stream engine of asyncsim.New.

import (
	"math/rand"
	"reflect"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/graph"
	"thinunison/internal/le"
	"thinunison/internal/mis"
	"thinunison/internal/restart"
	"thinunison/internal/syncsim"
)

func diffGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	gs := map[string]*graph.Graph{}
	var err error
	if gs["path"], err = graph.Path(31); err != nil {
		t.Fatal(err)
	}
	if gs["cycle"], err = graph.Cycle(36); err != nil {
		t.Fatal(err)
	}
	if gs["star"], err = graph.Star(24); err != nil {
		t.Fatal(err)
	}
	if gs["random"], err = graph.RandomConnected(48, 0.12, rng); err != nil {
		t.Fatal(err)
	}
	return gs
}

// runDifferential drives a synchronous engine at P=1 against P ∈ {2, 3, 8}
// with identical seeds and fault bursts, asserting byte-identical
// configurations, identical Changed dirty sets and identical round counts
// after every round.
func runDifferential[S comparable](
	t *testing.T, name string, g *graph.Graph,
	step syncsim.StepFunc[S], random func(*rand.Rand) S, seed int64, rounds int,
) {
	t.Helper()
	initRNG := rand.New(rand.NewSource(seed))
	initial := make([]S, g.N())
	for v := range initial {
		initial[v] = random(initRNG)
	}
	ref, err := asyncsim.NewParallel(g, step, initial, nil, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ps := []int{2, 3, 8}
	var engines []*asyncsim.Engine[S]
	for _, p := range ps {
		e, err := asyncsim.NewParallel(g, step, initial, nil, seed, p)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		engines = append(engines, e)
	}
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			ref.InjectFaults(6, random)
			for _, e := range engines {
				e.InjectFaults(6, random)
			}
		}
		ref.Step()
		for i, e := range engines {
			e.Step()
			if !reflect.DeepEqual(ref.View(), e.View()) {
				t.Fatalf("%s: round %d: P=%d configuration diverged from P=1", name, r, ps[i])
			}
			refCh, ch := ref.Changed(), e.Changed()
			if len(refCh) != len(ch) {
				t.Fatalf("%s: round %d: P=%d Changed length %d, want %d", name, r, ps[i], len(ch), len(refCh))
			}
			for j := range refCh {
				if refCh[j] != ch[j] {
					t.Fatalf("%s: round %d: P=%d Changed diverged at %d: %v vs %v", name, r, ps[i], j, ch, refCh)
				}
			}
			if ref.Rounds() != e.Rounds() || ref.Steps() != e.Steps() {
				t.Fatalf("%s: round %d: P=%d round/step counts diverged", name, r, ps[i])
			}
		}
	}
}

// TestShardedMISDifferential runs the coin-flipping AlgMIS program through
// the differential harness on every graph family.
func TestShardedMISDifferential(t *testing.T) {
	for name, g := range diffGraphs(t) {
		d := g.Diameter()
		alg, err := mis.New(mis.Params{D: d})
		if err != nil {
			t.Fatal(err)
		}
		runDifferential(t, "mis/"+name, g, alg.Step, alg.RandomState, 23, 80)
	}
}

// TestShardedLEDifferential runs AlgLE (temporary-ID coin tosses) through
// the differential harness on every graph family.
func TestShardedLEDifferential(t *testing.T) {
	for name, g := range diffGraphs(t) {
		d := g.Diameter()
		alg, err := le.New(le.Params{D: d})
		if err != nil {
			t.Fatal(err)
		}
		runDifferential(t, "le/"+name, g, alg.Step, alg.RandomState, 31, 80)
	}
}

// TestShardedChangedAscending pins the Changed merge order: per-shard lists
// concatenated in shard order must yield ascending node IDs (the dirty-set
// checker contract).
func TestShardedChangedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := graph.RandomConnected(60, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := mis.New(mis.Params{D: g.Diameter()})
	if err != nil {
		t.Fatal(err)
	}
	initRNG := rand.New(rand.NewSource(4))
	initial := make([]restart.State[mis.State], g.N())
	for v := range initial {
		initial[v] = alg.RandomState(initRNG)
	}
	eng, err := asyncsim.NewParallel(g, alg.Step, initial, nil, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for r := 0; r < 40; r++ {
		eng.Step()
		last := -1
		for _, v := range eng.Changed() {
			if v <= last {
				t.Fatalf("round %d: Changed not ascending: %v", r, eng.Changed())
			}
			last = v
		}
	}
}

// TestParallelZeroIsClassic pins that NewParallel(.., 0) behaves exactly
// like New: the shared-stream sequential semantics.
func TestParallelZeroIsClassic(t *testing.T) {
	g, err := graph.Cycle(20)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := mis.New(mis.Params{D: g.Diameter()})
	if err != nil {
		t.Fatal(err)
	}
	initRNG := rand.New(rand.NewSource(8))
	initial := make([]restart.State[mis.State], g.N())
	for v := range initial {
		initial[v] = alg.RandomState(initRNG)
	}
	a, err := asyncsim.New(g, alg.Step, initial, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := asyncsim.NewParallel(g, alg.Step, initial, nil, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for r := 0; r < 60; r++ {
		a.Step()
		b.Step()
		if !reflect.DeepEqual(a.View(), b.View()) {
			t.Fatalf("round %d: NewParallel(0) diverged from New", r)
		}
	}
}
