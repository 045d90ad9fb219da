package sim_test

import (
	"math/rand"
	"slices"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sa"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/snapshot"
)

// fieldEdit is one named rewrite of the engine-section field called field
// in splitEngine's model of the layout.
type fieldEdit struct {
	name  string
	field string
	edit  func(raw []byte) []byte
}

func editInt(edit func(int) int) func([]byte) []byte {
	return func(raw []byte) []byte {
		var e snapshot.Enc
		e.Int(edit(snapshot.NewDec(raw).Int()))
		return e.Bytes()
	}
}

func setInt(v int) func([]byte) []byte { return editInt(func(int) int { return v }) }

func editInts(edit func([]int) []int) func([]byte) []byte {
	return func(raw []byte) []byte {
		var e snapshot.Enc
		e.Ints(edit(snapshot.NewDec(raw).Ints()))
		return e.Bytes()
	}
}

func editWords(edit func([]uint64)) func([]byte) []byte {
	return func(raw []byte) []byte {
		w := snapshot.NewDec(raw).U64s()
		edit(w)
		var e snapshot.Enc
		e.U64s(w)
		return e.Bytes()
	}
}

// rejectCase is a valid engine section and the edits that must each make
// it fail to restore.
type rejectCase struct {
	seed  restoreSeed
	edits []fieldEdit
}

// TestRestoreRejectsInconsistentState: a CRC-valid snapshot with one
// inconsistent field must fail to restore with an error, not restore and
// then index out of range, misbehave or leave the checkpointed trajectory
// on the next steps or fault burst. Each case rewrites one field, named as
// in splitEngine, of a valid engine section and writes the container back
// through snapshot.Write, so the checksums hold and only the field's own
// validation can catch it. The sections come from a 12-node cycle under
// the Permuted and the RandomSubset scheduler and a frontier-sparse run on
// a 400-node bounded-diameter graph.
func TestRestoreRejectsInconsistentState(t *testing.T) {
	const n = 12
	g, err := graph.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(3)
	if err != nil {
		t.Fatal(err)
	}
	mkPerm := func() sched.Scheduler { return sched.NewPermutedSeeded(5) }
	mkSubset := func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.1, 6, 5) }

	// Both checkpointable schedulers save (seed, rng state, per-node ints):
	// the Permuted scheduler its permutation, the RandomSubset its gap
	// vector.
	badTap := func(w []uint64) { w[len(w)-2] = 607 } // past the 607-word window
	common := []fieldEdit{
		{"rng tap out of range", "rng state", editWords(badTap)},
		{"fault buffer with a duplicate", "fault buffer", editInts(func(p []int) []int { p[0] = p[1]; return p })},
		{"fault buffer node out of range", "fault buffer", editInts(func(p []int) []int { p[0] = n; return p })},
		{"fault buffer negative node", "fault buffer", editInts(func(p []int) []int { p[0] = -1; return p })},
		{"fault buffer shorter than n", "fault buffer", editInts(func(p []int) []int { return p[:n-1] })},
		// The cycle's N(0) = {1, 11} becomes {1, 2}: sorted, in range and
		// loop-free, but 2 does not list 0 and 11 lists 0 one-way.
		{"asymmetric adjacency", "neighbors", editInts(func(p []int) []int { p[1] = 2; return p })},
		{"tracker negative rounds", "tracker rounds", setInt(-1)},
		{"tracker more rounds than steps", "tracker rounds", setInt(1 << 20)},
		{"tracker pending below -1", "tracker pending", setInt(-2)},
		{"tracker pending node n", "tracker pending", setInt(n)},
		{"tracker stamp 2", "tracker stamps", editInts(func(p []int) []int { p[0] = 2; return p })},
		{"scheduler rng tap out of range", "scheduler rng state", editWords(badTap)},
		{"churn flag set", "churn flag", func([]byte) []byte { return []byte{1} }},
	}
	permEdits := []fieldEdit{
		{"permutation with a duplicate", "scheduler nodes", editInts(func(p []int) []int { p[0] = p[1]; return p })},
		{"permutation node out of range", "scheduler nodes", editInts(func(p []int) []int { p[0] = len(p); return p })},
		{"permutation of n-1 nodes", "scheduler nodes", editInts(func(p []int) []int { return p[:n-1] })},
		{"permutation emptied", "scheduler nodes", editInts(func([]int) []int { return nil })},
	}
	gapEdits := []fieldEdit{
		{"gap vector of n-1 nodes", "scheduler nodes", editInts(func(p []int) []int { return p[:n-1] })},
		{"gap vector emptied", "scheduler nodes", editInts(func([]int) []int { return nil })},
		{"gap entry 2^40", "scheduler nodes", editInts(func(p []int) []int { p[3] = 1 << 40; return p })},
	}
	zeroGaps := []fieldEdit{
		{"every gap entry 0", "scheduler nodes", editInts(func(p []int) []int { clear(p); return p })},
	}

	var engines []rejectCase
	// Every cycle engine steps (starting a round and the scheduler's state)
	// and takes a fault burst (building the fault buffer) before it saves.
	for _, c := range []struct {
		name  string
		mk    func() sched.Scheduler
		steps int
		edits []fieldEdit
	}{
		{"permuted", mkPerm, 5, permEdits},
		{"random-subset", mkSubset, 5, gapEdits},
		{"random-subset-20", mkSubset, 20, zeroGaps},
	} {
		e, err := sim.New(g, au, sim.Options{Scheduler: c.mk(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.steps; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		e.InjectFaults(3)
		section, err := engineSection(e)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, rejectCase{
			restoreSeed{name: c.name, section: section, au: au, mk: c.mk},
			append(slices.Clone(common), c.edits...),
		})
	}
	engines = append(engines, frontierEngine(t))

	for _, eng := range engines {
		if _, err := eng.seed.restore(eng.seed.section); err != nil {
			t.Fatalf("%s: pristine snapshot rejected: %v", eng.seed.name, err)
		}
		for _, c := range eng.edits {
			fields, err := splitEngine(eng.seed.section)
			if err != nil {
				t.Fatalf("%s: %v", eng.seed.name, err)
			}
			f := leaf(t, fields, c.field)
			f.raw = c.edit(f.raw)
			if _, err := eng.seed.restore(joinFields(fields)); err == nil {
				t.Errorf("%s: %s: restored without error", eng.seed.name, c.name)
			}
		}
	}
}

// frontierEngine is a frontier-sparse run six steps in — bounded diameter
// 4, n = 400, a seeded RandomSubset(0.3, 8) — with edits to its saved
// frontier. Dropping a member whose δ would still move it leaves a list
// that is sorted and in range, yet the restored run skips the node and
// leaves the checkpointed trajectory at the next step that activates it.
func frontierEngine(t *testing.T) rejectCase {
	t.Helper()
	g, err := graph.BoundedDiameter(400, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	au, err := core.NewAU(4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.3, 8, 5) }
	e, err := sim.New(g, au, sim.Options{Scheduler: mk(), Seed: 1, Frontier: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	section, err := engineSection(e)
	if err != nil {
		t.Fatal(err)
	}
	sig := sa.NewSignal(au.NumStates())
	unsettled := func(v int) bool {
		e.SignalOf(v, &sig)
		return !au.SelfLoop(e.Config()[v], sig)
	}
	return rejectCase{restoreSeed{name: "frontier", section: section, au: au, mk: mk}, []fieldEdit{
		{"frontier without an unsettled node", "frontier", editInts(func(p []int) []int {
			for i, v := range p {
				if unsettled(v) {
					return slices.Delete(p, i, i+1)
				}
			}
			t.Fatal("every frontier member is settled; step the run less")
			return nil
		})},
		{"frontier members unsorted", "frontier", editInts(func(p []int) []int { p[0], p[1] = p[1], p[0]; return p })},
		{"frontier member repeated", "frontier", editInts(func(p []int) []int { p[1] = p[0]; return p })},
	}}
}
