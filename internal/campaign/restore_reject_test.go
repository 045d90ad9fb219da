package campaign_test

import (
	"bytes"
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

// splitFields cuts a section payload into its encoded fields, one per
// layout letter — i: a fixed-width int or word, b: a bool, I: an int
// sequence, U: a word sequence, B: a blob — followed by the unparsed rest.
// A field's extent is the length of re-encoding what a decoder reads from
// it, which is exact because every encoding is canonical.
func splitFields(t *testing.T, payload []byte, layout string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, kind := range layout {
		d := snapshot.NewDec(payload)
		var e snapshot.Enc
		switch kind {
		case 'i':
			e.Int(d.Int())
		case 'b':
			e.Bool(d.Bool())
		case 'I':
			e.Ints(d.Ints())
		case 'U':
			e.U64s(d.U64s())
		case 'B':
			e.Blob(d.Blob())
		}
		if err := d.Err(); err != nil {
			t.Fatalf("layout %q does not fit the payload: %v", layout, err)
		}
		n := len(e.Bytes())
		out = append(out, payload[:n])
		payload = payload[n:]
	}
	return append(out, payload)
}

// fieldEdit rewrites one encoded field.
type fieldEdit func(t *testing.T, field []byte) []byte

func editInts(edit func([]int) []int) fieldEdit {
	return func(_ *testing.T, field []byte) []byte {
		var e snapshot.Enc
		e.Ints(edit(snapshot.NewDec(field).Ints()))
		return e.Bytes()
	}
}

func setInt(v int) fieldEdit {
	return func(*testing.T, []byte) []byte {
		var e snapshot.Enc
		e.Int(v)
		return e.Bytes()
	}
}

func editWords(edit func([]uint64)) fieldEdit {
	return func(_ *testing.T, field []byte) []byte {
		w := snapshot.NewDec(field).U64s()
		edit(w)
		var e snapshot.Enc
		e.U64s(w)
		return e.Bytes()
	}
}

// inBlob applies edit to field i of a blob field with the given layout.
func inBlob(layout string, i int, edit fieldEdit) fieldEdit {
	return func(t *testing.T, field []byte) []byte {
		parts := splitFields(t, snapshot.NewDec(field).Blob(), layout)
		parts[i] = edit(t, parts[i])
		var e snapshot.Enc
		e.Blob(bytes.Join(parts, nil))
		return e.Bytes()
	}
}

// edit is one named rewrite of an engine-section field.
type edit struct {
	name  string
	field int
	edit  fieldEdit
}

// savedEngine is a valid snapshot of an engine, the layout of its engine
// section, the edits to try on it and how to restore it.
type savedEngine struct {
	name    string
	layout  string
	edits   []edit
	snap    []byte
	restore func(data []byte) error
}

// TestRestoreRejectsInconsistentState: a CRC-valid snapshot with one
// inconsistent field must fail to restore with an error, not restore and
// then index out of range, misbehave or leave the checkpointed trajectory
// on the next steps or fault burst. Each case rewrites one field of a valid
// snapshot of the sim engine — on a 12-node cycle under the Permuted and
// the RandomSubset scheduler, and frontier-sparse on a 400-node bounded-
// diameter graph — and writes the container back through snapshot.Write,
// so the checksums hold and only the field's own validation can catch it.
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

	// The engine section of a dense, churn-free run with a checkpointable
	// scheduler; the round tracker saves (rounds, pending node, stamps), and
	// both checkpointable schedulers save (seed, rng state, per-node ints):
	// the Permuted scheduler its permutation, the RandomSubset its gap
	// vector.
	const (
		layout        = "iiiiIIIUiIBbbbbBU"
		neighbors     = 5
		rngState      = 7
		faultBuf      = 9
		tracker       = 10
		schedField    = 15
		trackerLayout = "iiI"
		schedLayout   = "iUI"
	)
	badTap := func(w []uint64) { w[len(w)-2] = 607 } // past the 607-word window
	inSched := func(edit func([]int) []int) fieldEdit { return inBlob(schedLayout, 2, editInts(edit)) }
	common := []edit{
		{"rng tap out of range", rngState, editWords(badTap)},
		{"fault buffer with a duplicate", faultBuf, editInts(func(p []int) []int { p[0] = p[1]; return p })},
		{"fault buffer node out of range", faultBuf, editInts(func(p []int) []int { p[0] = n; return p })},
		{"fault buffer negative node", faultBuf, editInts(func(p []int) []int { p[0] = -1; return p })},
		{"fault buffer shorter than n", faultBuf, editInts(func(p []int) []int { return p[:n-1] })},
		// The cycle's N(0) = {1, 11} becomes {1, 2}: sorted, in range and
		// loop-free, but 2 does not list 0 and 11 lists 0 one-way.
		{"asymmetric adjacency", neighbors, editInts(func(p []int) []int { p[1] = 2; return p })},
		{"tracker negative rounds", tracker, inBlob(trackerLayout, 0, setInt(-1))},
		{"tracker more rounds than steps", tracker, inBlob(trackerLayout, 0, setInt(1<<20))},
		{"tracker pending below -1", tracker, inBlob(trackerLayout, 1, setInt(-2))},
		{"tracker pending node n", tracker, inBlob(trackerLayout, 1, setInt(n))},
		{"tracker stamp 2", tracker, inBlob(trackerLayout, 2, editInts(func(p []int) []int { p[0] = 2; return p }))},
		{"scheduler rng tap out of range", schedField, inBlob(schedLayout, 1, editWords(badTap))},
	}
	permEdits := []edit{
		{"permutation with a duplicate", schedField, inSched(func(p []int) []int { p[0] = p[1]; return p })},
		{"permutation node out of range", schedField, inSched(func(p []int) []int { p[0] = len(p); return p })},
		{"permutation of n-1 nodes", schedField, inSched(func(p []int) []int { return p[:n-1] })},
		{"permutation emptied", schedField, inSched(func([]int) []int { return nil })},
	}
	gapEdits := []edit{
		{"gap vector of n-1 nodes", schedField, inSched(func(p []int) []int { return p[:n-1] })},
		{"gap vector emptied", schedField, inSched(func([]int) []int { return nil })},
		{"gap entry 2^40", schedField, inSched(func(p []int) []int { p[3] = 1 << 40; return p })},
	}
	zeroGaps := []edit{
		{"every gap entry 0", schedField, inSched(func(p []int) []int { clear(p); return p })},
	}

	var engines []savedEngine
	// Every cycle engine steps (starting a round and the scheduler's state)
	// and takes a fault burst (building the fault buffer) before it saves.
	for _, c := range []struct {
		name  string
		mk    func() sched.Scheduler
		steps int
		edits []edit
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
		var buf bytes.Buffer
		if err := e.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		mk := c.mk
		engines = append(engines, savedEngine{
			name: c.name, layout: layout, edits: append(slices.Clone(common), c.edits...), snap: buf.Bytes(),
			restore: func(data []byte) error {
				_, _, err := sim.Restore(bytes.NewReader(data), au, sim.RestoreOptions{Scheduler: mk()})
				return err
			},
		})
	}
	engines = append(engines, frontierEngine(t))

	for _, eng := range engines {
		if err := eng.restore(eng.snap); err != nil {
			t.Fatalf("%s: pristine snapshot rejected: %v", eng.name, err)
		}
		for _, c := range eng.edits {
			sections, err := snapshot.Read(bytes.NewReader(eng.snap))
			if err != nil {
				t.Fatal(err)
			}
			fields := splitFields(t, sections["engine"], eng.layout)
			if len(fields[len(fields)-1]) != 0 {
				t.Fatalf("%s: layout %q leaves %d bytes unparsed", eng.name, eng.layout, len(fields[len(fields)-1]))
			}
			fields[c.field] = c.edit(t, slices.Clone(fields[c.field]))
			var out bytes.Buffer
			if err := snapshot.Write(&out, []snapshot.Section{{Name: "engine", Data: bytes.Join(fields, nil)}}); err != nil {
				t.Fatal(err)
			}
			if err := eng.restore(out.Bytes()); err == nil {
				t.Errorf("%s: %s: restored without error", eng.name, c.name)
			}
		}
	}
}

// frontierEngine is a frontier-sparse run six steps in — bounded diameter
// 4, n = 400, a seeded RandomSubset(0.3, 8) — with edits to its saved
// frontier. Dropping a member whose δ would still move it leaves a list
// that is sorted and in range, yet the restored run skips the node and
// leaves the checkpointed trajectory at the next step that activates it.
func frontierEngine(t *testing.T) savedEngine {
	t.Helper()
	const members = 14 // field index of the frontier in layout
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
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	sig := sa.NewSignal(au.NumStates())
	unsettled := func(v int) bool {
		e.SignalOf(v, &sig)
		return !au.SelfLoop(e.Config()[v], sig)
	}
	return savedEngine{
		name: "frontier", layout: "iiiiIIIUiIBbbbIbBU", snap: buf.Bytes(),
		edits: []edit{
			{"frontier without an unsettled node", members, editInts(func(p []int) []int {
				for i, v := range p {
					if unsettled(v) {
						return slices.Delete(p, i, i+1)
					}
				}
				t.Fatal("every frontier member is settled; step the run less")
				return nil
			})},
			{"frontier members unsorted", members, editInts(func(p []int) []int { p[0], p[1] = p[1], p[0]; return p })},
			{"frontier member repeated", members, editInts(func(p []int) []int { p[1] = p[0]; return p })},
		},
		restore: func(data []byte) error {
			_, _, err := sim.Restore(bytes.NewReader(data), au, sim.RestoreOptions{Scheduler: mk()})
			return err
		},
	}
}
