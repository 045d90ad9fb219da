package campaign_test

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"thinunison/internal/asyncsim"
	"thinunison/internal/core"
	"thinunison/internal/graph"
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

// TestRestoreRejectsInconsistentState: a CRC-valid snapshot with one
// inconsistent field must fail to restore with an error, not restore and
// then index out of range or misbehave on the next step or fault burst.
// Each case rewrites one field of a valid snapshot of the sim engine (under
// the Permuted and the RandomSubset scheduler) or the asyncsim engine (with
// each coin source, p = 0 and p = 2) and writes the container back through
// snapshot.Write, so the checksums hold and only the field's own validation
// can catch it.
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
	step := func(self int, _ []int, rng *rand.Rand) int { return (self + rng.Intn(2)) % 7 }
	randomState := func(rng *rand.Rand) int { return rng.Intn(7) }
	encode := func(e *snapshot.Enc, s int) { e.Int(s) }
	decode := func(d *snapshot.Dec) int { return d.Int() }
	mkSched := func() sched.Scheduler { return sched.NewPermutedSeeded(5) }
	mkSubset := func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.1, 6, 5) }

	// Both checkpointable schedulers save (seed, rng state, per-node ints):
	// the Permuted scheduler its permutation, the RandomSubset its gap vector.
	type schedEdit struct {
		name string
		edit fieldEdit
	}
	const schedLayout = "iUI"
	badTap := func(w []uint64) { w[len(w)-2] = 607 } // past the 607-word window
	permEdits := []schedEdit{
		{"scheduler rng tap out of range", inBlob(schedLayout, 1, editWords(badTap))},
		{"permutation with a duplicate", inBlob(schedLayout, 2, editInts(func(p []int) []int { p[0] = p[1]; return p }))},
		{"permutation node out of range", inBlob(schedLayout, 2, editInts(func(p []int) []int { p[0] = len(p); return p }))},
		{"permutation of n-1 nodes", inBlob(schedLayout, 2, editInts(func([]int) []int {
			id := make([]int, n-1)
			for i := range id {
				id[i] = i
			}
			return id
		}))},
	}
	gapEdits := []schedEdit{
		{"scheduler rng tap out of range", inBlob(schedLayout, 1, editWords(badTap))},
		{"gap vector of n-1 nodes", inBlob(schedLayout, 2, editInts(func(p []int) []int { return p[:n-1] }))},
	}

	// Every engine steps (starting a round and the scheduler's permutation)
	// and takes a fault burst (building the fault buffer) before it saves.
	type engine struct {
		name, section string
		layout        string // of a dense, shared-stream, churn-free run over n int states
		neighbors     int    // field indices into layout; -1 when absent
		faultBuf      int
		tracker       int
		sched         int
		schedEdits    []schedEdit
		rng           int
		snap          []byte
		restore       func(data []byte) error
	}
	var engines []engine

	var buf bytes.Buffer
	for _, sc := range []struct {
		name  string
		mk    func() sched.Scheduler
		edits []schedEdit
	}{{"sim", mkSched, permEdits}, {"sim-random-subset", mkSubset, gapEdits}} {
		se, err := sim.New(g, au, sim.Options{Scheduler: sc.mk(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := se.Step(); err != nil {
				t.Fatal(err)
			}
		}
		se.InjectFaults(3)
		buf.Reset()
		if err := se.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		mk := sc.mk
		engines = append(engines, engine{
			name: sc.name, section: "engine", layout: "iiiiIIIUiIBbbbbBU",
			neighbors: 5, faultBuf: 9, tracker: 10, sched: 15, schedEdits: sc.edits, rng: 7, snap: bytes.Clone(buf.Bytes()),
			restore: func(data []byte) error {
				_, _, err := sim.Restore(bytes.NewReader(data), au, sim.RestoreOptions{Scheduler: mk()})
				return err
			},
		})
	}

	// The asyncsim engine at p = 0 (shared coin stream) and at p = 2
	// (per-(step, node) coin streams); the two differ only in one flag.
	for _, p := range []int{0, 2} {
		ae, err := asyncsim.NewParallel(g, step, make([]int, n), mkSched(), 1, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			ae.Step()
		}
		ae.InjectFaults(3, randomState)
		buf.Reset()
		if err := ae.SaveState(&buf, encode); err != nil {
			t.Fatal(err)
		}
		eng := engine{
			name: "asyncsim", section: "asyncsim", layout: "iiiiII" + strings.Repeat("i", n) + "UiIBbbBU",
			neighbors: 5, faultBuf: n + 8, tracker: n + 9, sched: n + 12, schedEdits: permEdits, rng: n + 6, snap: bytes.Clone(buf.Bytes()),
			restore: func(data []byte) error {
				_, _, err := asyncsim.Restore(bytes.NewReader(data), decode, asyncsim.RestoreOptions[int]{Step: step, Scheduler: mkSched()})
				return err
			},
		}
		if p == 2 {
			eng.name = "asyncsim-p2"
		}
		engines = append(engines, eng)
	}

	const trackerLayout = "iiiiiII" // n, rounds, steps, remaining, pending, stamps, boundaries
	for _, eng := range engines {
		if err := eng.restore(eng.snap); err != nil {
			t.Fatalf("%s: pristine snapshot rejected: %v", eng.name, err)
		}
		type edit struct {
			name  string
			field int
			edit  fieldEdit
		}
		edits := []edit{
			{"rng tap out of range", eng.rng, editWords(badTap)},
			{"fault buffer with a duplicate", eng.faultBuf, editInts(func(p []int) []int { p[0] = p[1]; return p })},
			{"fault buffer node out of range", eng.faultBuf, editInts(func(p []int) []int { p[0] = n; return p })},
			{"fault buffer negative node", eng.faultBuf, editInts(func(p []int) []int { p[0] = -1; return p })},
			{"fault buffer shorter than n", eng.faultBuf, editInts(func(p []int) []int { return p[:n-1] })},
			// The cycle's N(0) = {1, 11} becomes {1, 2}: sorted, in range and
			// loop-free, but 2 does not list 0 and 11 lists 0 one-way.
			{"asymmetric adjacency", eng.neighbors, editInts(func(p []int) []int { p[1] = 2; return p })},
		}
		if eng.tracker >= 0 {
			edits = append(edits,
				edit{"tracker negative rounds", eng.tracker, inBlob(trackerLayout, 1, setInt(-1))},
				edit{"tracker pending below -1", eng.tracker, inBlob(trackerLayout, 4, setInt(-2))},
				edit{"tracker pending node n", eng.tracker, inBlob(trackerLayout, 4, setInt(n))},
			)
		}
		for _, se := range eng.schedEdits {
			edits = append(edits, edit{se.name, eng.sched, se.edit})
		}
		for _, c := range edits {
			sections, err := snapshot.Read(bytes.NewReader(eng.snap))
			if err != nil {
				t.Fatal(err)
			}
			fields := splitFields(t, sections[eng.section], eng.layout)
			if len(fields[len(fields)-1]) != 0 {
				t.Fatalf("%s: layout %q leaves %d bytes unparsed", eng.name, eng.layout, len(fields[len(fields)-1]))
			}
			fields[c.field] = c.edit(t, slices.Clone(fields[c.field]))
			var out bytes.Buffer
			if err := snapshot.Write(&out, []snapshot.Section{{Name: eng.section, Data: bytes.Join(fields, nil)}}); err != nil {
				t.Fatal(err)
			}
			if err := eng.restore(out.Bytes()); err == nil {
				t.Errorf("%s: %s: restored without error", eng.name, c.name)
			}
		}
	}
}
