package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"thinunison/internal/core"
	"thinunison/internal/graph"
	"thinunison/internal/sched"
	"thinunison/internal/sim"
	"thinunison/internal/snapshot"
)

// FuzzRestore holds sim.Restore to its contract on structured edits: each
// input picks one of a matrix of valid snapshots, edits one decoded field of
// its engine section (or keeps it), and writes the container back with
// valid checksums. Either Restore rejects the result, or the restored
// engine must
//
//   - save back to the same engine-section bytes, so every accepted
//     encoding is canonical;
//   - run 64 steps and one fault burst without a panic or a step error;
//   - keep a GoodMonitor, built fresh from the restored configuration, in
//     agreement with the full-scan GraphGood after every step.
//
// The snapshots span dense, frontier, word and frontier+word engines under
// the synchronous scheduler and the seeded Permuted and RandomSubset
// schedulers, saved before the first step and mid-run. Each is seeded
// unedited and with three edits.
func FuzzRestore(f *testing.F) {
	seeds := restoreSeeds(f)
	for i := range seeds {
		f.Add(uint8(i), uint16(0), uint8(0), uint16(0), int64(0)) // unedited
		for k := 3 * i; k < 3*i+3; k++ {
			f.Add(uint8(i), uint16(7*k+3), uint8(k%5+1), uint16(k), int64(k-3))
		}
	}
	// An input picks a seed snapshot, a leaf field by position (modulo the
	// seed's leaf count) and the edit to apply to it.
	f.Fuzz(func(t *testing.T, seed uint8, field uint16, op uint8, index uint16, value int64) {
		s := seeds[int(seed)%len(seeds)]
		fields, err := splitEngine(s.section)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		leaves := leafFields(fields)
		at := int(field) % len(leaves)
		l := leaves[at]
		l.raw = editField(l.kind, l.raw, op, int(index), value)
		s.name = fmt.Sprintf("%s, field %d (%s) edit %d", s.name, at, l.name, op)
		section := joinFields(fields)
		e, err := s.restore(section)
		if err != nil {
			return
		}
		checkRestored(t, s, e, section)
	})
}

// checkRestored is FuzzRestore's property for an accepted snapshot whose
// engine section is section.
func checkRestored(t *testing.T, s restoreSeed, e *sim.Engine, section []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		t.Fatalf("%s: re-save: %v", s.name, err)
	}
	sections, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := sections["engine"]; !bytes.Equal(got, section) {
		i := 0
		for i < len(got) && i < len(section) && got[i] == section[i] {
			i++
		}
		t.Fatalf("%s: the restored engine re-saves %d bytes that differ at byte %d from the %d it was restored from",
			s.name, len(got), i, len(section))
	}
	mon := core.NewGoodMonitor(s.au, e.Graph(), e.Config())
	e.Observe(mon)
	for i := 0; i < 64; i++ {
		if i == 32 {
			e.InjectFaults(3)
		}
		if err := e.Step(); err != nil {
			t.Fatalf("%s: continuation step %d: %v", s.name, i, err)
		}
		if got, want := mon.Good(), s.au.GraphGood(e.Graph(), e.Config()); got != want {
			t.Fatalf("%s: continuation step %d: monitor Good=%v, GraphGood=%v", s.name, i, got, want)
		}
	}
}

// restoreSeed is one valid engine section of FuzzRestore's matrix and the
// recipe its restore needs.
type restoreSeed struct {
	name    string
	section []byte
	au      *core.AU
	mk      func() sched.Scheduler
}

// restore wraps section in a container with valid checksums and restores
// it with the seed's recipe.
func (s restoreSeed) restore(section []byte) (*sim.Engine, error) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, []snapshot.Section{{Name: "engine", Data: section}}); err != nil {
		return nil, err
	}
	e, _, err := sim.Restore(&buf, s.au, sim.RestoreOptions{Scheduler: s.mk()})
	return e, err
}

// engineSection saves e and returns its engine section.
func engineSection(e *sim.Engine) ([]byte, error) {
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		return nil, err
	}
	sections, err := snapshot.Read(&buf)
	if err != nil {
		return nil, err
	}
	return sections["engine"], nil
}

var (
	restoreSeedsOnce sync.Once
	restoreSeedList  []restoreSeed
	restoreSeedsErr  error
)

// restoreSeeds builds FuzzRestore's snapshots once per process.
func restoreSeeds(tb testing.TB) []restoreSeed {
	tb.Helper()
	restoreSeedsOnce.Do(func() { restoreSeedList, restoreSeedsErr = buildRestoreSeeds() })
	if restoreSeedsErr != nil {
		tb.Fatal(restoreSeedsErr)
	}
	return restoreSeedList
}

func buildRestoreSeeds() ([]restoreSeed, error) {
	au, err := core.NewAU(4)
	if err != nil {
		return nil, err
	}
	base, err := graph.RandomConnected(24, 0.2, rand.New(rand.NewSource(5)))
	if err != nil {
		return nil, err
	}
	scheds := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"synchronous", func() sched.Scheduler { return sched.NewSynchronous() }},
		{"permuted", func() sched.Scheduler { return sched.NewPermutedSeeded(3) }},
		{"random-subset", func() sched.Scheduler { return sched.NewRandomSubsetSeeded(0.3, 6, 4) }},
	}
	var seeds []restoreSeed
	for _, mode := range []struct {
		name           string
		frontier, word bool
	}{{"dense", false, false}, {"frontier", true, false}, {"word", false, true}, {"frontier+word", true, true}} {
		for _, sc := range scheds {
			for _, steps := range []int{0, 12} {
				e, err := sim.New(base, au, sim.Options{Scheduler: sc.mk(), Seed: 9, Frontier: mode.frontier,
					WordParallel: mode.word})
				if err != nil {
					return nil, err
				}
				for i := 0; i < steps; i++ {
					if i == steps/2 {
						e.InjectFaults(4)
					}
					if err := e.Step(); err != nil {
						return nil, err
					}
				}
				section, err := engineSection(e)
				if err != nil {
					return nil, err
				}
				seeds = append(seeds, restoreSeed{
					name:    fmt.Sprintf("%s/%s/step %d", mode.name, sc.name, steps),
					section: section,
					au:      au,
					mk:      sc.mk,
				})
			}
		}
	}
	return seeds, nil
}

// field is one encoded field of an engine section: a fixed-width int ('i'),
// a bool ('b'), an int sequence ('I'), a word sequence ('U'), or a blob
// ('B') split into the fields of its own layout. name says which field of
// SaveState's layout it holds; a blob's fields carry the blob's name as a
// prefix.
type field struct {
	kind byte
	name string
	raw  []byte
	sub  []*field
}

// fieldReader cuts a payload into fields. A field's extent is the length
// of re-encoding what a decoder reads from it, which is exact because
// every encoding is canonical.
type fieldReader struct {
	rest []byte
	err  error
}

// take takes the field spec describes: its kind letter, a space, its name.
func (r *fieldReader) take(spec string) *field {
	kind, name := spec[0], spec[2:]
	d := snapshot.NewDec(r.rest)
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
	}
	if err := d.Err(); err != nil && r.err == nil {
		r.err = fmt.Errorf("field %s: %w", name, err)
	}
	if r.err != nil {
		return &field{kind: kind, name: name}
	}
	n := len(e.Bytes())
	f := &field{kind: kind, name: name, raw: r.rest[:n]}
	r.rest = r.rest[n:]
	return f
}

// blob takes a blob field whose payload holds the fields specs describe.
func (r *fieldReader) blob(name string, specs ...string) *field {
	d := snapshot.NewDec(r.rest)
	payload := d.Blob()
	if err := d.Err(); err != nil && r.err == nil {
		r.err = fmt.Errorf("blob %s: %w", name, err)
	}
	f := &field{kind: 'B', name: name}
	if r.err != nil {
		return f
	}
	var e snapshot.Enc
	e.Blob(payload)
	r.rest = r.rest[len(e.Bytes()):]
	sub := &fieldReader{rest: payload}
	for _, spec := range specs {
		f.sub = append(f.sub, sub.take(spec[:2]+name+" "+spec[2:]))
	}
	if sub.err == nil && len(sub.rest) != 0 {
		sub.err = fmt.Errorf("blob %s leaves %d bytes", name, len(sub.rest))
	}
	if sub.err != nil && r.err == nil {
		r.err = sub.err
	}
	return f
}

// splitEngine cuts a valid sim engine section into its fields, following
// the layout SaveState writes. It is the tests' one model of that layout.
func splitEngine(section []byte) ([]*field, error) {
	r := &fieldReader{rest: section}
	var fs []*field
	put := func(specs ...string) *field {
		for _, spec := range specs {
			fs = append(fs, r.take(spec))
		}
		return fs[len(fs)-1]
	}
	flag := func(spec string) bool { return snapshot.NewDec(put(spec).raw).Bool() }
	put("i n", "i m", "i states", "i step", "I offsets", "I neighbors", "I configuration",
		"U rng state", "i rng pending", "I fault buffer")
	fs = append(fs, r.blob("tracker", "i rounds", "i pending", "I stamps"))
	hasFr := flag("b frontier flag")
	put("b word flag", "b churn flag")
	if hasFr {
		put("I frontier")
	}
	if flag("b scheduler flag") {
		// Seed, rng state, and the permutation or gap vector.
		fs = append(fs, r.blob("scheduler", "i seed", "U rng state", "I nodes"))
	}
	put("U metrics")
	if r.err == nil && len(r.rest) != 0 {
		r.err = fmt.Errorf("engine layout leaves %d bytes", len(r.rest))
	}
	return fs, r.err
}

// leaf returns the leaf field named name.
func leaf(t *testing.T, fs []*field, name string) *field {
	t.Helper()
	for _, f := range leafFields(fs) {
		if f.name == name {
			return f
		}
	}
	t.Fatalf("the engine section has no field %q", name)
	return nil
}

// leafFields lists the editable fields, blob contents included.
func leafFields(fs []*field) []*field {
	var out []*field
	for _, f := range fs {
		if f.kind == 'B' {
			out = append(out, leafFields(f.sub)...)
		} else {
			out = append(out, f)
		}
	}
	return out
}

// joinFields re-encodes a field list.
func joinFields(fs []*field) []byte {
	var out []byte
	for _, f := range fs {
		if f.kind == 'B' {
			var e snapshot.Enc
			e.Blob(joinFields(f.sub))
			out = append(out, e.Bytes()...)
		} else {
			out = append(out, f.raw...)
		}
	}
	return out
}

// editField applies edit op (0 keeps the field) to one encoded field,
// at position index of a sequence, with operand value.
func editField(kind byte, raw []byte, op uint8, index int, value int64) []byte {
	if op == 0 {
		return raw
	}
	var e snapshot.Enc
	d := snapshot.NewDec(raw)
	switch kind {
	case 'i':
		switch v := d.Int(); op % 3 {
		case 0:
			e.Int(int(value))
		case 1:
			e.Int(v + int(value))
		default:
			e.Int(-v)
		}
	case 'b':
		if op%2 == 0 {
			return []byte{byte(value)}
		}
		e.Bool(!d.Bool())
	case 'I':
		e.Ints(editSeq(d.Ints(), op, index, int(value)))
	case 'U':
		w := d.U64s()
		if op%6 == 5 && len(w) > 0 {
			w[index%len(w)] ^= 1 << (uint64(value) % 64)
			e.U64s(w)
			break
		}
		e.U64s(editSeq(w, op, index, uint64(value)))
	}
	return e.Bytes()
}

// editSeq applies one of five sequence edits: set, add to, delete or
// insert an element, or truncate.
func editSeq[T int | uint64](s []T, op uint8, index int, value T) []T {
	if len(s) == 0 {
		return append(s, value)
	}
	i := index % len(s)
	switch op % 5 {
	case 0:
		s[i] = value
	case 1:
		s[i] += value
	case 2:
		s = slices.Delete(s, i, i+1)
	case 3:
		s = slices.Insert(s, i, value)
	default:
		s = s[:i]
	}
	return s
}
