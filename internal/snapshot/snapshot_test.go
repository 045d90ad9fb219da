package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"thinunison/internal/snapshot"
)

// TestContainerRoundTrip: Write∘Read is the identity on section maps,
// including empty payloads and caller-defined section names the container
// has never heard of.
func TestContainerRoundTrip(t *testing.T) {
	sections := []snapshot.Section{
		{Name: "engine", Data: []byte{1, 2, 3, 4, 5}},
		{Name: "monitor", Data: nil},
		{Name: "x-custom.meta", Data: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, sections); err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sections) {
		t.Fatalf("read %d sections, wrote %d", len(got), len(sections))
	}
	for _, s := range sections {
		data, ok := got[s.Name]
		if !ok {
			t.Fatalf("section %q lost in round-trip", s.Name)
		}
		if !bytes.Equal(data, s.Data) {
			t.Fatalf("section %q payload corrupted", s.Name)
		}
	}
}

// TestContainerRejectsBadInput: the reader refuses wrong magic, wrong
// version, duplicate sections, implausible lengths, and EVERY truncation of
// a valid stream — a checkpoint must fail loudly, never parse partially.
func TestContainerRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, []snapshot.Section{
		{Name: "a", Data: []byte("payload-a")},
		{Name: "b", Data: []byte("pb")},
	}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	for cut := 0; cut < len(valid); cut++ {
		if _, err := snapshot.Read(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d bytes parsed", cut, len(valid))
		}
	}

	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xFF
	if _, err := snapshot.Read(bytes.NewReader(badMagic)); err == nil {
		t.Fatal("bad magic parsed")
	}

	badVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badVersion[8:12], snapshot.Version+1)
	if _, err := snapshot.Read(bytes.NewReader(badVersion)); err == nil {
		t.Fatal("future format version parsed")
	}

	var dup bytes.Buffer
	if err := snapshot.Write(&dup, []snapshot.Section{
		{Name: "a", Data: []byte("one")},
		{Name: "a", Data: []byte("two")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Read(bytes.NewReader(dup.Bytes())); err == nil {
		t.Fatal("duplicate section parsed")
	}

	// Writer-side name validation: empty and oversized names are refused.
	if err := snapshot.Write(&bytes.Buffer{}, []snapshot.Section{{Name: ""}}); err == nil {
		t.Fatal("empty section name accepted")
	}
	long := string(bytes.Repeat([]byte("x"), 256))
	if err := snapshot.Write(&bytes.Buffer{}, []snapshot.Section{{Name: long}}); err == nil {
		t.Fatal("256-byte section name accepted")
	}
}

// TestCodecRoundTrip: a random interleaving of every Enc primitive decodes
// back exactly, and Done certifies exhaustion.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		type op struct {
			kind int
			u    uint64
			i    int64
			b    bool
			us   []uint64
			is   []int
			blob []byte
		}
		nOps := 1 + rng.Intn(20)
		ops := make([]op, nOps)
		var e snapshot.Enc
		for k := range ops {
			o := op{kind: rng.Intn(7)}
			switch o.kind {
			case 0:
				o.u = rng.Uint64()
				e.U64(o.u)
			case 1:
				o.i = rng.Int63() - rng.Int63()
				e.I64(o.i)
			case 2:
				o.i = int64(int(rng.Int63()) - int(rng.Int63()))
				e.Int(int(o.i))
			case 3:
				o.b = rng.Intn(2) == 0
				e.Bool(o.b)
			case 4:
				o.us = make([]uint64, rng.Intn(5))
				for j := range o.us {
					o.us[j] = rng.Uint64()
				}
				e.U64s(o.us)
			case 5:
				o.is = make([]int, rng.Intn(5))
				for j := range o.is {
					o.is[j] = rng.Int() - rng.Int()
				}
				e.Ints(o.is)
			case 6:
				o.blob = make([]byte, rng.Intn(9))
				rng.Read(o.blob)
				e.Blob(o.blob)
			}
			ops[k] = o
		}
		d := snapshot.NewDec(e.Bytes())
		for k, o := range ops {
			switch o.kind {
			case 0:
				if got := d.U64(); got != o.u {
					t.Fatalf("trial %d op %d: U64 %d != %d", trial, k, got, o.u)
				}
			case 1:
				if got := d.I64(); got != o.i {
					t.Fatalf("trial %d op %d: I64 %d != %d", trial, k, got, o.i)
				}
			case 2:
				if got := d.Int(); got != int(o.i) {
					t.Fatalf("trial %d op %d: Int %d != %d", trial, k, got, o.i)
				}
			case 3:
				if got := d.Bool(); got != o.b {
					t.Fatalf("trial %d op %d: Bool %v != %v", trial, k, got, o.b)
				}
			case 4:
				got := d.U64s()
				if len(got) != len(o.us) {
					t.Fatalf("trial %d op %d: U64s len %d != %d", trial, k, len(got), len(o.us))
				}
				for j := range got {
					if got[j] != o.us[j] {
						t.Fatalf("trial %d op %d: U64s[%d]", trial, k, j)
					}
				}
			case 5:
				got := d.Ints()
				if len(got) != len(o.is) {
					t.Fatalf("trial %d op %d: Ints len %d != %d", trial, k, len(got), len(o.is))
				}
				for j := range got {
					if got[j] != o.is[j] {
						t.Fatalf("trial %d op %d: Ints[%d]", trial, k, j)
					}
				}
			case 6:
				if got := d.Blob(); !bytes.Equal(got, o.blob) {
					t.Fatalf("trial %d op %d: Blob %x != %x", trial, k, got, o.blob)
				}
			}
		}
		if err := d.Done(); err != nil {
			t.Fatalf("trial %d: Done: %v", trial, err)
		}
	}
}

// TestDecStickyErrors: truncating an encoded payload anywhere must surface
// through Err/Done, getters after the failure return zero values, and no
// read panics.
func TestDecStickyErrors(t *testing.T) {
	var e snapshot.Enc
	e.U64(7)
	e.Ints([]int{1, 2, 3})
	e.Bool(true)
	e.Blob([]byte("tail"))
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := snapshot.NewDec(full[:cut])
		d.U64()
		d.Ints()
		d.Bool()
		d.Blob()
		if d.Err() == nil {
			t.Fatalf("truncation at %d of %d went undetected", cut, len(full))
		}
		if d.Done() == nil {
			t.Fatalf("Done passed on truncation at %d", cut)
		}
		// Post-error getters stay zero-valued.
		if d.U64() != 0 || d.Bool() || d.Ints() != nil {
			t.Fatalf("post-error getter returned non-zero at cut %d", cut)
		}
	}
	// Trailing garbage is rejected by Done even when all reads succeed.
	d := snapshot.NewDec(append(append([]byte(nil), full...), 0xFF))
	d.U64()
	d.Ints()
	d.Bool()
	d.Blob()
	if d.Err() != nil {
		t.Fatal("valid prefix should decode")
	}
	if d.Done() == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

// TestIntsVarintExtremes: varint-delta sequences round-trip the extremes of
// int, where the deltas between neighbors wrap around and decoding must
// wrap back, through both Ints and IntsFunc.
func TestIntsVarintExtremes(t *testing.T) {
	alternating := make([]int, 64)
	for i := range alternating {
		alternating[i] = math.MaxInt64
		if i%2 == 1 {
			alternating[i] = math.MinInt64
		}
	}
	for _, v := range [][]int{
		{},
		{math.MinInt64},
		{math.MaxInt64},
		{0, math.MinInt64, math.MaxInt64, 0, -1, 1},
		alternating,
		{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64},
	} {
		var e snapshot.Enc
		e.Ints(v)
		e.IntsFunc(len(v), func(i int) int { return v[i] })
		d := snapshot.NewDec(e.Bytes())
		if got := d.Ints(); !slices.Equal(got, v) {
			t.Fatalf("Ints round trip: %v, want %v", got, v)
		}
		var got []int
		if n := d.IntsFunc(func(i, x int) { got = append(got, x) }); n != len(v) || !slices.Equal(got, v) {
			t.Fatalf("IntsFunc round trip: %d elements %v, want %v", n, got, v)
		}
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIntsRejectsBadVarints: a sequence whose varints run past the payload
// or encode more than 64 bits fails loudly, through Ints and IntsFunc.
func TestIntsRejectsBadVarints(t *testing.T) {
	seq := func(n int, body ...byte) []byte {
		var e snapshot.Enc
		e.Int(n)
		return append(e.Bytes(), body...)
	}
	cases := map[string][]byte{
		"truncated mid-varint":   seq(1, 0x80),
		"truncated before last":  seq(2, 0x02),
		"eleven-byte varint":     seq(1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"tenth byte over 64 bit": seq(1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02),
		"length past payload":    seq(3, 0x00, 0x00),
	}
	for name, data := range cases {
		d := snapshot.NewDec(data)
		if v := d.Ints(); v != nil || d.Err() == nil {
			t.Fatalf("%s: Ints returned %v, err %v", name, v, d.Err())
		}
		d = snapshot.NewDec(data)
		if n := d.IntsFunc(func(int, int) {}); n != 0 || d.Err() == nil {
			t.Fatalf("%s: IntsFunc returned %d, err %v", name, n, d.Err())
		}
	}
}

// FuzzContainerRead: arbitrary bytes must never panic the reader; valid
// containers must round-trip.
func FuzzContainerRead(f *testing.F) {
	var seed bytes.Buffer
	if err := snapshot.Write(&seed, []snapshot.Section{{Name: "engine", Data: []byte{9, 9}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("TUSNAP01 garbage behind a real magic"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sections, err := snapshot.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must re-serialize and re-parse to the same map.
		out := make([]snapshot.Section, 0, len(sections))
		for name, payload := range sections {
			out = append(out, snapshot.Section{Name: name, Data: payload})
		}
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, out); err != nil {
			t.Fatalf("re-write of parsed snapshot failed: %v", err)
		}
		again, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-written snapshot failed: %v", err)
		}
		if len(again) != len(sections) {
			t.Fatalf("round-trip changed section count: %d != %d", len(again), len(sections))
		}
		for name, payload := range sections {
			if !bytes.Equal(again[name], payload) {
				t.Fatalf("round-trip changed section %q", name)
			}
		}
	})
}

// FuzzDec: arbitrary payloads driven through a data-dependent getter
// sequence must never panic; the sticky error machinery absorbs every
// malformed shape.
func FuzzDec(f *testing.F) {
	var e snapshot.Enc
	e.Ints([]int{4, 5})
	e.Blob([]byte("x"))
	f.Add(e.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	// Varint sequences at the Ints and IntsFunc getters: cut mid-element,
	// and with an element over 64 bits.
	for _, getter := range []int{5, 7} {
		for _, bad := range [][]byte{
			{0x80},
			{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02},
			{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		} {
			var e snapshot.Enc
			for i := 0; i < getter; i++ {
				fuzzGetters[i].put(&e)
			}
			e.Int(1)
			f.Add(append(e.Bytes(), bad...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := snapshot.NewDec(data)
		for i := 0; i < 2*len(fuzzGetters) && d.Err() == nil; i++ {
			fuzzGetters[i%len(fuzzGetters)].get(d)
		}
		_ = d.Done()
	})
}

// fuzzGetters is FuzzDec's getter sequence, each with a writer of a valid
// (empty or zero) value for building seeds that reach a given getter.
var fuzzGetters = []struct {
	get func(*snapshot.Dec)
	put func(*snapshot.Enc)
}{
	{func(d *snapshot.Dec) { d.U64() }, func(e *snapshot.Enc) { e.U64(0) }},
	{func(d *snapshot.Dec) { d.I64() }, func(e *snapshot.Enc) { e.I64(0) }},
	{func(d *snapshot.Dec) { d.Int() }, func(e *snapshot.Enc) { e.Int(0) }},
	{func(d *snapshot.Dec) { d.Bool() }, func(e *snapshot.Enc) { e.Bool(false) }},
	{func(d *snapshot.Dec) { d.U64s() }, func(e *snapshot.Enc) { e.U64s(nil) }},
	{func(d *snapshot.Dec) { d.Ints() }, func(e *snapshot.Enc) { e.Ints(nil) }},
	{func(d *snapshot.Dec) { d.Blob() }, func(e *snapshot.Enc) { e.Blob(nil) }},
	{func(d *snapshot.Dec) { d.IntsFunc(func(int, int) {}) }, func(e *snapshot.Enc) { e.IntsFunc(0, nil) }},
}
