package randx_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"thinunison/internal/randx"
)

func TestPartialShuffleDistinctAndClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []int
	for _, count := range []int{-3, 0, 1, 4, 10, 15} {
		got := randx.PartialShuffle(&buf, 10, count, rng)
		want := count
		if want < 0 {
			want = 0
		}
		if want > 10 {
			want = 10
		}
		if len(got) != want {
			t.Fatalf("count %d: got %d elements, want %d", count, len(got), want)
		}
		seen := make(map[int]bool, len(got))
		for _, v := range got {
			if v < 0 || v >= 10 {
				t.Fatalf("count %d: element %d out of range", count, v)
			}
			if seen[v] {
				t.Fatalf("count %d: duplicate element %d", count, v)
			}
			seen[v] = true
		}
		// The buffer must remain a permutation of 0..9 across calls.
		perm := make(map[int]bool, 10)
		for _, v := range buf {
			perm[v] = true
		}
		if len(buf) != 10 || len(perm) != 10 {
			t.Fatalf("count %d: buffer is not a permutation: %v", count, buf)
		}
	}
}

func TestPartialShuffleDeterministic(t *testing.T) {
	draw := func() [][]int {
		rng := rand.New(rand.NewSource(99))
		var buf []int
		var out [][]int
		for i := 0; i < 5; i++ {
			got := randx.PartialShuffle(&buf, 20, 6, rng)
			out = append(out, append([]int(nil), got...))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

// sourceSeeds covers math/rand's seed normalisation: zero and its
// replacement, negative seeds, both sides of the 2^31−1 modulus, a seed
// above 32 bits and the most negative int64.
var sourceSeeds = []int64{0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 40, math.MinInt64}

// TestSourceMatchesMathRand: for every seed, a rand.Rand over a Source draws
// exactly what one over rand.NewSource draws, through every draw path the
// engines use.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		got := rand.New(randx.NewSource(seed))
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 1_000_000; i++ {
			var g, w uint64
			switch i % 5 {
			case 0:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 3:
				n := 1 + i%1000
				g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
			case 4:
				n := int32(1 + i%77)
				g, w = uint64(got.Int31n(n)), uint64(want.Int31n(n))
			}
			if g != w {
				t.Fatalf("seed %d draw %d (kind %d): %#x, want %#x", seed, i, i%5, g, w)
			}
		}
	}
}

// TestNewSourceSeedsLikeMathRand: over 1,000 seeds from a fixed stream (half
// of them full 64-bit values, half below 2^31 in magnitude) and the edge
// seeds, a Source's first two windows of draws are rand.NewSource's: the
// first 607 draws read every seeded word, the next 607 their sums.
func TestNewSourceSeedsLikeMathRand(t *testing.T) {
	pick := rand.New(rand.NewSource(2024))
	seeds := slices.Clone(sourceSeeds)
	for i := range 1000 {
		seed := int64(pick.Uint64())
		if i%2 == 1 {
			seed >>= 33
		}
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		got := randx.NewSource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := range 2 * 607 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// TestSourceStateRoundTrip: a state saved at any position — inside the
// seeded window, at its edge, past it and deep into the stream — sets a
// differently seeded Source to continue the original stream exactly.
func TestSourceStateRoundTrip(t *testing.T) {
	for _, pos := range []int{0, 1, 606, 607, 608, 1_000_000} {
		src := randx.NewSource(42)
		ref := rand.NewSource(42).(rand.Source64)
		for i := 0; i < pos; i++ {
			src.Uint64()
			ref.Uint64()
		}
		st := src.State()
		restored := randx.NewSource(7)
		if err := restored.SetState(st); err != nil {
			t.Fatalf("position %d: %v", pos, err)
		}
		if !slices.Equal(restored.State(), st) {
			t.Fatalf("position %d: state changed in the round trip", pos)
		}
		for i := 0; i < 2000; i++ {
			w := ref.Uint64()
			if a, b := src.Uint64(), restored.Uint64(); a != w || b != w {
				t.Fatalf("position %d draw %d: original %d, restored %d, want %d", pos, i, a, b, w)
			}
		}
	}
}

// TestSourceSetStateRejectsMalformed: a state of the wrong length or with
// indices no draw sequence reaches is refused, and the generator keeps its
// stream.
func TestSourceSetStateRejectsMalformed(t *testing.T) {
	good := randx.NewSource(3).State()
	with := func(i int, v uint64) []uint64 {
		st := slices.Clone(good)
		st[i] = v
		return st
	}
	tap, feed := len(good)-2, len(good)-1
	cases := map[string][]uint64{
		"empty":                nil,
		"short":                good[:len(good)-1],
		"long":                 append(slices.Clone(good), 0),
		"tap out of range":     with(tap, 607),
		"feed out of range":    with(feed, 607),
		"huge tap":             with(tap, math.MaxUint64),
		"feed not tap+334":     with(feed, 0),
		"both in range, apart": with(tap, 5),
	}
	for name, st := range cases {
		src := randx.NewSource(9)
		want := rand.NewSource(9).(rand.Source64)
		if err := src.SetState(st); err == nil {
			t.Fatalf("%s: state accepted", name)
		}
		for i := 0; i < 700; i++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("%s: rejected state changed the stream at draw %d", name, i)
			}
		}
	}
}

// TestNewSourceAllocatesAtMostOnce: building a stream costs at most one
// allocation, the Source itself, since campaigns build two to four streams
// per short scenario.
func TestNewSourceAllocatesAtMostOnce(t *testing.T) {
	var keep []*randx.Source
	got := testing.AllocsPerRun(100, func() { keep = append(keep[:0], randx.NewSource(5)) })
	if got > 1 {
		t.Fatalf("NewSource allocates %.1f times, want at most 1", got)
	}
}

var sinkU64 uint64

// BenchmarkSource compares a Source with math/rand's source on the two
// costs the engines pay: building a stream and drawing from it.
func BenchmarkSource(b *testing.B) {
	b.Run("new/randx", func(b *testing.B) {
		for b.Loop() {
			sinkU64 += randx.NewSource(int64(sinkU64)).Uint64()
		}
	})
	b.Run("new/math-rand", func(b *testing.B) {
		for b.Loop() {
			sinkU64 += rand.NewSource(int64(sinkU64)).(rand.Source64).Uint64()
		}
	})
	b.Run("draw/randx", func(b *testing.B) {
		r := rand.New(randx.NewSource(1))
		for b.Loop() {
			sinkU64 += uint64(r.Intn(1000))
		}
	})
	b.Run("draw/math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for b.Loop() {
			sinkU64 += uint64(r.Intn(1000))
		}
	})
}
