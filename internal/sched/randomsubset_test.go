package sched_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"thinunison/internal/randx"
	"thinunison/internal/sched"
	"thinunison/internal/snapshot"
)

// refSubset is the random-subset draw written the plain way, one
// rand.Rand.Float64 per node and a data-dependent append: the reference the
// branch-free kernel must reproduce draw for draw.
type refSubset struct {
	p         float64
	maxGap    int
	rng       *rand.Rand
	last      []int
	buf       []int
	fallbacks int // steps that drew their one node with Intn
}

func newRefSubset(p float64, maxGap int, src rand.Source) *refSubset {
	if maxGap <= 0 {
		maxGap = 64
	}
	return &refSubset{p: p, maxGap: maxGap, rng: rand.New(src)}
}

func (s *refSubset) activations(t, n int) []int {
	for len(s.last) < n {
		s.last = append(s.last, t)
	}
	s.buf = s.buf[:0]
	for v := 0; v < n; v++ {
		if s.rng.Float64() < s.p || t-s.last[v] >= s.maxGap {
			s.buf = append(s.buf, v)
			s.last[v] = t
		}
	}
	if len(s.buf) == 0 {
		s.fallbacks++
		v := s.rng.Intn(n)
		s.buf = append(s.buf, v)
		s.last[v] = t
	}
	return s.buf
}

// gaps decodes the starvation-gap vector of a RandomSubset checkpoint.
func gaps(t *testing.T, s *sched.RandomSubset) []int {
	t.Helper()
	data, err := s.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	d := snapshot.NewDec(data)
	d.I64()
	d.U64s()
	last := d.Ints()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return last
}

// TestRandomSubsetMatchesReference: the kernel emits exactly the reference's
// activations over math/rand's own source, and ends with the same gap
// vector, across coin probabilities from never to always, starvation bounds
// down to 1, a node count that grows, shrinks and regrows between calls,
// and the empty-step fallback (p = 0 leaves steps with no coin hit).
func TestRandomSubsetMatchesReference(t *testing.T) {
	sizes := []int{1, 1, 2, 5, 5, 5, 17, 17, 64, 64, 64, 200, 200, 50, 50, 300, 300, 300}
	for _, p := range []float64{0, 0.01, 0.4, 1} {
		for _, maxGap := range []int{1, 3, 16} {
			for _, seed := range []int64{1, 7, 42} {
				name := fmt.Sprintf("p=%g/maxGap=%d/seed=%d", p, maxGap, seed)
				got := sched.NewRandomSubsetSeeded(p, maxGap, seed)
				want := newRefSubset(p, maxGap, rand.NewSource(seed))
				for step := 0; step < 400; step++ {
					n := sizes[step%len(sizes)]
					a, b := got.Activations(step, n), want.activations(step, n)
					if !slices.Equal(a, b) {
						t.Fatalf("%s: step %d (n=%d): kernel %v, reference %v", name, step, n, a, b)
					}
				}
				if g := gaps(t, got); !slices.Equal(g, want.last) {
					t.Fatalf("%s: kernel gap vector %v, reference %v", name, g, want.last)
				}
				if p == 0 && maxGap > 1 && want.fallbacks == 0 {
					t.Fatalf("%s: no step took the empty-step fallback", name)
				}
			}
		}
	}
}

// TestRandomSubsetRedrawsOne forces math/rand's Float64 redraw: the source
// is set so that its next Int63 is 2^63−1, which rounds to exactly 1.0 as a
// float64. math/rand discards that value and draws again, so the kernel
// must too, or every later coin would shift by one draw.
func TestRandomSubsetRedrawsOne(t *testing.T) {
	const seed, maxGap = 3, 16
	st := randx.NewSource(seed).State()
	// The next draw advances both indices by −1 and returns
	// vec[feed] + vec[tap] there; choose vec[feed] to make it 2^63−1.
	const srcLen = 607
	tap, feed := (st[srcLen]+srcLen-1)%srcLen, (st[srcLen+1]+srcLen-1)%srcLen
	st[feed] = 1<<63 - 1 - st[tap]

	probe := randx.NewSource(0)
	if err := probe.SetState(st); err != nil {
		t.Fatal(err)
	}
	if v := probe.Int63(); v != 1<<63-1 || float64(v)/(1<<63) != 1 {
		t.Fatalf("forced state draws %d first, want 2^63−1, which rounds to 1", v)
	}

	var e snapshot.Enc
	e.I64(seed)
	e.U64s(st)
	e.Ints(nil)
	for _, p := range []float64{0.01, 0.4, 1} {
		got := sched.NewRandomSubsetSeeded(p, maxGap, seed)
		if err := got.RestoreState(e.Bytes(), 0, 0); err != nil {
			t.Fatal(err)
		}
		ref := randx.NewSource(0)
		if err := ref.SetState(st); err != nil {
			t.Fatal(err)
		}
		want := newRefSubset(p, maxGap, ref)
		for step := 0; step < 50; step++ {
			a, b := got.Activations(step, 40), want.activations(step, 40)
			if !slices.Equal(a, b) {
				t.Fatalf("p=%g: step %d: kernel %v, reference %v", p, step, a, b)
			}
		}
	}
}

// BenchmarkRandomSubsetActivations times one activation draw of the
// checkpoint-fork workload's scheduler (p = 0.4, maxGap = 16) and reports
// its cost per node.
func BenchmarkRandomSubsetActivations(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := sched.NewRandomSubsetSeeded(0.4, 16, 1)
			s.Activations(0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Activations(i+1, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
		})
	}
}
