package frontier

import (
	"math/rand"
	"testing"
)

// reference is the oracle: a plain boolean membership table.
type reference struct {
	in []bool
	n  int
}

func (r *reference) apply(op int, v int) {
	switch op {
	case 0:
		r.in[v] = true
	case 1:
		r.in[v] = false
	}
}

func (r *reference) members() []int {
	var out []int
	for v := 0; v < r.n; v++ {
		if r.in[v] {
			out = append(out, v)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSetAgainstReference drives random Add/Remove sequences against the
// oracle over domains with and without a ragged tail word, checking
// Contains, Len and AppendTo after every operation batch.
func TestSetAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{5, 64, 129, 200} {
		s := New(n)
		ref := &reference{in: make([]bool, n), n: n}
		for batch := 0; batch < 50; batch++ {
			for i := 0; i < 20; i++ {
				op, v := rng.Intn(2), rng.Intn(n)
				s.apply(op, v)
				ref.apply(op, v)
			}
			if s.Len() != len(ref.members()) {
				t.Fatalf("n=%d: Len = %d, want %d", n, s.Len(), len(ref.members()))
			}
			for v := 0; v < n; v++ {
				if s.Contains(v) != ref.in[v] {
					t.Fatalf("n=%d: Contains(%d) = %v, want %v", n, v, s.Contains(v), ref.in[v])
				}
			}
			if got, want := s.AppendTo(nil), ref.members(); !equalInts(got, want) {
				t.Fatalf("n=%d: AppendTo = %v, want %v", n, got, want)
			}
		}
	}
}

func (s *Set) apply(op, v int) {
	if op == 0 {
		s.Add(v)
	} else {
		s.Remove(v)
	}
}

// TestFill: Fill marks the whole domain, including ragged tail words.
func TestFill(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := New(n)
		s.Fill()
		if s.Len() != n {
			t.Fatalf("n=%d: Len after Fill = %d", n, s.Len())
		}
		got := s.AppendTo(nil)
		if len(got) != n {
			t.Fatalf("n=%d: AppendTo after Fill returned %d members", n, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("n=%d: member %d = %d", n, i, v)
			}
		}
		s.Remove(n - 1)
		if s.Len() != n-1 || s.Contains(n-1) {
			t.Fatalf("n=%d: Remove after Fill failed", n)
		}
	}
}

// TestIdempotence: double Add / double Remove must not skew the count.
func TestIdempotence(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if s.Len() != 1 {
		t.Fatalf("Len after double Add = %d", s.Len())
	}
	s.Remove(3)
	s.Remove(3)
	if s.Len() != 0 {
		t.Fatalf("Len after double Remove = %d", s.Len())
	}
}
